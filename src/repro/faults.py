"""Deterministic fault injection: the chaos harness behind the recovery tests.

Every recovery path in this repo — hung-worker supervision in
:mod:`repro.runtime.shard`, deadline expiry and circuit breaking in
:mod:`repro.serve`, corrupt-artifact eviction in
:mod:`repro.runtime.store` — is CI-tested by *injecting* the fault it
recovers from, not by hoping production finds it first.  This module is
the single registry those tests (and the ``laab chaos`` CLI) talk to.

The model: code under test calls :func:`fire` at **named sites**; a
:class:`FaultPlan` maps sites to :class:`FaultSpec` actions with
deterministic trigger windows.  Sites currently wired in:

========================  ====================================================
site                      where it fires
========================  ====================================================
``worker.exec``           shard worker, before executing each ring entry
``pipe.send``             shard worker, before sending its wave reply
``pipe.recv``             pool parent, after receiving a wave reply
``store.load``            :meth:`PlanStore._load_artifact`, before reading
``serve.dispatch``        :meth:`Server._run_wave_sync`, before the batch run
========================  ====================================================

Actions
-------
``crash``    ``os._exit`` — a worker death the parent sees as a closed pipe
``hang``     ignore SIGTERM, then sleep ``seconds`` (default 3600) — a stuck
             worker that *also* swallows terminate, exercising the
             terminate→kill escalation
``delay``    sleep ``seconds`` (default 0.05), then continue
``error``    raise :class:`InjectedFault` (a :class:`ReproError`)
``corrupt``  return the spec to the call site, which applies a site-specific
             corruption (garbled pipe reply, truncated artifact, …)

Determinism
-----------
Each spec fires on hit numbers ``[after, after + count)`` of its site's
per-process counter (1-based), optionally restricted to one shard worker
(``wN``).  A spec may instead fire probabilistically (``@pP``) from a
``seed``-derived per-site RNG — still reproducible run-to-run.  Workers
count their own hits (the registry is per-process), so a respawned
worker starts from zero: chaos schedules pick trigger counts that the
replayed wave no longer reaches.

Activation: :func:`install` (tests, ``Options(faults=...)``), or the
``REPRO_FAULTS`` environment variable (read once, lazily), whose value
is the :meth:`FaultPlan.render` string grammar::

    site:action[(seconds)]@after[xcount][wN] [; ...]    e.g.
    worker.exec:crash@3w0 ; pipe.send:corrupt@2 ; store.load:delay(0.1)@1x5

Spawned shard workers cannot inherit an installed plan, so the pool
ships ``render()`` of the active plan as a worker argument and the
worker re-installs it — fork and spawn behave identically.
"""

from __future__ import annotations

import os
import random
import re
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field

from .errors import ConfigError, ReproError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "ACTIONS",
    "install",
    "clear",
    "active",
    "active_render",
    "fire",
]

#: Exit status used by the ``crash`` action — distinctive in ``exitcode``
#: assertions (and outside the signal range, so it reads as a clean
#: ``os._exit``, not a kill).
CRASH_EXIT = 70

ACTIONS = ("crash", "hang", "delay", "error", "corrupt")


class InjectedFault(ReproError, RuntimeError):
    """An ``error``-action fault fired — never raised outside tests/chaos."""


@dataclass(frozen=True)
class FaultSpec:
    """One site → action rule with a deterministic trigger window.

    Fires on site hits ``after .. after + count - 1`` (1-based,
    per-process), or — when ``chance`` is set instead of ``after`` — on
    each hit with seeded probability ``chance``.  ``worker`` restricts
    the spec to one shard worker index (``None`` matches anywhere,
    including parent-side sites).
    """

    site: str
    action: str
    after: int | None = 1
    count: int = 1
    seconds: float | None = None
    worker: int | None = None
    chance: float | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(
                f"fault action must be one of {ACTIONS}, got {self.action!r}"
            )
        if (self.after is None) == (self.chance is None):
            raise ConfigError(
                "a fault spec needs exactly one trigger: after=N or chance=P"
            )
        if self.after is not None and (
            not isinstance(self.after, int) or self.after < 1
        ):
            raise ConfigError(f"after must be an int >= 1, got {self.after!r}")
        if not isinstance(self.count, int) or self.count < 1:
            raise ConfigError(f"count must be an int >= 1, got {self.count!r}")
        if self.chance is not None and not (0.0 < self.chance <= 1.0):
            raise ConfigError(f"chance must be in (0, 1], got {self.chance!r}")

    def matches(self, hit: int, worker: int | None, rng) -> bool:
        if self.worker is not None and self.worker != worker:
            return False
        if self.chance is not None:
            return rng.random() < self.chance
        return self.after <= hit < self.after + self.count

    def render(self) -> str:
        out = f"{self.site}:{self.action}"
        if self.seconds is not None:
            out += f"({self.seconds:g})"
        if self.chance is not None:
            out += f"@p{self.chance:g}"
        else:
            out += f"@{self.after}"
            if self.count != 1:
                out += f"x{self.count}"
        if self.worker is not None:
            out += f"w{self.worker}"
        return out


_SPEC_RE = re.compile(
    r"""^(?P<site>[A-Za-z0-9_.\-]+)
        :(?P<action>[a-z]+)
        (?:\((?P<seconds>[0-9]*\.?[0-9]+)\))?
        @(?:p(?P<chance>[0-9]*\.?[0-9]+)|(?P<after>[0-9]+))
        (?:x(?P<count>[0-9]+))?
        (?:w(?P<worker>[0-9]+))?$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` rules plus an RNG seed.

    Round-trips through :meth:`render`/:meth:`parse` so a plan can ship
    across process boundaries (spawned workers, the ``REPRO_FAULTS``
    env) as a plain string.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs = []
        seed = 0
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if part.startswith("seed="):
                try:
                    seed = int(part[5:])
                except ValueError:
                    raise ConfigError(f"bad fault seed: {part!r}") from None
                continue
            m = _SPEC_RE.match(part)
            if m is None:
                raise ConfigError(
                    f"bad fault spec {part!r} — expected "
                    "site:action[(seconds)]@after[xcount][wN] or @pP"
                )
            g = m.groupdict()
            specs.append(FaultSpec(
                site=g["site"],
                action=g["action"],
                after=int(g["after"]) if g["after"] is not None else None,
                count=int(g["count"]) if g["count"] is not None else 1,
                seconds=float(g["seconds"]) if g["seconds"] else None,
                worker=int(g["worker"]) if g["worker"] is not None else None,
                chance=float(g["chance"]) if g["chance"] is not None else None,
            ))
        return cls(specs=tuple(specs), seed=seed)

    def render(self) -> str:
        parts = [spec.render() for spec in self.specs]
        if self.seed:
            parts.insert(0, f"seed={self.seed}")
        return ";".join(parts)


def _coerce(plan) -> FaultPlan:
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, str):
        return FaultPlan.parse(plan)
    if isinstance(plan, FaultSpec):
        return FaultPlan(specs=(plan,))
    raise ConfigError(
        f"faults must be a FaultPlan, FaultSpec, or spec string, got "
        f"{type(plan).__name__}"
    )


class FaultInjector:
    """Per-process executor of a :class:`FaultPlan`.

    Tracks one hit counter per site (thread-safe — serve dispatch fires
    from executor threads) and a per-site seeded RNG for ``chance``
    specs.  :meth:`fire` either returns ``None`` (no fault), returns the
    matching ``corrupt`` spec for the call site to apply, sleeps
    (``delay``/``hang``), raises (``error``), or never returns
    (``crash``).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = _coerce(plan)
        self._by_site: dict[str, list[FaultSpec]] = {}
        for spec in self.plan.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._hits: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}
        self._lock = threading.Lock()
        #: ``(site, action)`` → times fired, for test introspection.
        self.fired: dict[tuple[str, str], int] = {}

    def hits(self, site: str) -> int:
        with self._lock:
            return self._hits.get(site, 0)

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(
                self.plan.seed ^ zlib.crc32(site.encode())
            )
        return rng

    def fire(self, site: str, *, worker: int | None = None):
        specs = self._by_site.get(site)
        if not specs:
            return None
        with self._lock:
            hit = self._hits[site] = self._hits.get(site, 0) + 1
            spec = next(
                (s for s in specs
                 if s.matches(hit, worker, self._rng(site))), None,
            )
            if spec is None:
                return None
            key = (site, spec.action)
            self.fired[key] = self.fired.get(key, 0) + 1
        return _act(spec)


def _act(spec: FaultSpec):
    if spec.action == "crash":
        os._exit(CRASH_EXIT)
    if spec.action == "hang":
        # Swallow SIGTERM where we can (main thread of a worker process)
        # so the supervisor's terminate() is ignored and the kill
        # escalation is what actually reaps us.
        try:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        except (ValueError, OSError):  # non-main thread / platform
            pass
        time.sleep(spec.seconds if spec.seconds is not None else 3600.0)
        return None
    if spec.action == "delay":
        time.sleep(spec.seconds if spec.seconds is not None else 0.05)
        return None
    if spec.action == "error":
        raise InjectedFault(
            f"injected fault at site {spec.site!r}"
        )
    return spec  # corrupt: the call site applies it


# -- process-global registry ---------------------------------------------------

_active: FaultInjector | None = None
_env_checked = False


def install(plan) -> FaultInjector:
    """Activate ``plan`` (a :class:`FaultPlan`, spec, or grammar string)
    process-wide; returns the live :class:`FaultInjector`."""
    global _active, _env_checked
    _env_checked = True  # an explicit install outranks the env
    _active = FaultInjector(_coerce(plan))
    return _active


def clear() -> None:
    """Deactivate fault injection (and forget the env, so tests that
    monkeypatch ``REPRO_FAULTS`` re-trigger the lazy read)."""
    global _active, _env_checked
    _active = None
    _env_checked = False


def active() -> FaultInjector | None:
    """The live injector, lazily picking up ``REPRO_FAULTS`` once."""
    global _active, _env_checked
    if _active is None and not _env_checked:
        _env_checked = True
        env = os.environ.get("REPRO_FAULTS")
        if env:
            _active = FaultInjector(FaultPlan.parse(env))
    return _active


def active_render() -> str | None:
    """``render()`` of the active plan (for shipping to spawned workers)."""
    inj = active()
    return None if inj is None else inj.plan.render()


def fire(site: str, *, worker: int | None = None):
    """Fire ``site`` against the active injector (no-op when inactive)."""
    inj = active()
    return None if inj is None else inj.fire(site, worker=worker)
