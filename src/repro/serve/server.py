"""The asyncio :class:`Server`: per-tenant sessions behind one submit().

This is the service layer the ROADMAP's "millions of users" north star
asks for: callers submit *single* requests; the server owns everything
between that call and the engine —

* **tenancy** — each tenant gets its own lazily created
  :class:`~repro.api.Session` (built from the server's
  :class:`~repro.api.Options` template), so plan caches, shard pools,
  pinned storage and stats isolate by construction (the PR-2 ownership
  model doing its job one level up);
* **admission** — an :class:`~repro.serve.admission.AdmissionController`
  bounds in-flight depth globally and per tenant, parking or rejecting
  (:class:`~repro.serve.admission.ServeOverloadError`) the excess;
* **coalescing** — a :class:`~repro.serve.coalesce.Coalescer` batches
  compatible in-flight requests (same tenant, same compiled function,
  same feed signature) into waves, dispatched through
  ``Session.run_batch`` — which routes to the multi-process
  ``run_sharded`` path under ``Options(shards=N)`` — in a worker
  thread, so the event loop never blocks on BLAS;
* **metrics** — a :class:`~repro.serve.metrics.ServeMetrics` bundle
  records end-to-end latency (p50/p99/p999), queue wait, wave occupancy
  and queue depth, rendered by :meth:`Server.render_stats` next to each
  tenant session's plan-cache stats.

Usage::

    from repro import api, serve, tensor as T

    async def main():
        async with serve.Server(api.Options()) as server:
            y = await server.submit(fn, [A, B], tenant="alice")

The server is event-loop-confined: construct and use it from one
asyncio loop.  Wave execution happens in the server's thread pool; the
sessions' own locks make the underlying runtime calls safe there.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
from collections.abc import Callable, Sequence

from .. import faults
from ..api import Compiled, Options, Session, input_signature
from ..tensor.tensor import Tensor
from .admission import (
    AdmissionConfig,
    AdmissionController,
    ServeDeadlineError,
    ServeOverloadError,
)
from .breaker import BreakerConfig, CircuitBreaker
from .coalesce import CoalesceConfig, Coalescer
from .metrics import ServeMetrics

__all__ = ["Server", "ServerStats"]


def _failure_cause(exc: BaseException) -> str:
    """Classify a failed request for ``ServeMetrics.failure_causes``."""
    from ..runtime import ShardWorkerError

    if isinstance(exc, ServeDeadlineError):
        return "deadline"
    if isinstance(exc, ShardWorkerError):
        return f"shard_{exc.cause or 'error'}"
    return type(exc).__name__


@dataclasses.dataclass(frozen=True)
class ServerStats:
    """Point-in-time server snapshot: serving metrics + per-tenant
    session stats."""

    metrics: dict
    tenants: dict

    def render(self) -> str:
        lines = [self.metrics_render]
        if self.plan_store is not None:
            ps = self.plan_store
            lines.append(
                f"plan store (fleet): {ps['hits']} hits / "
                f"{ps['misses']} misses / {ps['writes']} writes / "
                f"{ps['corrupt_evicted']} corrupt evicted across "
                f"{ps['tenants']} tenant session(s) | "
                f"{ps['bytes_mapped'] / 1024:.1f} KiB mapped | "
                f"~{ps['seconds_saved']:.4f}s saved"
            )
        if self.breakers:
            parts = []
            for key, b in self.breakers.items():
                part = f"{key}={b['state']}"
                if b["consecutive_failures"]:
                    part += f" ({b['consecutive_failures']} failure(s))"
                parts.append(part)
            lines.append("breakers: " + " | ".join(parts))
        for tenant, stats_render in self.tenants_render.items():
            lines.append(f"\n-- tenant {tenant!r} --")
            lines.append(stats_render)
        return "\n".join(lines)

    # Keep the raw render strings next to the structured snapshot so the
    # CLI needs no knowledge of SessionStats/ServeMetrics internals.
    metrics_render: str = ""
    tenants_render: dict = dataclasses.field(default_factory=dict)
    #: Fleet-wide persistent-plan-store counters aggregated over every
    #: tenant session (warm-start rates for operators); ``None`` when
    #: the server's Options template has no ``plan_store``.
    plan_store: dict | None = None
    #: Circuit-breaker state per ``"tenant/plan"`` pair: ``state``
    #: (closed/open/half-open) and ``consecutive_failures`` — the
    #: shedding surface operators watch in ``laab serve-bench``.
    breakers: dict = dataclasses.field(default_factory=dict)


class Server:
    """Async serving front-end over per-tenant compiled-runtime sessions.

    Parameters
    ----------
    options:
        The :class:`~repro.api.Options` template every tenant session is
        built from.  Defaults to ``Options()`` (add ``shards=N`` to
        dispatch waves through worker processes).
    admission:
        :class:`AdmissionConfig` depth limits / overload policy.
    coalesce:
        :class:`CoalesceConfig` wave-formation thresholds.
    dispatch_workers:
        Threads executing waves (waves of one plan serialize on the
        coalescer's per-key lock; the pool bounds cross-plan
        parallelism).
    breaker:
        :class:`~repro.serve.breaker.BreakerConfig` for the
        per-(tenant, plan) circuit breakers; defaults to tripping after
        5 consecutive wave failures with a 1 s half-open cooldown.
        ``BreakerConfig(failures_to_open=0)`` disables breaking.
    """

    def __init__(
        self,
        options: Options | None = None,
        *,
        admission: AdmissionConfig | None = None,
        coalesce: CoalesceConfig | None = None,
        metrics: ServeMetrics | None = None,
        dispatch_workers: int = 2,
        breaker: BreakerConfig | None = None,
    ) -> None:
        if options is None:
            options = Options()
        options.validate()
        if not isinstance(dispatch_workers, int) or dispatch_workers < 1:
            raise ValueError(
                f"dispatch_workers must be an int >= 1, got "
                f"{dispatch_workers!r}"
            )
        self.options = options
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.admission = AdmissionController(admission, self.metrics)
        self._coalescer = Coalescer(
            self._dispatch_wave, config=coalesce, metrics=self.metrics
        )
        self._breaker_config = (
            breaker if breaker is not None else BreakerConfig()
        )
        self._breaker_config.validate()
        #: (tenant, id(compiled)) → CircuitBreaker, created on first use.
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._dispatch_workers = dispatch_workers
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._sessions: dict[str, Session] = {}
        #: (tenant, id(fn)) → Compiled; holds the fn alive, so ids stay
        #: unique for the server's lifetime.
        self._compiled: dict[tuple[str, int], Compiled] = {}
        self._started = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "Server":
        if self._stopped:
            raise RuntimeError("server stopped; build a new Server")
        if not self._started:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self._dispatch_workers,
                thread_name_prefix="repro-serve",
            )
            self._started = True
        return self

    async def stop(self) -> None:
        """Drain in-flight waves, then tear down sessions and threads.

        Idempotent.  Queued-but-unflushed requests are dispatched (a
        drain, not an abort); new submits are refused from the moment
        stop() begins.
        """
        if self._stopped:
            return
        self._stopped = True
        if not self._started:
            return
        await self._coalescer.drain()
        self._executor.shutdown(wait=True)
        self._executor = None
        for session in self._sessions.values():
            session.close()

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- tenancy -----------------------------------------------------------------

    def session(self, tenant: str = "default") -> Session:
        """The tenant's session (created on first use)."""
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(
                f"tenant must be a non-empty string, got {tenant!r}"
            )
        session = self._sessions.get(tenant)
        if session is None:
            session = self._sessions[tenant] = Session(self.options)
        return session

    @property
    def tenants(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    def _compiled_for(self, tenant: str, fn: Callable) -> Compiled:
        if isinstance(fn, Compiled):
            raise TypeError(
                "submit takes the plain Python function; the server "
                "compiles it once per tenant session"
            )
        key = (tenant, id(fn))
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._compiled[key] = self.session(tenant).compile(fn)
        return compiled

    # -- the one serving entry point ---------------------------------------------

    def _breaker_for(self, tenant: str, compiled: Compiled) -> CircuitBreaker:
        key = (tenant, id(compiled))
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self._breaker_config
            )
        return breaker

    async def submit(
        self,
        fn: Callable,
        feeds: Sequence[Tensor],
        *,
        tenant: str = "default",
        deadline: float | None = None,
    ):
        """Execute ``fn(*feeds)`` through the tenant's session; returns
        the same Tensor (or tuple) a direct compiled call would.

        The request passes admission control (may park under
        backpressure or raise
        :class:`~repro.serve.admission.ServeOverloadError`), coalesces
        with compatible in-flight requests into one wave, and resolves
        when its wave completes.  Raises whatever the plan execution
        raised — a failure inside a wave fails every request of that
        wave.

        ``deadline`` (seconds from now) bounds the whole journey: a
        request still parked in admission or queued in the coalescer
        when it expires resolves with
        :class:`~repro.serve.admission.ServeDeadlineError` instead —
        and its wave flushes no later than the deadline, so a short
        deadline also shortens the coalescing delay.  A request whose
        (tenant, plan) circuit breaker is open is shed immediately with
        :class:`~repro.serve.admission.ServeOverloadError`.
        """
        if not self._started or self._stopped:
            raise RuntimeError(
                "server is not running — use 'async with Server(...)' or "
                "await server.start()"
            )
        if deadline is not None and not deadline > 0:
            raise ValueError(
                f"deadline must be > 0 seconds or None, got {deadline!r}"
            )
        feeds = list(feeds)
        sig = input_signature(feeds)  # also validates feeds are Tensors
        loop = asyncio.get_running_loop()
        start = loop.time()
        expires_at = None if deadline is None else start + deadline
        self.metrics.submitted += 1
        compiled = self._compiled_for(tenant, fn)
        breaker = self._breaker_for(tenant, compiled)
        if not breaker.allow(loop.time()):
            self.metrics.rejected += 1
            self.metrics.breaker_shed += 1
            raise ServeOverloadError(
                f"request for tenant {tenant!r} shed: its plan's circuit "
                f"breaker is open after {breaker.consecutive_failures} "
                "consecutive wave failures"
            )
        try:
            await self.admission.acquire(tenant, deadline=expires_at)
        except ServeDeadlineError:
            self.metrics.count_failure("deadline")
            raise
        try:
            future = self._coalescer.submit(
                (tenant, id(compiled), sig), (compiled, feeds),
                expires_at=expires_at,
            )
            try:
                result = await future
            except asyncio.CancelledError:
                future.cancel()  # drop from any not-yet-dispatched wave
                raise
            except ServeDeadlineError:
                # Counted where it expired; failure-cause only here.
                self.metrics.count_failure("deadline")
                raise
            except Exception as exc:
                self.metrics.failed += 1
                self.metrics.count_failure(_failure_cause(exc))
                raise
        finally:
            self.admission.release(tenant)
        self.metrics.completed += 1
        self.metrics.latency.record(loop.time() - start)
        return result

    # -- wave execution ----------------------------------------------------------

    async def _dispatch_wave(self, key, items):
        tenant = key[0]
        compiled = items[0][0]
        feed_sets = [feeds for _, feeds in items]
        session = self.session(tenant)
        loop = asyncio.get_running_loop()
        breaker = self._breaker_for(tenant, compiled)
        try:
            results = await loop.run_in_executor(
                self._executor, self._run_wave_sync, session, compiled,
                feed_sets,
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            if breaker.record_failure(loop.time()):
                self.metrics.breaker_trips += 1
            raise
        breaker.record_success()
        return results

    @staticmethod
    def _run_wave_sync(session: Session, compiled: Compiled, feed_sets):
        """One wave through the engine — runs in a dispatch thread.

        ``run_batch`` routes to the multi-process ``run_sharded`` path
        when the session was built with ``Options(shards=N)``; either
        way the GIL is released for the BLAS work and the event loop
        keeps admitting/coalescing meanwhile.
        """
        spec = faults.fire("serve.dispatch")
        result = session.run_batch(compiled, feed_sets)
        outputs = [Compiled._wrap(out) for out in result.outputs]
        if spec is not None and spec.action == "corrupt" and outputs:
            outputs = outputs[:-1]  # injected dispatch bug: short wave
        return outputs

    # -- stats -------------------------------------------------------------------

    def stats(self) -> ServerStats:
        """Serving metrics + per-tenant session stats, snapshot."""
        tenants = {t: s.stats() for t, s in self._sessions.items()}
        store_agg = None
        if self.options.plan_store is not None:
            store_agg = {
                "dir": self.options.plan_store,
                "tenants": len(tenants),
                "hits": sum(st.store_hits for st in tenants.values()),
                "misses": sum(st.store_misses for st in tenants.values()),
                "writes": sum(st.store_writes for st in tenants.values()),
                "corrupt_evicted": sum(
                    st.store_corrupt_evicted for st in tenants.values()
                ),
                "bytes_mapped": sum(
                    st.store_bytes_mapped for st in tenants.values()
                ),
                "seconds_saved": sum(
                    st.store_seconds_saved for st in tenants.values()
                ),
            }
        names = {id(c): c.__name__ for c in self._compiled.values()}
        breakers = {
            f"{tenant}/{names.get(cid, hex(cid))}": {
                "state": br.state,
                "consecutive_failures": br.consecutive_failures,
            }
            for (tenant, cid), br in self._breakers.items()
        }
        return ServerStats(
            metrics=self.metrics.snapshot(),
            tenants={t: dataclasses.asdict(st) for t, st in tenants.items()},
            metrics_render=self.metrics.render(),
            tenants_render={t: st.render() for t, st in tenants.items()},
            plan_store=store_agg,
            breakers=breakers,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "stopped" if self._stopped
            else "running" if self._started else "new"
        )
        return (
            f"<serve.Server {state}, {len(self._sessions)} tenant(s), "
            f"coalesce max_wave={self._coalescer.config.max_wave} "
            f"max_delay={self._coalescer.config.max_delay}>"
        )
