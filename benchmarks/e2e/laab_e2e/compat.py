"""Forward-compatible access to the program under test.

End-to-end metrics need only ``repro.api.Session`` / ``Options``,
``Session.run_batch``, ``repro.serve.Server.submit`` and the ``Tensor``
wrapper.  Everything a per-layer probe calls is imported lazily through
:func:`resolve`; when an entry point is gone the probe reports ``null`` with
the reason and the run goes on.
"""

from __future__ import annotations

import dataclasses
import importlib


class Missing(Exception):
    """A per-layer entry point this probe needs is gone."""


def resolve(path: str):
    """``"pkg.mod:attr"`` → the object, or :class:`Missing` with a reason."""
    module_name, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise Missing(f"{module_name}: {exc}") from exc
    for part in filter(None, attr.split(".")):
        try:
            obj = getattr(obj, part)
        except AttributeError as exc:
            raise Missing(f"{path}: no attribute {part!r}") from exc
    return obj


#: The fields the serving configuration wants; those ``Options`` no longer
#: has are dropped (ROADMAP item 3 plans to collapse them into one path).
SERVING = {"fusion": True, "arena": "preallocated"}


def make_options(**wanted):
    """``Options`` from the wanted fields that still exist."""
    options_cls = resolve("repro.api:Options")
    known = {f.name for f in dataclasses.fields(options_cls)}
    return options_cls(**{k: v for k, v in wanted.items() if k in known})


def make_tensor(array, props: tuple[str, ...] = ()):
    """Wrap an ndarray (no copy) with the named property annotations."""
    tensor_cls = resolve("repro.tensor:Tensor")
    if not props:
        return tensor_cls(array)
    prop_enum = resolve("repro.tensor:Property")
    return tensor_cls(array, {getattr(prop_enum, p) for p in props})
