"""IR nodes.

A :class:`Node` is an immutable record ``(op, inputs, attrs)`` plus the
inferred ``shape`` and ``dtype``.  Identity is object identity — two nodes
with identical structure are *different* nodes until the CSE pass merges
them (that distinction is precisely what Fig. 3 of the paper illustrates:
the initial graph contains two structurally identical ``matmul`` nodes).

Attrs are stored as a plain dict but must contain only hashable values
(ndarray constants are keyed by content digest via :meth:`attrs_key`).

Passes rebuild nodes constantly — every rewrite re-creates the consumers
of what it changed.  :meth:`Node.with_inputs` is that rebuild, and it
skips op validation and shape/dtype inference whenever it provably may
(see its docstring); every other construction validates in full.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from ..errors import GraphError
from .ops import OP_REGISTRY

_ids = itertools.count()
_set = object.__setattr__
#: Attr value types that are their own key in a structural key (checked
#: exactly, before any isinstance chain: the common case, and cheaper).
PLAIN_ATTR_TYPES = frozenset({bool, int, float, str, type(None), tuple, frozenset})


class Node:
    """One operation in the computational graph.

    Parameters
    ----------
    op:
        Op name; must be registered in :data:`repro.ir.ops.OP_REGISTRY`.
    inputs:
        Producer nodes, in positional order.
    attrs:
        Op-specific attributes (e.g. ``trans_a`` for matmul, ``alpha`` for
        scale, the ndarray ``value`` for const).
    shape / dtype:
        Normally inferred by the op registry; pass explicitly only from
        :mod:`repro.ir.ops` itself.

    Rebuild contract: :meth:`with_inputs` clones a node onto new inputs.
    When every new input has the shape and dtype of the input it replaces,
    the clone reuses this node's validated shape and dtype instead of
    re-running the op's validation and inference — both are functions of
    the op, the attrs and the input shapes/dtypes alone, so they would
    return what they returned for this node.  Any other input change, and
    every direct construction (the builder, a pass assembling a new op, a
    payload loaded from a plan store), validates in full.
    """

    __slots__ = (
        "op", "inputs", "attrs", "shape", "dtype", "uid", "name", "_attrs_key",
    )

    def __init__(
        self,
        op: str,
        inputs: tuple["Node", ...] = (),
        attrs: dict[str, Any] | None = None,
        *,
        shape: tuple[int, int] | None = None,
        dtype: np.dtype | None = None,
        name: str | None = None,
    ) -> None:
        try:
            spec = OP_REGISTRY[op]
        except KeyError:
            raise GraphError(f"unknown op {op!r}") from None
        attrs = dict(attrs or {})
        inputs = tuple(inputs)
        for i, inp in enumerate(inputs):
            if not isinstance(inp, Node):
                raise GraphError(
                    f"{op}: input {i} is {type(inp).__name__}, expected Node"
                )
        spec.validate(inputs, attrs)
        if shape is None or dtype is None:
            inferred_shape, inferred_dtype = spec.infer(inputs, attrs)
            shape = inferred_shape if shape is None else shape
            dtype = inferred_dtype if dtype is None else dtype
        _set(self, "op", op)
        _set(self, "inputs", inputs)
        _set(self, "attrs", attrs)
        _set(self, "shape", tuple(shape))
        _set(self, "dtype", np.dtype(dtype))
        uid = next(_ids)
        _set(self, "uid", uid)
        _set(self, "name", name or f"{op}_{uid}")
        _set(self, "_attrs_key", None)

    def with_inputs(self, inputs: tuple["Node", ...]) -> "Node":
        """A new node: this one's op, a copy of its attrs and its name,
        over ``inputs``.

        When ``inputs`` has as many nodes as :attr:`inputs` and each has
        the shape and dtype of the one it replaces, the clone takes this
        node's shape and dtype as they are (see the class docstring);
        otherwise it goes through the full constructor, which raises on
        a shape the op cannot take.
        """
        old = self.inputs
        if len(inputs) != len(old):
            return Node(self.op, inputs, dict(self.attrs), name=self.name)
        for new, prev in zip(inputs, old):
            if not (
                isinstance(new, Node)
                and new.shape == prev.shape
                and new.dtype == prev.dtype
            ):
                return Node(self.op, inputs, dict(self.attrs), name=self.name)
        node = object.__new__(Node)
        _set(node, "op", self.op)
        _set(node, "inputs", tuple(inputs))
        _set(node, "attrs", dict(self.attrs))
        _set(node, "shape", self.shape)
        _set(node, "dtype", self.dtype)
        _set(node, "uid", next(_ids))
        _set(node, "name", self.name)
        # Equal attrs, equal key.
        _set(node, "_attrs_key", self._attrs_key)
        return node

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Node is immutable; build a new node instead")

    # -- structural keys -----------------------------------------------------

    def attrs_key(self) -> tuple:
        """Canonical hashable form of the attrs (for CSE keys).

        ndarray values are replaced by ``(shape, dtype, sha1-of-bytes)``;
        frozensets and primitives pass through.  Computed once per node
        (attrs are immutable by convention; every CSE run asks again).
        """
        if self._attrs_key is not None:
            return self._attrs_key
        items = []
        for k in sorted(self.attrs):
            v = self.attrs[k]
            if type(v) in PLAIN_ATTR_TYPES:
                items.append((k, v))
            elif isinstance(v, np.ndarray):
                import hashlib

                digest = hashlib.sha1(np.ascontiguousarray(v).tobytes()).hexdigest()
                items.append((k, ("ndarray", v.shape, str(v.dtype), digest)))
            elif isinstance(v, (frozenset, tuple, str, int, float, bool, type(None))):
                items.append((k, v))
            else:
                items.append((k, repr(v)))
        key = tuple(items)
        _set(self, "_attrs_key", key)
        return key

    def signature(self) -> tuple:
        """Shallow structural key: op + attrs + *identities* of inputs.

        Two nodes with equal signatures compute the same value provided
        their inputs are already deduplicated — exactly the invariant the
        bottom-up CSE pass maintains.
        """
        return (self.op, self.attrs_key(), tuple(map(id, self.inputs)))

    # -- conveniences --------------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return 1 in self.shape

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    @property
    def is_square(self) -> bool:
        return self.shape[0] == self.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(i.name for i in self.inputs)
        extra = {k: v for k, v in self.attrs.items() if not isinstance(v, np.ndarray)}
        attr_s = f" {extra}" if extra else ""
        return f"<{self.name}: {self.op}({ins}){attr_s} -> {self.shape} {self.dtype}>"
