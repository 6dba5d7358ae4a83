"""Reference executor for the IR, with kernel and FLOP accounting.

Every node is executed through the BLAS substrate; the interpreter records
which kernel ran with which dimensions, so experiments can report both
measured time *and* the modelled FLOP count (the paper reasons about both).

Kernel selection for ``matmul`` mirrors how the real frameworks lower onto
MKL: shape-based choice of DOT/GEMV/GEMM with transposes folded into the
kernel call.  A ``kernel`` attr — set by the opt-in property-aware
dispatcher pass — overrides the default choice with a structured kernel
(TRMM, SYRK, SYMM, diagonal or tridiagonal scaling), which is exactly the
dispatch the paper finds missing in TF/PyT.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

import numpy as np

from ..errors import GraphError, KernelError
from ..kernels import blas1, blas2, blas3, special
from ..kernels.flops import kernel_flops
from ..tensor.tensor import Tensor
from .graph import Graph
from .node import Node


@dataclasses.dataclass(frozen=True)
class KernelCall:
    """One executed kernel: name, problem dimensions, modelled FLOPs."""

    kernel: str
    dims: tuple[int, ...]
    flops: int
    node_op: str


@dataclasses.dataclass
class ExecutionReport:
    """Accounting data accumulated during one graph execution."""

    calls: list[KernelCall] = dataclasses.field(default_factory=list)
    peak_bytes: int = 0
    _live_bytes: int = 0

    def record(self, kernel: str, dims: tuple[int, ...], node_op: str) -> None:
        self.calls.append(
            KernelCall(kernel, dims, kernel_flops(kernel, *dims), node_op)
        )

    def record_free(self, kernel: str, node_op: str) -> None:
        """A kernel-free operation (view, copy, concat)."""
        self.calls.append(KernelCall(kernel, (), 0, node_op))

    @property
    def total_flops(self) -> int:
        return sum(c.flops for c in self.calls)

    def kernel_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.calls:
            out[c.kernel] = out.get(c.kernel, 0) + 1
        return out

    # -- memory model ---------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Bytes currently modelled as live (allocated, not yet freed)."""
        return self._live_bytes

    def alloc(self, nbytes: int) -> None:
        self._live_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self._live_bytes)

    def free(self, nbytes: int) -> None:
        # Clamp at zero: a free larger than the live set is an accounting
        # bug in the caller, and letting the counter go negative would
        # silently understate every later peak.
        self._live_bytes = max(0, self._live_bytes - nbytes)


def _normalize_feed(value: object) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


class Interpreter:
    """Executes a :class:`Graph` over concrete arrays."""

    def __init__(self, *, record: bool = True) -> None:
        self.record = record

    # -- public API ------------------------------------------------------------

    def run(
        self,
        graph: Graph,
        feeds: Sequence[object] | Mapping[object, object],
        *,
        report: ExecutionReport | None = None,
    ) -> tuple[list[np.ndarray], ExecutionReport]:
        """Execute ``graph``; returns (outputs, report).

        ``feeds`` is either a positional sequence matching ``graph.inputs``
        or a mapping keyed by input Node or input name.
        """
        report = report if report is not None else ExecutionReport()
        env = self._bind(graph, feeds)
        self._check_feeds(graph, env)

        order = graph.topological()
        last_use: dict[int, int] = {}
        for idx, node in enumerate(order):
            for inp in node.inputs:
                last_use[id(inp)] = idx
        for out in graph.outputs:
            last_use[id(out)] = len(order)  # outputs stay live

        values: dict[int, np.ndarray] = dict(env)
        for idx, node in enumerate(order):
            if id(node) in values:
                continue
            args = [values[id(i)] for i in node.inputs]
            result = self._execute(node, args, report)
            values[id(node)] = result
            if self.record:
                report.alloc(result.nbytes)
            # Free operands whose last consumer was this node.
            for inp in node.inputs:
                if last_use.get(id(inp)) == idx and id(inp) in values:
                    if self.record and inp.op not in ("input", "const"):
                        report.free(values[id(inp)].nbytes)
                    if inp.op not in ("input", "const"):
                        del values[id(inp)]
        outputs = [values[id(o)] for o in graph.outputs]
        return outputs, report

    # -- internals ---------------------------------------------------------------

    def _bind(
        self, graph: Graph, feeds: Sequence[object] | Mapping[object, object]
    ) -> dict[int, np.ndarray]:
        env: dict[int, np.ndarray] = {}
        if isinstance(feeds, Mapping):
            by_name = {n.name: n for n in graph.inputs}
            for key, value in feeds.items():
                if isinstance(key, Node):
                    node = key
                elif isinstance(key, str):
                    try:
                        node = by_name[key]
                    except KeyError:
                        raise GraphError(f"no graph input named {key!r}") from None
                else:
                    raise GraphError(f"feed key must be Node or str, got {type(key)}")
                env[id(node)] = _normalize_feed(value)
        else:
            feeds = list(feeds)
            if len(feeds) != len(graph.inputs):
                raise GraphError(
                    f"graph has {len(graph.inputs)} inputs, got {len(feeds)} feeds"
                )
            for node, value in zip(graph.inputs, feeds):
                env[id(node)] = _normalize_feed(value)
        return env

    def _check_feeds(self, graph: Graph, env: dict[int, np.ndarray]) -> None:
        for node in graph.inputs:
            if id(node) not in env:
                raise GraphError(f"missing feed for input {node.name!r}")
            arr = env[id(node)]
            if tuple(arr.shape) != tuple(node.shape):
                raise GraphError(
                    f"feed for {node.name!r} has shape {arr.shape}, "
                    f"input declares {node.shape}"
                )

    def _execute(
        self, node: Node, args: list[np.ndarray], report: ExecutionReport
    ) -> np.ndarray:
        handler = getattr(self, f"_op_{node.op}", None)
        if handler is None:
            raise GraphError(f"interpreter has no handler for op {node.op!r}")
        return handler(node, args, report)

    # -- op handlers ---------------------------------------------------------------

    def _op_const(self, node, args, report):
        return node.attrs["value"]

    def _op_transpose(self, node, args, report):
        (x,) = args
        if self.record:
            report.record("transpose", x.shape, node.op)
        # Materialize, as tf.transpose does: an O(mn) copy, 0 FLOPs.
        return np.ascontiguousarray(x.T)

    def _op_add(self, node, args, report):
        a, b = args
        if self.record:
            report.record("add", a.shape, node.op)
        return a + b

    def _op_sub(self, node, args, report):
        a, b = args
        if self.record:
            report.record("sub", a.shape, node.op)
        return a - b

    def _op_neg(self, node, args, report):
        (a,) = args
        if self.record:
            report.record("scale", a.shape, node.op)
        return -a

    def _op_scale(self, node, args, report):
        (a,) = args
        if self.record:
            report.record("scale", a.shape, node.op)
        return a * a.dtype.type(node.attrs["alpha"])

    def _op_dot(self, node, args, report):
        a, b = args
        av = np.ascontiguousarray(a).ravel()
        bv = np.ascontiguousarray(b).ravel()
        if self.record:
            report.record("dot", (av.shape[0],), node.op)
        return np.array([[blas1.dot(av, bv)]], dtype=a.dtype)

    def _op_slice(self, node, args, report):
        (a,) = args
        sel = []
        for key in ("rows", "cols"):
            s = node.attrs.get(key)
            if s is None:
                sel.append(slice(None))
            elif isinstance(s, int):
                sel.append(slice(s, s + 1) if s != -1 else slice(s, None))
            else:
                sel.append(slice(s[0], s[1]))
        if self.record:
            report.record_free("slice", node.op)
        out = a[tuple(sel)]
        return np.ascontiguousarray(out)

    def _op_concat(self, node, args, report):
        if self.record:
            report.record_free("concat", node.op)
        return np.concatenate(args, axis=node.attrs.get("axis", 0))

    def _op_tridiagonal_matmul(self, node, args, report):
        t, b = args
        if self.record:
            report.record("tridiagonal_matmul", (t.shape[0], b.shape[1]), node.op)
        return special.tridiagonal_matmul(t, b)

    def _op_loop(self, node, args, report):
        body: Graph = node.attrs["body"]
        trip: int = node.attrs["trip_count"]
        carried, *captured = args
        sub = Interpreter(record=self.record)
        for i in range(trip):
            idx = np.array([[float(i)]], dtype=carried.dtype)
            outs, _ = sub.run(body, [idx, carried, *captured], report=report)
            carried = outs[0]
        return carried

    def _op_matmul(self, node, args, report):
        a, b = args
        trans_a = bool(node.attrs.get("trans_a"))
        trans_b = bool(node.attrs.get("trans_b"))
        hint = node.attrs.get("kernel")
        if hint is not None:
            return self._structured_matmul(node, a, b, trans_a, trans_b, hint, report)

        a_eff_shape = tuple(reversed(a.shape)) if trans_a else a.shape
        b_eff_shape = tuple(reversed(b.shape)) if trans_b else b.shape
        m, k = a_eff_shape
        _, n = b_eff_shape

        if m == 1 and n == 1 and k > 1:
            av = np.ascontiguousarray(a).ravel()
            bv = np.ascontiguousarray(b).ravel()
            if self.record:
                report.record("dot", (k,), node.op)
            return np.array([[blas1.dot(av, bv)]], dtype=a.dtype)
        if n == 1 and m > 1:
            x = np.ascontiguousarray(b).ravel()
            if self.record:
                report.record("gemv", (a.shape[0], a.shape[1]), node.op)
            return blas2.gemv(a, x, trans=trans_a).reshape(-1, 1)
        if m == 1 and n > 1:
            x = np.ascontiguousarray(a).ravel()
            if self.record:
                report.record("gemv", (b.shape[0], b.shape[1]), node.op)
            return blas2.gemv(b, x, trans=not trans_b).reshape(1, -1)
        if self.record:
            report.record("gemm", (m, k, n), node.op)
        return blas3.gemm(a, b, trans_a=trans_a, trans_b=trans_b)

    def _structured_matmul(self, node, a, b, trans_a, trans_b, hint, report):
        """Execute a matmul with a property-dispatch kernel hint."""
        opts = dict(node.attrs.get("kernel_opts", ()))
        a_eff = np.ascontiguousarray(a.T) if trans_a else a
        b_eff = np.ascontiguousarray(b.T) if trans_b else b
        m, k = a_eff.shape
        n = b_eff.shape[1]
        if hint == "zero":
            if self.record:
                report.record_free("zero", node.op)
            return np.zeros((m, n), dtype=a.dtype)
        if hint == "identity":
            if self.record:
                report.record_free("identity", node.op)
            return b_eff.copy()
        if hint == "identity_right":
            if self.record:
                report.record_free("identity", node.op)
            return a_eff.copy()
        if hint == "diag_matmul":
            if self.record:
                report.record("diag_matmul", (k, n), node.op)
            return special.diag_matmul(a_eff, b_eff)
        if hint == "tridiagonal_matmul":
            if self.record:
                report.record("tridiagonal_matmul", (k, n), node.op)
            return special.tridiagonal_matmul(a_eff, b_eff)
        if hint == "trmm":
            if self.record:
                report.record("trmm", (m, n), node.op)
            return blas3.trmm(a_eff, b_eff, lower=opts.get("lower", True))
        if hint == "trmm_right":
            if self.record:
                report.record("trmm", (n, m), node.op)
            return blas3.trmm(b_eff, a_eff, side_left=False,
                              lower=opts.get("lower", True))
        if hint == "symm":
            if self.record:
                report.record("symm", (m, n), node.op)
            return blas3.symm(a_eff, b_eff)
        if hint == "syrk":
            # matmul(A, A, trans_b=True) -> A Aᵀ; trans_a=True -> Aᵀ A.
            if self.record:
                report.record("syrk", (m, k), node.op)
            if trans_b and not trans_a:
                return blas3.syrk(a)
            if trans_a and not trans_b:
                return blas3.syrk(a, trans=True)
            raise KernelError("syrk hint requires exactly one transpose flag")
        raise KernelError(f"unknown matmul kernel hint {hint!r}")


def run_graph(
    graph: Graph,
    feeds: Sequence[object] | Mapping[object, object],
    *,
    record: bool = True,
) -> tuple[list[np.ndarray], ExecutionReport]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(record=record).run(graph, feeds)
