"""Op registry: arity validation plus shape/dtype inference per op.

Adding an op means adding one :class:`OpSpec` here; the Node constructor,
the interpreter, the pretty-printer, and the passes all consult this
registry, so unknown ops fail fast at graph-construction time.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Any

import numpy as np

from ..errors import GraphError, ShapeError

# A shape is always a 2-tuple: everything in the IR is a matrix.
Shape = tuple[int, int]
InferFn = Callable[[tuple, dict[str, Any]], tuple[Shape, np.dtype]]
ValidateFn = Callable[[tuple, dict[str, Any]], None]


@dataclasses.dataclass(frozen=True)
class OpSpec:
    """Static description of one IR operation."""

    name: str
    arity: int | None  # None = variadic (>= 1)
    infer: InferFn
    validate: ValidateFn
    doc: str = ""


def _common_dtype(inputs: tuple) -> np.dtype:
    first = inputs[0].dtype
    for node in inputs[1:]:
        if node.dtype != first:
            dtypes = {i.dtype for i in inputs}
            raise GraphError(
                f"mixed dtypes in op inputs: {sorted(map(str, dtypes))}"
            )
    return first


def _fixed_arity(n: int, name: str) -> ValidateFn:
    def check(inputs: tuple, attrs: dict[str, Any]) -> None:
        if len(inputs) != n:
            raise GraphError(f"{name} expects {n} inputs, got {len(inputs)}")

    return check


# -- per-op inference ---------------------------------------------------------


def _infer_input(inputs: tuple, attrs: dict[str, Any]):
    shape = attrs.get("shape")
    dtype = attrs.get("dtype")
    if shape is None or dtype is None:
        raise GraphError("input node requires 'shape' and 'dtype' attrs")
    if len(shape) != 2:
        raise ShapeError(f"input shape must be 2-D, got {shape}")
    return tuple(shape), np.dtype(dtype)


def _validate_input(inputs: tuple, attrs: dict[str, Any]) -> None:
    if inputs:
        raise GraphError("input node takes no inputs")


def _infer_const(inputs: tuple, attrs: dict[str, Any]):
    value = attrs.get("value")
    if not isinstance(value, np.ndarray) or value.ndim != 2:
        raise GraphError("const node requires a 2-D ndarray 'value' attr")
    return value.shape, value.dtype


def _validate_const(inputs: tuple, attrs: dict[str, Any]) -> None:
    if inputs:
        raise GraphError("const node takes no inputs")


def _matmul_operand_shapes(inputs: tuple, attrs: dict[str, Any]) -> tuple[Shape, Shape]:
    (a, b) = inputs
    sa = tuple(reversed(a.shape)) if attrs.get("trans_a") else a.shape
    sb = tuple(reversed(b.shape)) if attrs.get("trans_b") else b.shape
    return sa, sb


def _infer_matmul(inputs: tuple, attrs: dict[str, Any]):
    sa, sb = _matmul_operand_shapes(inputs, attrs)
    if sa[1] != sb[0]:
        raise ShapeError(f"matmul: {sa} @ {sb} (after transpose flags)")
    return (sa[0], sb[1]), _common_dtype(inputs)


def _infer_transpose(inputs: tuple, attrs: dict[str, Any]):
    (a,) = inputs
    return (a.shape[1], a.shape[0]), a.dtype


def _infer_elementwise2(name: str) -> InferFn:
    def infer(inputs: tuple, attrs: dict[str, Any]):
        a, b = inputs
        if a.shape != b.shape:
            raise ShapeError(f"{name}: shapes disagree {a.shape} vs {b.shape}")
        return a.shape, _common_dtype(inputs)

    return infer


def _infer_unary(inputs: tuple, attrs: dict[str, Any]):
    (a,) = inputs
    return a.shape, a.dtype


def _validate_scale(inputs: tuple, attrs: dict[str, Any]) -> None:
    _fixed_arity(1, "scale")(inputs, attrs)
    if "alpha" not in attrs:
        raise GraphError("scale requires an 'alpha' attr")
    float(attrs["alpha"])  # raises for non-numeric


def _infer_dot(inputs: tuple, attrs: dict[str, Any]):
    a, b = inputs
    if not (1 in a.shape and 1 in b.shape):
        raise ShapeError(f"dot expects vectors, got {a.shape} and {b.shape}")
    if a.shape[0] * a.shape[1] != b.shape[0] * b.shape[1]:
        raise ShapeError(f"dot: lengths disagree {a.shape} vs {b.shape}")
    return (1, 1), _common_dtype(inputs)


def _axis_extent(dim: int, sel: Any) -> int:
    """Extent of a normalized slice selector along one axis."""
    if sel is None:
        return dim
    if isinstance(sel, int):
        if not -dim <= sel < dim:
            raise ShapeError(f"index {sel} out of range for extent {dim}")
        return 1
    start, stop = sel
    start = 0 if start is None else (start + dim if start < 0 else start)
    stop = dim if stop is None else (stop + dim if stop < 0 else stop)
    if not (0 <= start <= stop <= dim):
        raise ShapeError(f"slice ({sel}) out of range for extent {dim}")
    return stop - start


def _infer_slice(inputs: tuple, attrs: dict[str, Any]):
    (a,) = inputs
    rows = _axis_extent(a.shape[0], attrs.get("rows"))
    cols = _axis_extent(a.shape[1], attrs.get("cols"))
    return (rows, cols), a.dtype


def _infer_concat(inputs: tuple, attrs: dict[str, Any]):
    axis = attrs.get("axis", 0)
    if axis not in (0, 1):
        raise GraphError(f"concat axis must be 0 or 1, got {axis}")
    other = 1 - axis
    ref = inputs[0].shape[other]
    total = 0
    for node in inputs:
        if node.shape[other] != ref:
            raise ShapeError(
                f"concat along axis {axis}: non-concat extents disagree "
                f"({node.shape} vs first {inputs[0].shape})"
            )
        total += node.shape[axis]
    shape = (total, ref) if axis == 0 else (ref, total)
    return shape, _common_dtype(inputs)


def _validate_concat(inputs: tuple, attrs: dict[str, Any]) -> None:
    if len(inputs) < 1:
        raise GraphError("concat needs at least one input")


def _infer_tridiag_matmul(inputs: tuple, attrs: dict[str, Any]):
    t, b = inputs
    if t.shape[0] != t.shape[1]:
        raise ShapeError(f"tridiagonal_matmul: T must be square, got {t.shape}")
    if t.shape[1] != b.shape[0]:
        raise ShapeError(f"tridiagonal_matmul: {t.shape} @ {b.shape}")
    return (t.shape[0], b.shape[1]), _common_dtype(inputs)


def _validate_loop(inputs: tuple, attrs: dict[str, Any]) -> None:
    from .graph import Graph  # local import to avoid cycle

    if len(inputs) < 1:
        raise GraphError("loop needs at least the initial carried value")
    body = attrs.get("body")
    if not isinstance(body, Graph):
        raise GraphError("loop requires a 'body' Graph attr")
    trip = attrs.get("trip_count")
    if not isinstance(trip, int) or trip < 0:
        raise GraphError(f"loop trip_count must be a non-negative int, got {trip!r}")
    # Body signature: inputs = [idx, carried, *captured]; outputs = [carried'].
    if len(body.inputs) != 1 + len(inputs):
        raise GraphError(
            f"loop body expects {1 + len(inputs)} inputs "
            f"(idx, carried, {len(inputs) - 1} captured), has {len(body.inputs)}"
        )
    if len(body.outputs) != 1:
        raise GraphError("loop body must produce exactly one carried output")
    if body.outputs[0].shape != inputs[0].shape:
        raise ShapeError(
            f"loop carried value changes shape: {inputs[0].shape} -> "
            f"{body.outputs[0].shape}"
        )


def _infer_loop(inputs: tuple, attrs: dict[str, Any]):
    return inputs[0].shape, _common_dtype(inputs)


OP_REGISTRY: dict[str, OpSpec] = {
    "input": OpSpec("input", 0, _infer_input, _validate_input,
                    "graph input placeholder (circular node in Fig. 3)"),
    "const": OpSpec("const", 0, _infer_const, _validate_const,
                    "embedded constant matrix"),
    "matmul": OpSpec("matmul", 2, _infer_matmul, _fixed_arity(2, "matmul"),
                     "matrix product; trans_a/trans_b fold transposes into "
                     "the kernel call, optional 'kernel' hint from the "
                     "property-aware dispatcher"),
    "transpose": OpSpec("transpose", 1, _infer_transpose,
                        _fixed_arity(1, "transpose"), "explicit transpose"),
    "add": OpSpec("add", 2, _infer_elementwise2("add"), _fixed_arity(2, "add"),
                  "element-wise sum"),
    "sub": OpSpec("sub", 2, _infer_elementwise2("sub"), _fixed_arity(2, "sub"),
                  "element-wise difference"),
    "neg": OpSpec("neg", 1, _infer_unary, _fixed_arity(1, "neg"),
                  "element-wise negation"),
    "scale": OpSpec("scale", 1, _infer_unary, _validate_scale,
                    "scalar multiple alpha * X"),
    "dot": OpSpec("dot", 2, _infer_dot, _fixed_arity(2, "dot"),
                  "vector inner product (1x1 result)"),
    "slice": OpSpec("slice", 1, _infer_slice, _fixed_arity(1, "slice"),
                    "rectangular sub-block / element access"),
    "concat": OpSpec("concat", None, _infer_concat, _validate_concat,
                     "concatenation along rows (axis=0) or columns (axis=1)"),
    "tridiagonal_matmul": OpSpec(
        "tridiagonal_matmul", 2, _infer_tridiag_matmul,
        _fixed_arity(2, "tridiagonal_matmul"),
        "TF's opt-in banded product (Experiment 3)"),
    "loop": OpSpec("loop", None, _infer_loop, _validate_loop,
                   "counted loop with one carried value; body is a sub-graph "
                   "with inputs [idx, carried, *captured]"),
}
