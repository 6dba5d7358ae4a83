"""Derivation-graph engine — the Linnea analogue (paper Sec. III-D).

The paper's discussion of Experiment 4: *"Derivation graphs can be used to
systematically rewrite and explore the variants of an input expression...
Linnea is a linear algebra code generator that uses such derivation graphs
to generate variants of input expressions and find optimal programs in
terms of FLOPs.  We remark that derivation graphs can serve as one of the
top level intermediate representations in TF or PyT."*

This package is that subsystem, built from scratch:

``expr``        A symbolic matrix-expression algebra (n-ary products and
                sums, transposes pushed to leaves, scales hoisted) with a
                cost-neutral canonical form.
``rules``       Rewrite rules: distributivity (expand/factor), orthogonal
                cancellation, identity/zero elimination.
``cost``        FLOP cost of an expression, with n-ary products costed by
                the matrix-chain DP (so association is an optimization
                detail, not part of expression identity — as in Linnea).
``derivation``  Breadth-first derivation-graph search over rule
                applications (networkx DiGraph), returning the cheapest
                variant and the rule path that reaches it.
``generator``   Convenience front end: enumerate variants of an input
                expression sorted by FLOPs (regenerates Fig. 1's three
                image-restoration variants automatically).
"""

from .expr import Add, Expr, Identity, MatMul, Scale, Symbol, Transpose, Zero
from .cost import expr_flops
from .rules import DEFAULT_RULES, Rule, RuleApplication
from .derivation import DerivationGraph, DerivationResult
from .generator import best_variant, variants

__all__ = [
    "Expr",
    "Symbol",
    "Identity",
    "Zero",
    "Transpose",
    "MatMul",
    "Add",
    "Scale",
    "expr_flops",
    "Rule",
    "RuleApplication",
    "DEFAULT_RULES",
    "DerivationGraph",
    "DerivationResult",
    "variants",
    "best_variant",
]
