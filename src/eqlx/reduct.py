"""Reduct constructions.

Two reducts are provided.  ``reduct_nested`` replaces every default-negated
subexpression of a nested expression by a constant according to the reference
literal set, producing an explicit result.  ``ferraris_plus``/
``ferraris_minus`` are the dual transformations for arbitrary formulas: the
positive one bottoms out unsatisfied subformulas, the negative one tops out
unfalsified ones, and explicit negation swaps between them.  Constant
folding of their results is ``transform.simplify_constants``.
"""

from __future__ import annotations

from .core import (
    BOT,
    TOP,
    And,
    AtomRef,
    Bot,
    DNeg,
    Formula,
    Impl,
    Interpretation,
    NotNested,
    Or,
    Program,
    Rule,
    Top,
    XNeg,
    is_nested,
)
from .semantics import _fals, _nsat, _sat

__all__ = [
    "reduct_nested",
    "reduct_rule",
    "reduct_program",
    "ferraris_plus",
    "ferraris_minus",
    "ferraris_theory",
]


def reduct_nested(f: Formula, t: Interpretation) -> Formula:
    """Reduct of a nested expression: each ``not G`` becomes ``bot`` or ``top``."""
    if not is_nested(f):
        raise NotNested(f"the reduct is only defined on nested expressions: {f!r}")
    return _reduct(f, t.literals)


def _reduct(f: Formula, t) -> Formula:
    if isinstance(f, (AtomRef, Top, Bot)):
        return f
    if isinstance(f, And):
        return And(_reduct(f.left, t), _reduct(f.right, t))
    if isinstance(f, Or):
        return Or(_reduct(f.left, t), _reduct(f.right, t))
    if isinstance(f, XNeg):
        return XNeg(_reduct(f.child, t))
    if isinstance(f, DNeg):
        return BOT if _nsat(t, f.child) else TOP
    raise NotNested(f"the reduct is only defined on nested expressions: {f!r}")


def reduct_rule(r: Rule, t: Interpretation) -> Rule:
    return Rule(reduct_nested(r.body, t), reduct_nested(r.head, t))


def reduct_program(p: Program, t: Interpretation) -> Program:
    """Rule-wise reduct; the result is an explicit program."""
    return Program(reduct_rule(r, t) for r in p)


# ---------------------------------------------------------------------------
# Dual reduct for arbitrary formulas


def ferraris_plus(phi: Formula, t: Interpretation) -> Formula:
    """Positive reduct of an arbitrary formula with respect to ``t``."""
    return _fplus(phi, t.literals)


def ferraris_minus(phi: Formula, t: Interpretation) -> Formula:
    """Negative reduct, dual to :func:`ferraris_plus`."""
    return _fminus(phi, t.literals)


def ferraris_theory(gamma, t: Interpretation) -> list:
    """Positive reduct of every member of a theory."""
    return [ferraris_plus(f, t) for f in gamma]


def _fplus(f: Formula, t) -> Formula:
    if not _sat(t, t, f):
        return BOT
    if isinstance(f, (AtomRef, Top)):
        return f
    if isinstance(f, And):
        return And(_fplus(f.left, t), _fplus(f.right, t))
    if isinstance(f, Or):
        return Or(_fplus(f.left, t), _fplus(f.right, t))
    if isinstance(f, Impl):
        return Or(DNeg(_fplus(f.left, t)), _fplus(f.right, t))
    if isinstance(f, DNeg):
        return DNeg(_fplus(f.child, t))
    if isinstance(f, XNeg):
        return XNeg(_fminus(f.child, t))
    raise TypeError(f"cannot reduce {type(f).__name__}")


def _fminus(f: Formula, t) -> Formula:
    if not _fals(t, t, f):
        return TOP
    if isinstance(f, (AtomRef, Bot)):
        return f
    if isinstance(f, And):
        return And(_fminus(f.left, t), _fminus(f.right, t))
    if isinstance(f, Or):
        return Or(_fminus(f.left, t), _fminus(f.right, t))
    if isinstance(f, Impl):
        return _fminus(f.right, t)
    if isinstance(f, DNeg):
        return BOT
    if isinstance(f, XNeg):
        return XNeg(_fplus(f.child, t))
    raise TypeError(f"cannot reduce {type(f).__name__}")
