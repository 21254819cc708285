"""Evaluation relations for nested expressions and arbitrary formulas.

Three independent routes are implemented on purpose:

* ``sat``/``fals`` — satisfaction and falsification of nested expressions
  on a single literal set;
* ``x5_sat``/``x5_fals`` — satisfaction and falsification of arbitrary
  formulas on a here/there pair;
* ``value5`` — the five-valued valuation, which is also the only place the
  N5 variant (Nelson-style strong negation) is defined.

The relations connecting the three routes are enforced by the test suite,
not by sharing code between them.  Only the walk is shared: each relation is
one loop over ``core.postorder`` that keeps what it computes for every node
in a dict by node id, so a subformula shared inside a formula, as in
``iff(alpha, beta)``, is evaluated once, and a chain of any length needs no
recursion.  Falsifying a formula is satisfying its explicit negation, so
``fals`` reads the fold for ``~f``.  A fourth, deliberately defective mode
(``classical_sat``) reads ``~`` as plain non-satisfaction; it exists to
exhibit why that reading is unsuitable.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import neg
from typing import Callable, Dict, FrozenSet, Sequence, Tuple, Union

from .core import (
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    FiveValue,
    Formula,
    Impl,
    Interpretation,
    NotNested,
    Or,
    Program,
    Theory,
    Top,
    X5Interpretation,
    XNeg,
    is_nested,
    postorder,
)

__all__ = [
    "EvalMode",
    "sat",
    "fals",
    "x5_sat",
    "x5_fals",
    "value5",
    "classical_sat",
    "is_model",
]

_LitSet = FrozenSet[ExplicitLiteral]


class EvalMode(Enum):
    X5 = "x5"
    N5 = "n5"
    CLASSICAL = "classical"


# ---------------------------------------------------------------------------
# Single-world satisfaction/falsification of nested expressions


def sat(t: Interpretation, f: Formula) -> bool:
    """Does the literal set satisfy the nested expression?"""
    if not is_nested(f):
        raise NotNested(f"sat is only defined on nested expressions: {f!r}")
    return _nsat(t.literals, f)


def fals(t: Interpretation, f: Formula) -> bool:
    """Does the literal set falsify the nested expression?"""
    if not is_nested(f):
        raise NotNested(f"fals is only defined on nested expressions: {f!r}")
    return _nfals(t.literals, f)


def _nsat(t: _LitSet, f: Formula) -> bool:
    """Whether ``t`` satisfies ``f``: one fold of the pair (satisfied,
    falsified) over its nodes, which ``~`` swaps."""
    done: Dict[int, Tuple[bool, bool]] = {}
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            out = ExplicitLiteral(g.atom) in t, ExplicitLiteral(g.atom, negated=True) in t
        elif kind is And:
            (sa, fa), (sb, fb) = done[id(g.left)], done[id(g.right)]
            out = sa and sb, fa or fb
        elif kind is Or:
            (sa, fa), (sb, fb) = done[id(g.left)], done[id(g.right)]
            out = sa or sb, fa and fb
        elif kind is XNeg:
            sa, fa = done[id(g.child)]
            out = fa, sa
        elif kind is DNeg:
            sa = done[id(g.child)][0]
            out = not sa, sa
        elif kind is Top:
            out = True, False
        elif kind is Bot:
            out = False, True
        else:
            raise NotNested(f"sat is only defined on nested expressions: {g!r}")
        done[id(g)] = out
    return done[id(f)][0]


def _nfals(t: _LitSet, f: Formula) -> bool:
    # falsifying f is satisfying ~f
    return _nsat(t, XNeg(f))


# ---------------------------------------------------------------------------
# Two-world satisfaction/falsification of arbitrary formulas


def x5_sat(m: X5Interpretation, phi: Formula) -> bool:
    return _sat(m.here.literals, m.there.literals, phi)


def x5_fals(m: X5Interpretation, phi: Formula) -> bool:
    return _fals(m.here.literals, m.there.literals, phi)


def _sat(h: _LitSet, t: _LitSet, f: Formula) -> bool:
    """Whether (h, t) satisfies ``f``: one fold of four booleans over its
    nodes, whether (h, t) satisfies and whether it falsifies the node, then
    the same at (t, t), which ``not`` and ``->`` read."""
    done: Dict[int, Tuple[bool, bool, bool, bool]] = {}
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            lit, neg_lit = ExplicitLiteral(g.atom), ExplicitLiteral(g.atom, negated=True)
            out = lit in h, neg_lit in h, lit in t, neg_lit in t
        elif kind is And:
            (sa, fa, sta, fta), (sb, fb, stb, ftb) = done[id(g.left)], done[id(g.right)]
            out = sa and sb, fa or fb, sta and stb, fta or ftb
        elif kind is Or:
            (sa, fa, sta, fta), (sb, fb, stb, ftb) = done[id(g.left)], done[id(g.right)]
            out = sa or sb, fa and fb, sta or stb, fta and ftb
        elif kind is XNeg:
            sa, fa, sta, fta = done[id(g.child)]
            out = fa, sa, fta, sta
        elif kind is DNeg:
            # satisfied exactly when the there world never satisfies the child
            sta = done[id(g.child)][2]
            out = not sta, sta, not sta, sta
        elif kind is Impl:
            (sa, _, sta, _), (sb, fb, stb, ftb) = done[id(g.left)], done[id(g.right)]
            there = (not sta) or stb
            out = ((not sa) or sb) and there, sta and fb, there, sta and ftb
        elif kind is Top:
            out = True, False, True, False
        elif kind is Bot:
            out = False, True, False, True
        else:
            raise TypeError(f"cannot evaluate {kind.__name__}")
        done[id(g)] = out
    return done[id(f)][0]


def _fals(h: _LitSet, t: _LitSet, f: Formula) -> bool:
    # falsifying f is satisfying ~f
    return _sat(h, t, XNeg(f))


# ---------------------------------------------------------------------------
# Five-valued valuation (X5 and N5 modes)


def value5(m: X5Interpretation, phi: Formula, mode: EvalMode = EvalMode.X5) -> FiveValue:
    """Fold the five-valued tables over ``phi`` at one interpretation.

    Atoms read 2/-2 when proved here, 1/-1 when only the there world commits,
    0 otherwise.  Conjunction is min, disjunction max, explicit negation sign
    flip.  The single table cell distinguishing N5 from X5 lives in
    ``_impl5``; default negation is evaluated as ``child -> bot`` so it picks
    up the mode automatically.  This is the one-point case of ``_val``, which
    folds the same cells over a column of points at once.
    """
    if mode not in (EvalMode.X5, EvalMode.N5):
        raise ValueError(f"value5 is defined for X5 and N5 modes, not {mode}")
    return FiveValue(_val(lambda a: (m.value_of(a),), 1, phi, mode)[0])


def _impl5(a: int, b: int, mode: EvalMode) -> int:
    if a <= max(b, 0):
        return 2
    if mode is EvalMode.N5 and a == 1 and b == -2:
        return -1
    return b


def _val(column: Callable[[Atom], Sequence[int]], width: int, f: Formula,
         mode: EvalMode) -> Sequence[int]:
    """The values of ``f`` at ``width`` points, where ``column(a)`` gives the
    values of atom ``a`` at those points, in the same order."""
    done: Dict[int, Sequence[int]] = {}
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            out = column(g.atom)
        elif kind is And:
            out = list(map(min, done[id(g.left)], done[id(g.right)]))
        elif kind is Or:
            out = list(map(max, done[id(g.left)], done[id(g.right)]))
        elif kind is XNeg:
            out = list(map(neg, done[id(g.child)]))
        elif kind is DNeg:
            out = list(map(_impl5, done[id(g.child)], repeat(-2), repeat(mode)))
        elif kind is Impl:
            out = list(map(_impl5, done[id(g.left)], done[id(g.right)], repeat(mode)))
        elif kind is Bot:
            out = (-2,) * width
        elif kind is Top:
            out = (2,) * width
        else:
            raise TypeError(f"cannot evaluate {kind.__name__}")
        done[id(g)] = out
    return done[id(f)]


# ---------------------------------------------------------------------------
# Classical reading of the second negation (satisfaction only)


def classical_sat(m: X5Interpretation, phi: Formula) -> bool:
    """Here-and-there satisfaction with ``~`` read as non-satisfaction.

    No falsification relation exists under this reading, persistence fails,
    and ``not p -> ~p`` becomes a tautology; provided for comparison only.
    """
    return _csat(m.here.literals, m.there.literals, phi)[0]


def _csat(h: _LitSet, t: _LitSet, f: Formula) -> Tuple[bool, bool]:
    """Whether (h, t) and whether (t, t) satisfy ``f`` classically: one fold
    of that pair over its nodes."""
    done: Dict[int, Tuple[bool, bool]] = {}
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            lit = ExplicitLiteral(g.atom)
            out = lit in h, lit in t
        elif kind is And:
            (ha, ta), (hb, tb) = done[id(g.left)], done[id(g.right)]
            out = ha and hb, ta and tb
        elif kind is Or:
            (ha, ta), (hb, tb) = done[id(g.left)], done[id(g.right)]
            out = ha or hb, ta or tb
        elif kind is XNeg:
            ha, ta = done[id(g.child)]
            out = not ha, not ta
        elif kind is DNeg:  # child -> bot
            ha, ta = done[id(g.child)]
            out = not ha and not ta, not ta
        elif kind is Impl:
            (ha, ta), (hb, tb) = done[id(g.left)], done[id(g.right)]
            there = (not ta) or tb
            out = ((not ha) or hb) and there, there
        elif kind is Top:
            out = True, True
        elif kind is Bot:
            out = False, False
        else:
            raise TypeError(f"cannot evaluate {kind.__name__}")
        done[id(g)] = out
    return done[id(f)]


# ---------------------------------------------------------------------------
# Models


def is_model(m: X5Interpretation, gamma: Union[Theory, Program]) -> bool:
    """Does ``m`` satisfy every member of the theory (rules as implications)?"""
    if isinstance(gamma, Program):
        gamma = gamma.as_theory()
    return all(_sat(m.here.literals, m.there.literals, f) for f in gamma)
