"""Evaluation relations for nested expressions and arbitrary formulas.

Three independent routes are implemented on purpose:

* ``sat``/``fals`` — mutually recursive satisfaction and falsification of
  nested expressions on a single literal set;
* ``x5_sat``/``x5_fals`` — satisfaction and falsification of arbitrary
  formulas on a here/there pair;
* ``value5`` — the five-valued valuation, which is also the only place the
  N5 variant (Nelson-style strong negation) is defined.

The relations connecting the three routes are enforced by the test suite,
not by sharing code between them.  A fourth, deliberately defective mode
(``classical_sat``) reads ``~`` as plain non-satisfaction; it exists to
exhibit why that reading is unsuitable.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from operator import neg
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Union

from .core import (
    BOT,
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
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom) in t
    if isinstance(f, And):
        return _nsat(t, f.left) and _nsat(t, f.right)
    if isinstance(f, Or):
        return _nsat(t, f.left) or _nsat(t, f.right)
    if isinstance(f, XNeg):
        return _nfals(t, f.child)
    if isinstance(f, DNeg):
        return not _nsat(t, f.child)
    raise NotNested(f"sat is only defined on nested expressions: {f!r}")


def _nfals(t: _LitSet, f: Formula) -> bool:
    if isinstance(f, Top):
        return False
    if isinstance(f, Bot):
        return True
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom, negated=True) in t
    if isinstance(f, And):
        return _nfals(t, f.left) or _nfals(t, f.right)
    if isinstance(f, Or):
        return _nfals(t, f.left) and _nfals(t, f.right)
    if isinstance(f, XNeg):
        return _nsat(t, f.child)
    if isinstance(f, DNeg):
        return _nsat(t, f.child)
    raise NotNested(f"fals is only defined on nested expressions: {f!r}")


# ---------------------------------------------------------------------------
# Two-world satisfaction/falsification of arbitrary formulas


def x5_sat(m: X5Interpretation, phi: Formula) -> bool:
    return _sat(m.here.literals, m.there.literals, phi)


def x5_fals(m: X5Interpretation, phi: Formula) -> bool:
    return _fals(m.here.literals, m.there.literals, phi)


# ``_sat`` and ``_fals`` share one memo per top-level call: it holds the
# result for each compound node already evaluated, keyed by the node's id,
# by whether it was evaluated at the pair (h, t) or at (t, t) (that is,
# ``h is t``; ``DNeg`` and ``Impl`` switch to (t, t)), and by the relation.
# A subformula shared inside ``f``, as in ``iff(alpha, beta)``, is thus
# evaluated at most once per pair and relation; ``f`` outlives the call, so
# the ids stay unique.


def _sat(h: _LitSet, t: _LitSet, f: Formula, memo: Optional[dict] = None) -> bool:
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom) in h
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if memo is None:
        memo = {}
    key = (id(f), h is t, True)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(f, And):
        out = _sat(h, t, f.left, memo) and _sat(h, t, f.right, memo)
    elif isinstance(f, Or):
        out = _sat(h, t, f.left, memo) or _sat(h, t, f.right, memo)
    elif isinstance(f, XNeg):
        out = _fals(h, t, f.child, memo)
    elif isinstance(f, DNeg):
        # satisfied exactly when the there world never satisfies the child
        out = not _sat(t, t, f.child, memo)
    elif isinstance(f, Impl):
        out = (not _sat(h, t, f.left, memo)) or _sat(h, t, f.right, memo)
        if out and not (h is t or h == t):
            out = (not _sat(t, t, f.left, memo)) or _sat(t, t, f.right, memo)
    else:
        raise TypeError(f"cannot evaluate {type(f).__name__}")
    memo[key] = out
    return out


def _fals(h: _LitSet, t: _LitSet, f: Formula, memo: Optional[dict] = None) -> bool:
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom, negated=True) in h
    if isinstance(f, Top):
        return False
    if isinstance(f, Bot):
        return True
    if memo is None:
        memo = {}
    key = (id(f), h is t, False)
    out = memo.get(key)
    if out is not None:
        return out
    if isinstance(f, And):
        out = _fals(h, t, f.left, memo) or _fals(h, t, f.right, memo)
    elif isinstance(f, Or):
        out = _fals(h, t, f.left, memo) and _fals(h, t, f.right, memo)
    elif isinstance(f, XNeg):
        out = _sat(h, t, f.child, memo)
    elif isinstance(f, DNeg):
        out = _sat(t, t, f.child, memo)
    elif isinstance(f, Impl):
        out = _sat(t, t, f.left, memo) and _fals(h, t, f.right, memo)
    else:
        raise TypeError(f"cannot evaluate {type(f).__name__}")
    memo[key] = out
    return out


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
         mode: EvalMode, memo: Optional[Dict[int, Sequence[int]]] = None) -> Sequence[int]:
    """The values of ``f`` at ``width`` points, where ``column(a)`` gives the
    values of atom ``a`` at those points, in the same order.

    ``memo`` holds the values of the nodes already folded in this call, by
    id, so a subformula shared inside ``f``, as in ``iff(alpha, beta)``, is
    folded once; ``f`` outlives the call, so those ids stay unique."""
    if memo is None:
        memo = {}
    out = memo.get(id(f))
    if out is not None:
        return out
    if isinstance(f, Bot):
        out = (-2,) * width
    elif isinstance(f, Top):
        out = (2,) * width
    elif isinstance(f, AtomRef):
        out = column(f.atom)
    elif isinstance(f, And):
        out = list(map(min, _val(column, width, f.left, mode, memo),
                       _val(column, width, f.right, mode, memo)))
    elif isinstance(f, Or):
        out = list(map(max, _val(column, width, f.left, mode, memo),
                       _val(column, width, f.right, mode, memo)))
    elif isinstance(f, XNeg):
        out = list(map(neg, _val(column, width, f.child, mode, memo)))
    elif isinstance(f, DNeg):
        out = list(map(_impl5, _val(column, width, f.child, mode, memo),
                       repeat(-2), repeat(mode)))
    elif isinstance(f, Impl):
        out = list(map(_impl5, _val(column, width, f.left, mode, memo),
                       _val(column, width, f.right, mode, memo), repeat(mode)))
    else:
        raise TypeError(f"cannot evaluate {type(f).__name__}")
    memo[id(f)] = out
    return out


# ---------------------------------------------------------------------------
# Classical reading of the second negation (satisfaction only)


def classical_sat(m: X5Interpretation, phi: Formula) -> bool:
    """Here-and-there satisfaction with ``~`` read as non-satisfaction.

    No falsification relation exists under this reading, persistence fails,
    and ``not p -> ~p`` becomes a tautology; provided for comparison only.
    """
    return _csat(m.here.literals, m.there.literals, phi)


def _csat(h: _LitSet, t: _LitSet, f: Formula) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom) in h
    if isinstance(f, And):
        return _csat(h, t, f.left) and _csat(h, t, f.right)
    if isinstance(f, Or):
        return _csat(h, t, f.left) or _csat(h, t, f.right)
    if isinstance(f, XNeg):
        return not _csat(h, t, f.child)
    if isinstance(f, DNeg):
        return _csat_impl(h, t, f.child, BOT)
    if isinstance(f, Impl):
        return _csat_impl(h, t, f.left, f.right)
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def _csat_impl(h: _LitSet, t: _LitSet, left: Formula, right: Formula) -> bool:
    here_ok = (not _csat(h, t, left)) or _csat(h, t, right)
    there_ok = (not _csat(t, t, left)) or _csat(t, t, right)
    return here_ok and there_ok


# ---------------------------------------------------------------------------
# Models


def is_model(m: X5Interpretation, gamma: Union[Theory, Program]) -> bool:
    """Does ``m`` satisfy every member of the theory (rules as implications)?"""
    if isinstance(gamma, Program):
        gamma = gamma.as_theory()
    return all(_sat(m.here.literals, m.there.literals, f) for f in gamma)
