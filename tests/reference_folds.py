"""The evaluation folds that ``core.postorder`` replaced, kept verbatim as
the oracle their tests compare against: one recursive call per node, with a
memo by node id where the folds had one.

Only the packaging differs: the compiler of ``truthtable.Chunk`` sits on a
subclass, built from a real chunk with ``Chunk.of``, and the names the folds
read come from the modules that still define them.  The Ferraris reducts
``_fplus``/``_fminus`` are kept as they were before they read one fold of
(t, t): they call ``_sat``/``_fals`` at every node, here the recursive ones
above.
"""

from __future__ import annotations

from itertools import repeat
from operator import neg
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from eqlx import truthtable
from eqlx.core import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    Formula,
    Impl,
    NotNested,
    Or,
    Top,
    XNeg,
)
from eqlx.semantics import EvalMode, _impl5
from eqlx.truthtable import _NOWHERE, Levels, _implies

_LitSet = FrozenSet[ExplicitLiteral]

# the Ferraris masks of one formula: f+ satisfied, f- falsified, f satisfied
# and f falsified at (t, t)
Masks = Tuple[int, int, int, int]


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


class Chunk(truthtable.Chunk):
    """``truthtable.Chunk`` with its compiler as it was."""

    __slots__ = ()

    @classmethod
    def of(cls, chunk: truthtable.Chunk) -> "Chunk":
        return cls(chunk.full, chunk._fixed, chunk._inner, chunk.atom_levels)

    def levels(self, f: Formula) -> Levels:
        """The masks of ``value >= k`` for k = -1, 0, 1, 2."""
        return self._levels(f, {})

    def designated(self, f: Formula) -> int:
        """The points where ``f`` takes the value 2."""
        return self._levels(f, {})[3]

    def _levels(self, f: Formula, memo: Dict[int, Levels]) -> Levels:
        # the formula outlives the call, so the ids of its nodes stay unique
        hit = memo.get(id(f))
        if hit is None:
            hit = memo[id(f)] = self._compile(f, memo)
        return hit

    def _compile(self, f: Formula, memo: Dict[int, Levels]) -> Levels:
        full = self.full
        if isinstance(f, Top):
            return (full, full, full, full)
        if isinstance(f, Bot):
            return _NOWHERE
        if isinstance(f, AtomRef):
            return self.atom_levels[f.atom]
        if isinstance(f, XNeg):
            return tuple(full ^ x for x in reversed(self._levels(f.child, memo)))
        if isinstance(f, DNeg):
            return _implies(full, self._levels(f.child, memo), _NOWHERE)
        if isinstance(f, (And, Or, Impl)):
            left, right = self._levels(f.left, memo), self._levels(f.right, memo)
            if isinstance(f, And):
                return tuple(x & y for x, y in zip(left, right))
            if isinstance(f, Or):
                return tuple(x | y for x, y in zip(left, right))
            return _implies(full, left, right)
        raise TypeError(f"cannot evaluate {type(f).__name__}")


def _nested_masks(chunk: Chunk, f: Formula, at_there: bool = False) -> Tuple[int, int]:
    """The points (h, t) where h satisfies and where h falsifies the reduct
    ``f^t`` of a nested expression; with ``at_there``, where t itself
    satisfies and falsifies ``f``."""
    full = chunk.full
    if isinstance(f, Top):
        return full, 0
    if isinstance(f, Bot):
        return 0, full
    if isinstance(f, AtomRef):
        ge = chunk.atom_levels[f.atom]
        if at_there:
            return ge[2], full ^ ge[1]
        return ge[3], full ^ ge[0]
    if isinstance(f, DNeg):
        # ``not G`` reduces to bot where t satisfies G, to top elsewhere
        sat_there = _nested_masks(chunk, f.child, True)[0]
        return full ^ sat_there, sat_there
    if isinstance(f, XNeg):
        sat, fals = _nested_masks(chunk, f.child, at_there)
        return fals, sat
    if isinstance(f, (And, Or)):
        sat_a, fals_a = _nested_masks(chunk, f.left, at_there)
        sat_b, fals_b = _nested_masks(chunk, f.right, at_there)
        if isinstance(f, And):
            return sat_a & sat_b, fals_a | fals_b
        return sat_a | sat_b, fals_a & fals_b
    raise NotNested(f"the reduct is only defined on nested expressions: {f!r}")


def _ferraris_masks(chunk: Chunk, f: Formula,
                    memo: Dict[int, Masks]) -> Masks:
    """The points (h, t) where h satisfies ``f+`` and where h falsifies
    ``f-``, the Ferraris reducts with respect to t, followed by the points
    where (t, t) satisfies and where it falsifies ``f``.  ``memo`` holds the
    masks of the nodes folded so far in ``chunk``, by id, so a node shared
    inside a theory, as the operands of ``<->`` are, is folded once."""
    hit = memo.get(id(f))
    if hit is None:
        hit = memo[id(f)] = _ferraris_fold(chunk, f, memo)
    return hit


def _ferraris_fold(chunk: Chunk, f: Formula, memo: Dict[int, Masks]) -> Masks:
    full = chunk.full
    if isinstance(f, Top):
        plus, minus, sat, fals = full, 0, full, 0
    elif isinstance(f, Bot):
        plus, minus, sat, fals = 0, full, 0, full
    elif isinstance(f, AtomRef):
        ge = chunk.atom_levels[f.atom]
        plus, minus, sat, fals = ge[3], full ^ ge[0], ge[2], full ^ ge[1]
    elif isinstance(f, XNeg):
        p, m, s, x = _ferraris_masks(chunk, f.child, memo)
        plus, minus, sat, fals = m, p, x, s
    elif isinstance(f, DNeg):
        p, _, s, _ = _ferraris_masks(chunk, f.child, memo)
        plus, minus, sat, fals = full ^ p, full, full ^ s, s
    elif isinstance(f, (And, Or, Impl)):
        pa, ma, sa, xa = _ferraris_masks(chunk, f.left, memo)
        pb, mb, sb, xb = _ferraris_masks(chunk, f.right, memo)
        if isinstance(f, And):
            plus, minus, sat, fals = pa & pb, ma | mb, sa & sb, xa | xb
        elif isinstance(f, Or):
            plus, minus, sat, fals = pa | pb, ma & mb, sa | sb, xa & xb
        else:
            plus, minus, sat, fals = (full ^ pa) | pb, mb, (full ^ sa) | sb, sa & xb
    else:
        raise TypeError(f"cannot reduce {type(f).__name__}")
    # f+ is bot where (t, t) does not satisfy f, f- top where it does not falsify it
    return plus & sat, minus & fals, sat, fals


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
