"""Bitsliced five-valued truth tables: the fast route for validity and equivalence.

The five-valued semantics is truth-functional, so a formula can be evaluated
at every point of the 5^n here/there space at once.  A point is one bit of a
Python ``int``, and a formula compiles to four masks: the points where its
value is at least -1, 0, 1 and 2 (every value is at least -2).  Conjunction
and disjunction are bitwise AND and OR, explicit negation complements the
mirrored level (-a >= k exactly when not a >= 1-k), and implication and
default negation are ``semantics._impl5`` in mask form.  This is the
encoding of here-and-there of Pearce, Tompits and Woltran, "Encodings for
equilibrium logic and logic programs with nested expressions" (2001), with
five states per atom.  Only the X5 reading is compiled.

Points are numbered in ``enumerate_x5`` order, so the lowest set bit of a
mask is the first such point the reference enumeration would reach.  The
space is walked in chunks of at most 5^7 points, in that order: a chunk
fixes the leading atoms, whose masks are then all ones or all zeros, and
lets the last seven vary.  Memory stays near 10 KB per mask, and a search
stops at the first chunk that has a hit.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .core import (
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    Formula,
    Impl,
    Or,
    Top,
    X5Interpretation,
    XNeg,
)
from .solver import _FIVE_STATES, _guarded

__all__ = ["Chunk", "chunks", "first_point"]

# Atoms that vary inside one chunk: 5^7 = 78125 points.
_CHUNK_ATOMS = 7

# The thresholds k of the four masks "value >= k", in tuple order.
_LEVELS = (-1, 0, 1, 2)

Levels = Tuple[int, int, int, int]

_NOWHERE: Levels = (0, 0, 0, 0)


def _atom_levels(stride: int, size: int) -> Levels:
    """Masks of an atom whose state index is digit ``(point // stride) % 5``."""
    block = (1 << stride) - 1
    out = []
    for k in _LEVELS:
        pattern = 0
        for digit, v in enumerate(_FIVE_STATES):
            if v >= k:
                pattern |= block << (digit * stride)
        period = 5 * stride
        while period < size:
            pattern |= pattern << period
            period *= 2
        out.append(pattern & ((1 << size) - 1))
    return tuple(out)


def _implies(full: int, a: Levels, b: Levels) -> Levels:
    """``_impl5`` pointwise: 2 where a <= max(b, 0), otherwise b."""
    exceeds = 0
    for x, y in zip(a, b):
        exceeds |= x & ~y
    cond = (full ^ a[2]) | (full ^ exceeds)
    return tuple(cond | y for y in b)


class Chunk:
    """One block of consecutive points, with the masks of every atom on it."""

    __slots__ = ("full", "_fixed", "_inner", "_atoms", "_memo")

    def __init__(self, full: int, fixed: Dict[Atom, int], inner: List[Atom],
                 atom_levels: Dict[Atom, Levels]):
        self.full = full
        self._fixed = fixed
        self._inner = inner
        self._atoms = atom_levels
        self._memo: Dict[int, tuple] = {}

    def levels(self, f: Formula) -> Levels:
        """The masks of ``value >= k`` for k = -1, 0, 1, 2."""
        hit = self._memo.get(id(f))
        if hit is None:
            # the node is stored with its masks so that its id stays unique
            hit = self._memo[id(f)] = (f, self._compile(f))
        return hit[1]

    def designated(self, f: Formula) -> int:
        """The points where ``f`` takes the value 2."""
        return self.levels(f)[3]

    def _compile(self, f: Formula) -> Levels:
        full = self.full
        if isinstance(f, Top):
            return (full, full, full, full)
        if isinstance(f, Bot):
            return _NOWHERE
        if isinstance(f, AtomRef):
            return self._atoms[f.atom]
        if isinstance(f, And):
            return tuple(x & y for x, y in zip(self.levels(f.left), self.levels(f.right)))
        if isinstance(f, Or):
            return tuple(x | y for x, y in zip(self.levels(f.left), self.levels(f.right)))
        if isinstance(f, XNeg):
            return tuple(full ^ x for x in reversed(self.levels(f.child)))
        if isinstance(f, DNeg):
            return _implies(full, self.levels(f.child), _NOWHERE)
        if isinstance(f, Impl):
            return _implies(full, self.levels(f.left), self.levels(f.right))
        raise TypeError(f"cannot evaluate {type(f).__name__}")

    def point(self, bit: int) -> X5Interpretation:
        """The interpretation at one bit of this chunk."""
        values = dict(self._fixed)
        for a in reversed(self._inner):
            bit, digit = divmod(bit, 5)
            values[a] = _FIVE_STATES[digit]
        return X5Interpretation.from_values(values)


def chunks(signature: Iterable[Atom], max_atoms: int) -> Iterator[Chunk]:
    """The 5^n points over the signature as chunks, in ``enumerate_x5`` order."""
    ordered = _guarded(signature, max_atoms)
    split = max(0, len(ordered) - _CHUNK_ATOMS)
    lead, inner = ordered[:split], ordered[split:]
    size = 5 ** len(inner)
    full = (1 << size) - 1
    inner_levels = {a: _atom_levels(5 ** (len(inner) - 1 - j), size)
                    for j, a in enumerate(inner)}
    for states in itertools.product(_FIVE_STATES, repeat=len(lead)):
        atom_levels = dict(inner_levels)
        for a, v in zip(lead, states):
            atom_levels[a] = tuple(full if v >= k else 0 for k in _LEVELS)
        yield Chunk(full, dict(zip(lead, states)), inner, atom_levels)


def first_point(signature: Iterable[Atom], max_atoms: int,
                hits: Callable[[Chunk], int]) -> Optional[X5Interpretation]:
    """The first point, in ``enumerate_x5`` order, in the mask ``hits`` builds
    for each chunk; None when every mask is empty."""
    for chunk in chunks(signature, max_atoms):
        bits = hits(chunk)
        if bits:
            return chunk.point((bits & -bits).bit_length() - 1)
    return None
