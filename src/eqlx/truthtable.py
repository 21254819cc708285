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

``minimal_totals`` is the model scan the solver's engines share.  An engine
gives a mask of the points (h, t) where h satisfies its relation with
respect to t; the scan keeps the total points (t, t) in the mask that no
point (h, t) with h a strict subset of t is in.  Folding moves every
strictly smaller point onto its total point: for each atom, the bits where
its value is 1 or -1 (here lacks the literal that there has) are ORed into
the bits where it is 2 or -2.  The total points in ascending bit order are
the ``enumerate_interpretations`` order.

This module owns the space.  ``SolveOptions.space`` is the one place that
turns inputs into a signature: their atoms plus the extra ones, sorted, and
refused above the guard.  The scans take the ``_Space`` it returns, and the
reference enumerators ``enumerate_interpretations`` and ``enumerate_x5`` walk
the same per-atom state order point by point.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    Formula,
    Impl,
    Interpretation,
    Or,
    Top,
    X5Interpretation,
    XNeg,
    _Frozen,
    atoms,
    postorder,
)

__all__ = [
    "DEFAULT_MAX_ATOMS",
    "SignatureTooLarge",
    "SolveOptions",
    "Chunk",
    "chunks",
    "enumerate_interpretations",
    "enumerate_x5",
    "first_point",
    "minimal_totals",
]

DEFAULT_MAX_ATOMS = 12


class SignatureTooLarge(ValueError):
    """Enumeration over this many atoms was refused; raise the guard to force it."""


# Per-atom states in enumeration order: absent < positive < negative.
_TRI_STATES = (0, 1, -1)

# Five-valued per-atom states in enumeration order; on the total states
# (0, 2, -2) it is ``_TRI_STATES`` scaled by two.
_FIVE_STATES = (0, 1, 2, -1, -2)


def _guarded(signature: Iterable[Atom], max_atoms: int) -> List[Atom]:
    ordered = sorted(set(signature))
    if len(ordered) > max_atoms:
        raise SignatureTooLarge(
            f"signature has {len(ordered)} atoms, guard allows {max_atoms}")
    return ordered


class SolveOptions(_Frozen):
    """Knobs shared by all enumeration entry points.

    ``signature`` extends the atoms found in the input (it never shrinks
    them); any iterable of atoms is stored as a frozenset.
    """

    __slots__ = _fields = ("signature", "max_atoms")
    signature: Optional[frozenset]
    max_atoms: int

    def __init__(self, signature: Optional[Iterable[Atom]] = None,
                 max_atoms: int = DEFAULT_MAX_ATOMS) -> None:
        self._store(None if signature is None else frozenset(signature), max_atoms)

    def space(self, *inputs) -> "_Space":
        """The space over the atoms of ``inputs`` plus the extra atoms, sorted;
        ``SignatureTooLarge`` when there are more than ``max_atoms``."""
        sig = set(self.signature or ())
        for x in inputs:
            sig |= atoms(x)
        return _Space(_guarded(sig, self.max_atoms))


def enumerate_interpretations(signature: Iterable[Atom],
                              max_atoms: int = DEFAULT_MAX_ATOMS) -> Iterator[Interpretation]:
    """All 3^n consistent literal sets over the signature, in a fixed order."""
    ordered = _guarded(signature, max_atoms)
    for states in itertools.product(_TRI_STATES, repeat=len(ordered)):
        lits = [ExplicitLiteral(a, negated=s < 0)
                for a, s in zip(ordered, states) if s != 0]
        yield Interpretation(lits)


def enumerate_x5(signature: Iterable[Atom],
                 max_atoms: int = DEFAULT_MAX_ATOMS) -> Iterator[X5Interpretation]:
    """All 5^n here/there pairs over the signature, in a fixed order."""
    ordered = _guarded(signature, max_atoms)
    for states in itertools.product(_FIVE_STATES, repeat=len(ordered)):
        yield X5Interpretation.from_values(dict(zip(ordered, states)))


# Atoms that vary inside one chunk: 5^7 = 78125 points.
_CHUNK_ATOMS = 7

# The thresholds k of the four masks "value >= k", in tuple order.
_LEVELS = (-1, 0, 1, 2)

Levels = Tuple[int, int, int, int]

_NOWHERE: Levels = (0, 0, 0, 0)


# Cached: the keys are (5^j, 5^n) for 0 <= j < n <= _CHUNK_ATOMS, so at most
# 28 of them, whose masks take about 0.3 MB together.
@functools.cache
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
    """One block of consecutive points, with the masks of every atom on it.

    ``levels`` is one loop over ``core.postorder`` that keeps the masks of
    each node in a dict by node id for the length of the call, so a subterm
    shared inside the formula, as in ``iff(alpha, beta)``, is compiled once,
    a chain of any length needs no recursion, and no mask outlives the
    call."""

    __slots__ = ("full", "_fixed", "_inner", "atom_levels")

    def __init__(self, full: int, fixed: Dict[Atom, int], inner: List[Atom],
                 atom_levels: Dict[Atom, Levels]):
        self.full = full
        self._fixed = fixed
        self._inner = inner
        self.atom_levels = atom_levels

    def levels(self, f: Formula) -> Levels:
        """The masks of ``value >= k`` for k = -1, 0, 1, 2."""
        full = self.full
        done: Dict[int, Levels] = {}
        for g in postorder((f,), done):
            kind = type(g)
            if kind is AtomRef:
                out = self.atom_levels[g.atom]
            elif kind is And:
                out = tuple(x & y for x, y in zip(done[id(g.left)], done[id(g.right)]))
            elif kind is Or:
                out = tuple(x | y for x, y in zip(done[id(g.left)], done[id(g.right)]))
            elif kind is Impl:
                out = _implies(full, done[id(g.left)], done[id(g.right)])
            elif kind is XNeg:
                out = tuple(full ^ x for x in reversed(done[id(g.child)]))
            elif kind is DNeg:
                out = _implies(full, done[id(g.child)], _NOWHERE)
            elif kind is Top:
                out = (full, full, full, full)
            elif kind is Bot:
                out = _NOWHERE
            else:
                raise TypeError(f"cannot evaluate {kind.__name__}")
            done[id(g)] = out
        return done[id(f)]

    def designated(self, f: Formula) -> int:
        """The points where ``f`` takes the value 2."""
        return self.levels(f)[3]

    def all(self, masks: Iterable[int]) -> int:
        """The AND of ``masks``; the rest are not built once it is empty."""
        bits = self.full
        for mask in masks:
            bits &= mask
            if not bits:
                break
        return bits

    def values(self, bit: int) -> Dict[Atom, int]:
        """The five-valued assignment at one bit of this chunk."""
        values = dict(self._fixed)
        for a in reversed(self._inner):
            bit, digit = divmod(bit, 5)
            values[a] = _FIVE_STATES[digit]
        return values

    def point(self, bit: int) -> X5Interpretation:
        """The interpretation at one bit of this chunk."""
        return X5Interpretation.from_values(self.values(bit))


class _Space:
    """The 5^n points over a guarded signature, ``atoms`` in sorted order:
    the leading atoms fix a chunk, the last ``_CHUNK_ATOMS`` vary inside it."""

    def __init__(self, ordered: List[Atom]):
        self.atoms = ordered
        split = max(0, len(ordered) - _CHUNK_ATOMS)
        self.lead, self.inner = ordered[:split], ordered[split:]
        size = 5 ** len(self.inner)
        self.full = (1 << size) - 1
        self.strides = [5 ** j for j in reversed(range(len(self.inner)))]
        self.inner_levels = {a: _atom_levels(stride, size)
                             for a, stride in zip(self.inner, self.strides)}

    def chunk(self, states: Sequence[int]) -> Chunk:
        """The chunk whose leading atoms take ``states``."""
        full = self.full
        atom_levels = dict(self.inner_levels)
        for a, v in zip(self.lead, states):
            atom_levels[a] = tuple(full if v >= k else 0 for k in _LEVELS)
        return Chunk(full, dict(zip(self.lead, states)), self.inner, atom_levels)


def chunks(space: _Space) -> Iterator[Chunk]:
    """The 5^n points of the space as chunks, in ``enumerate_x5`` order."""
    for states in itertools.product(_FIVE_STATES, repeat=len(space.lead)):
        yield space.chunk(states)


def first_point(space: _Space, hits: Callable[[Chunk], int]) -> Optional[X5Interpretation]:
    """The first point, in ``enumerate_x5`` order, in the mask ``hits`` builds
    for each chunk; None when every mask is empty."""
    for chunk in chunks(space):
        bits = hits(chunk)
        if bits:
            return chunk.point((bits & -bits).bit_length() - 1)
    return None


def minimal_totals(space: _Space, relation: Callable[[Chunk], int]) -> List[Interpretation]:
    """The there-worlds t, in ``enumerate_interpretations`` order, whose total
    point (t, t) is in the mask ``relation`` builds for each chunk while no
    point (h, t) with h a strict subset of t is.

    For each leading there-state, the chunk whose leading atoms are total
    comes first; each of its strictly smaller leading variants then removes
    its folded mask from the candidates, until none is left.
    """
    total = space.full
    lowered = []  # (stride, points where the atom's value is 1 or -1)
    for a, stride in zip(space.inner, space.strides):
        ge = space.inner_levels[a]
        below = (ge[0] ^ ge[1]) | (ge[2] ^ ge[3])
        total &= ~below
        lowered.append((stride, below))

    def fold(mask: int) -> int:
        for stride, below in lowered:
            mask |= (mask & below) << stride
        return mask

    literal = {(a, v): ExplicitLiteral(a, negated=v < 0)
               for a in space.atoms for v in (2, -2)}
    found = []
    for there in itertools.product(_TRI_STATES, repeat=len(space.lead)):
        chunk = space.chunk([2 * v for v in there])
        sat = relation(chunk)
        candidates = sat & total & ~fold(sat & ~total)
        smaller = itertools.product(*[(2 * v, v) if v else (0,) for v in there])
        next(smaller)  # the total variant, already read
        for states in smaller:
            if not candidates:
                break
            candidates &= ~fold(relation(space.chunk(states)))
        while candidates:
            low = candidates & -candidates
            values = chunk.values(low.bit_length() - 1).items()
            found.append(Interpretation(literal[a, v] for a, v in values if v))
            candidates ^= low
    return found
