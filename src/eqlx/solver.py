"""Exhaustive enumeration engines for models, answer sets and equilibria.

Everything here is brute force by design: the search space is the 5^n
here/there points, and the point of the artifact is checkable correctness,
not scale.  ``truthtable`` owns that space: the signature and its guard
(``SolveOptions.space``), the point order and the reference enumerators,
which this module re-exports.

Each engine makes one bitsliced pass over those points
(``truthtable.minimal_totals``).  It builds a mask of the points (h, t) where
h satisfies the engine's own relation with respect to t; the scan folds each
strictly smaller point (h, t) onto its total point (t, t) and keeps the total
points in the mask that nothing was folded onto.  The three engines that
``solve`` compares keep independent relations, each also read at (t, t):

* ``answer_sets`` reads each rule of ``P^t``, the nested reduct, at h with
  ``_nested_masks``: atoms at h, ``not G`` classically at t, so ``P^t`` is
  never built;
* ``equilibrium_models`` reads the theory's designated masks, the compiled
  here-and-there satisfaction;
* ``equilibrium_models_ferraris`` reads the positive reduct at h with
  ``_ferraris_masks``, ``_fplus``/``_fminus`` in mask form.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from .core import (
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
    Theory,
    Top,
    XNeg,
    is_explicit,
)
from .reduct import (  # noqa: F401  bench/tracing.py wraps these module bindings
    ferraris_theory,
    reduct_program,
)
from .truthtable import (
    DEFAULT_MAX_ATOMS,
    Chunk,
    SignatureTooLarge,
    SolveOptions,
    enumerate_interpretations,
    enumerate_x5,
    minimal_totals,
)

__all__ = [
    "DEFAULT_MAX_ATOMS",
    "SignatureTooLarge",
    "InternalInconsistency",
    "NotExplicit",
    "SolveOptions",
    "enumerate_interpretations",
    "enumerate_x5",
    "minimal_models_explicit",
    "answer_sets",
    "equilibrium_models",
    "equilibrium_models_ferraris",
]


class InternalInconsistency(RuntimeError):
    """Two routes that must agree did not: an engine, a truth table or a
    self-check is wrong.  The command line reports it with exit code 4."""


class NotExplicit(ValueError):
    """A program containing default negation was passed where an explicit one is required."""


# ---------------------------------------------------------------------------
# Relations in mask form, point by point over a chunk

# the Ferraris masks of one formula: f+ satisfied, f- falsified, f satisfied
# and f falsified at (t, t)
Masks = Tuple[int, int, int, int]


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


def _rules_hold(chunk: Chunk, p: Program) -> int:
    """The points (h, t) where h satisfies every rule of ``p^t``."""
    def holds(r) -> int:
        return (chunk.full ^ _nested_masks(chunk, r.body)[0]) | _nested_masks(chunk, r.head)[0]

    return chunk.all(map(holds, p))


# ---------------------------------------------------------------------------
# Engines


def _minimal(opts: Optional[SolveOptions], gamma,
             relation: Callable[[Chunk], int]) -> List[Interpretation]:
    return minimal_totals((opts or SolveOptions()).space(gamma), relation)


def _theory(gamma: Union[Theory, Program]) -> Theory:
    return gamma.as_theory() if isinstance(gamma, Program) else gamma


def minimal_models_explicit(p: Program, opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """Inclusion-minimal models of an explicit program."""
    if not is_explicit(p):
        raise NotExplicit("minimal_models_explicit requires a program without default negation")
    # without default negation the reduct is the program itself
    return _minimal(opts, p, lambda chunk: _rules_hold(chunk, p))


def answer_sets(p: Program, opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """All literal sets that are minimal models of their own reduct."""
    return _minimal(opts, p, lambda chunk: _rules_hold(chunk, p))


def equilibrium_models(gamma: Union[Theory, Program],
                       opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """Total models admitting no strictly smaller here world."""
    theory = _theory(gamma)
    return _minimal(opts, gamma, lambda chunk: chunk.all(map(chunk.designated, theory)))


def equilibrium_models_ferraris(gamma: Union[Theory, Program],
                                opts: Optional[SolveOptions] = None) -> List[Interpretation]:
    """Equilibrium models computed as minimal models of the positive reduct."""
    theory = _theory(gamma)

    def relation(chunk: Chunk) -> int:
        memo: Dict[int, Masks] = {}
        return chunk.all(_ferraris_masks(chunk, f, memo)[0] for f in theory)

    return _minimal(opts, gamma, relation)
