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
  ``_ferraris_masks``, ``reduct._ferraris`` in mask form.
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
    postorder,
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

# the masks of one node: satisfied and falsified at h, then at t, for
# ``_nested_masks``; f+ satisfied, f- falsified, f satisfied and f falsified at
# (t, t), for ``_ferraris_masks``
Masks = Tuple[int, int, int, int]


def _nested_masks(chunk: Chunk, f: Formula) -> Tuple[int, int]:
    """The points (h, t) where h satisfies and where h falsifies the reduct
    ``f^t`` of a nested expression.  Each node carries those two masks and
    the points where t itself satisfies and falsifies it, which ``not G``
    reads."""
    full = chunk.full
    done: Dict[int, Masks] = {}
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            ge = chunk.atom_levels[g.atom]
            out = ge[3], full ^ ge[0], ge[2], full ^ ge[1]
        elif kind is And:
            (sa, fa, sta, fta), (sb, fb, stb, ftb) = done[id(g.left)], done[id(g.right)]
            out = sa & sb, fa | fb, sta & stb, fta | ftb
        elif kind is Or:
            (sa, fa, sta, fta), (sb, fb, stb, ftb) = done[id(g.left)], done[id(g.right)]
            out = sa | sb, fa & fb, sta | stb, fta & ftb
        elif kind is DNeg:
            # ``not G`` reduces to bot where t satisfies G, to top elsewhere
            sat_there = done[id(g.child)][2]
            out = full ^ sat_there, sat_there, full ^ sat_there, sat_there
        elif kind is XNeg:
            sa, fa, sta, fta = done[id(g.child)]
            out = fa, sa, fta, sta
        elif kind is Top:
            out = full, 0, full, 0
        elif kind is Bot:
            out = 0, full, 0, full
        else:
            raise NotNested(f"the reduct is only defined on nested expressions: {g!r}")
        done[id(g)] = out
    return done[id(f)][:2]


def _ferraris_masks(chunk: Chunk, f: Formula, done: Dict[int, Masks]) -> Masks:
    """The points (h, t) where h satisfies ``f+`` and where h falsifies
    ``f-``, the Ferraris reducts with respect to t, followed by the points
    where (t, t) satisfies and where it falsifies ``f``.  ``done`` holds the
    masks of the nodes folded so far in ``chunk``, by id, so a node shared
    inside a theory, as the operands of ``<->`` are, is folded once."""
    full = chunk.full
    for g in postorder((f,), done):
        kind = type(g)
        if kind is AtomRef:
            ge = chunk.atom_levels[g.atom]
            plus, minus, sat, fals = ge[3], full ^ ge[0], ge[2], full ^ ge[1]
        elif kind is And or kind is Or or kind is Impl:
            (pa, ma, sa, xa), (pb, mb, sb, xb) = done[id(g.left)], done[id(g.right)]
            if kind is And:
                plus, minus, sat, fals = pa & pb, ma | mb, sa & sb, xa | xb
            elif kind is Or:
                plus, minus, sat, fals = pa | pb, ma & mb, sa | sb, xa & xb
            else:
                plus, minus, sat, fals = (full ^ pa) | pb, mb, (full ^ sa) | sb, sa & xb
        elif kind is XNeg:
            p, m, s, x = done[id(g.child)]
            plus, minus, sat, fals = m, p, x, s
        elif kind is DNeg:
            p, _, s, _ = done[id(g.child)]
            plus, minus, sat, fals = full ^ p, full, full ^ s, s
        elif kind is Top:
            plus, minus, sat, fals = full, 0, full, 0
        elif kind is Bot:
            plus, minus, sat, fals = 0, full, 0, full
        else:
            raise TypeError(f"cannot reduce {kind.__name__}")
        # f+ is bot where (t, t) does not satisfy f, f- top where it does not falsify it
        done[id(g)] = plus & sat, minus & fals, sat, fals
    return done[id(f)]


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
    return answer_sets(p, opts)


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
        done: Dict[int, Masks] = {}
        return chunk.all(_ferraris_masks(chunk, f, done)[0] for f in theory)

    return _minimal(opts, gamma, relation)
