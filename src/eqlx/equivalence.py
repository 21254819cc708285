"""Validity, the three equivalence notions, and discriminating contexts.

Weak equivalence (designated double implication) coincides with strong
equivalence at the theory level; substitution equivalence (equal five-valued
values everywhere) is the congruence that survives arbitrary contexts,
including under explicit negation.  When two formulas are not weakly
equivalent, a small theory can be synthesised that makes their equilibrium
models differ; the construction is verified against the solver before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from .core import (
    TOP,
    Formula,
    Impl,
    Theory,
    X5Interpretation,
    iff,
)
from .semantics import value5, x5_sat
from .solver import SolveOptions, _effective_signature, enumerate_x5, equilibrium_models

__all__ = [
    "EquivVerdict",
    "EquivalentFormulas",
    "PreconditionViolated",
    "is_valid",
    "weak_equiv",
    "subst_equiv",
    "discriminating_context",
    "theory_replace_check",
]


class EquivalentFormulas(ValueError):
    """discriminating_context was called on weakly equivalent formulas."""


class PreconditionViolated(ValueError):
    """A caller-supplied precondition does not actually hold."""


@dataclass(frozen=True)
class EquivVerdict:
    """Outcome of a validity or equivalence check.

    ``witness`` is the first counter-model in canonical enumeration order and
    is present exactly when ``equivalent`` is false.  ``context`` carries a
    discriminating theory when one was synthesised, ``satisfied_side``
    records which argument the witness satisfies (``"left"`` or ``"right"``),
    and ``context_models`` holds two tuples: the equilibrium models of that
    theory extended by the left formula, then by the right one.
    """

    equivalent: bool
    witness: Optional[X5Interpretation] = None
    context: Optional[Theory] = None
    satisfied_side: Optional[str] = None
    context_models: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.equivalent and self.witness is not None:
            raise ValueError("a verdict cannot be positive and carry a witness")
        if not self.equivalent and self.witness is None:
            raise ValueError("a negative verdict requires a witness")


def _scan(opts: Optional[SolveOptions], holds: Callable[[X5Interpretation], bool],
          *inputs) -> EquivVerdict:
    """Negative with the first interpretation, in ``enumerate_x5`` order over
    the inputs' signature, at which ``holds`` fails; positive if there is none."""
    opts = opts or SolveOptions()
    sig = _effective_signature(opts, *inputs)
    witness = next((m for m in enumerate_x5(sig, opts.max_atoms) if not holds(m)), None)
    return EquivVerdict(witness is None, witness=witness)


def is_valid(phi: Formula, opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Is ``phi`` designated at every interpretation over its own atoms?

    Truth-functionality of the five-valued semantics makes the formula's own
    atoms a sufficient signature.
    """
    return _scan(opts, lambda m: value5(m, phi).designated, phi)


def weak_equiv(alpha: Formula, beta: Formula,
               opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Validity of the double implication; decides theory-level strong equivalence."""
    target = iff(alpha, beta)
    return _scan(opts, lambda m: value5(m, target).designated, alpha, beta)


def subst_equiv(alpha: Formula, beta: Formula,
                opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Equality of five-valued values everywhere; the context-proof congruence."""
    return _scan(opts, lambda m: value5(m, alpha) == value5(m, beta), alpha, beta)


def discriminating_context(alpha: Formula, beta: Formula,
                           opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Synthesise a theory on which the two formulas disagree in equilibrium.

    Searches the canonical enumeration for a model of one formula that is not
    a model of the other (preferring one that satisfies ``alpha``), then
    builds the discriminating theory from its here/there worlds: when the
    total world already refutes the other formula the theory is simply the
    there world as facts; otherwise it is the here world as facts plus all
    implications between literals that the there world adds.  The verdict is
    only returned after the solver confirms that the equilibrium models of
    the two extended theories differ; it carries those models, left first.
    """
    opts = opts or SolveOptions()
    sig = _effective_signature(opts, alpha, beta)

    first_left = None
    first_right = None
    for m in enumerate_x5(sig, opts.max_atoms):
        sat_a = x5_sat(m, alpha)
        sat_b = x5_sat(m, beta)
        if sat_a and not sat_b and first_left is None:
            first_left = m
        if sat_b and not sat_a and first_right is None:
            first_right = m
        if first_left is not None:
            break
    if first_left is not None:
        witness, satisfied, other, side = first_left, alpha, beta, "left"
    elif first_right is not None:
        witness, satisfied, other, side = first_right, beta, alpha, "right"
    else:
        raise EquivalentFormulas(
            "cannot build a discriminating context for weakly equivalent formulas")

    here, there = witness.here, witness.there
    total = X5Interpretation(there, there)
    delta_formulas: List[Formula] = []
    if not x5_sat(total, other):
        delta_formulas.extend(Impl(TOP, l.as_formula()) for l in there)
    else:
        delta_formulas.extend(Impl(TOP, l.as_formula()) for l in here)
        gap = sorted(there.literals - here.literals)
        delta_formulas.extend(Impl(l1.as_formula(), l2.as_formula())
                              for l1 in gap for l2 in gap)
    delta = Theory(delta_formulas)

    check_opts = SolveOptions(signature=sig, max_atoms=opts.max_atoms)
    with_sat = tuple(equilibrium_models(Theory(list(delta) + [satisfied]), check_opts))
    with_other = tuple(equilibrium_models(Theory(list(delta) + [other]), check_opts))
    if with_sat == with_other:
        raise RuntimeError(
            "discriminating context failed verification; this indicates a solver bug")
    models = (with_sat, with_other) if side == "left" else (with_other, with_sat)
    return EquivVerdict(False, witness=witness, context=delta, satisfied_side=side,
                        context_models=models)


def theory_replace_check(gamma: Theory, alpha: Formula, beta: Formula,
                         opts: Optional[SolveOptions] = None) -> bool:
    """Verify by enumeration that two weakly equivalent formulas are
    interchangeable as an added theory member.

    The weak equivalence of ``alpha`` and ``beta`` is a precondition and is
    checked; the enumeration is then a regression guard and always succeeds.
    """
    verdict = weak_equiv(alpha, beta, opts)
    if not verdict.equivalent:
        raise PreconditionViolated(
            "theory_replace_check requires weakly equivalent formulas; "
            f"counter-model {verdict.witness}")
    extended_a = list(gamma) + [alpha]
    extended_b = list(gamma) + [beta]

    def same_models(m: X5Interpretation) -> bool:
        return all(x5_sat(m, f) for f in extended_a) == all(x5_sat(m, f) for f in extended_b)

    return _scan(opts, same_models, gamma, alpha, beta).equivalent
