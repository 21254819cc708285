"""Validity, the three equivalence notions, and discriminating contexts.

Weak equivalence (designated double implication) coincides with strong
equivalence at the theory level; substitution equivalence (equal five-valued
values everywhere) is the congruence that survives arbitrary contexts,
including under explicit negation.  When two formulas are not weakly
equivalent, a small theory can be synthesised that makes their equilibrium
models differ; the construction is verified against the solver before being
returned.

Every decision here reads bitsliced truth tables (``truthtable``): each
formula compiles to masks over the whole 5^n here/there space, and a
counter-model is the lowest set bit of a mask, which is the first one in
``enumerate_x5`` order.  Before a negative verdict is returned, the reference
route (``value5`` or ``x5_sat``) evaluates its witness again; a mismatch
raises ``InternalInconsistency``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .core import (
    TOP,
    Formula,
    Impl,
    Theory,
    X5Interpretation,
    _Frozen,
    iff,
)
from .semantics import value5, x5_sat
from .solver import (
    InternalInconsistency,
    SolveOptions,
    enumerate_x5,  # noqa: F401  bench/tracing.py wraps this module binding
    equilibrium_models,
)
from .truthtable import Chunk, first_point

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


class EquivVerdict(_Frozen):
    """Outcome of a validity or equivalence check.

    ``witness`` is the first counter-model in canonical enumeration order and
    is present exactly when ``equivalent`` is false.  ``context`` carries a
    discriminating theory when one was synthesised, ``satisfied_side``
    records which argument the witness satisfies (``"left"`` or ``"right"``),
    and ``context_models`` holds two tuples: the equilibrium models of that
    theory extended by the left formula, then by the right one.
    """

    __slots__ = _fields = ("equivalent", "witness", "context", "satisfied_side",
                           "context_models")
    equivalent: bool
    witness: Optional[X5Interpretation]
    context: Optional[Theory]
    satisfied_side: Optional[str]
    context_models: Optional[tuple]

    def __init__(self, equivalent: bool, witness: Optional[X5Interpretation] = None,
                 context: Optional[Theory] = None, satisfied_side: Optional[str] = None,
                 context_models: Optional[tuple] = None) -> None:
        self._store(equivalent, witness, context, satisfied_side, context_models)
        if equivalent and witness is not None:
            raise ValueError("a verdict cannot be positive and carry a witness")
        if not equivalent and witness is None:
            raise ValueError("a negative verdict requires a witness")


def _decide(opts: Optional[SolveOptions], hits: Callable[[Chunk], int],
            refutes: Callable[[X5Interpretation], bool], *inputs) -> EquivVerdict:
    """Negative with the first point, in ``enumerate_x5`` order over the
    inputs' signature, in the truth-table mask ``hits``; positive if there is
    none.  The reference route ``refutes`` re-checks the witness first."""
    witness = first_point((opts or SolveOptions()).space(*inputs), hits)
    if witness is None:
        return EquivVerdict(True)
    _confirm(refutes(witness), witness)
    return EquivVerdict(False, witness=witness)


def _confirm(agrees: bool, witness: X5Interpretation) -> None:
    if not agrees:
        raise InternalInconsistency(
            f"the truth tables and the reference evaluation disagree at {witness}")


def is_valid(phi: Formula, opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Is ``phi`` designated at every interpretation over its own atoms?

    Truth-functionality of the five-valued semantics makes the formula's own
    atoms a sufficient signature.
    """
    return _decide(opts, lambda t: t.full ^ t.designated(phi),
                   lambda m: not value5(m, phi).designated, phi)


def weak_equiv(alpha: Formula, beta: Formula,
               opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Validity of the double implication; decides theory-level strong equivalence."""
    return is_valid(iff(alpha, beta), opts)


def subst_equiv(alpha: Formula, beta: Formula,
                opts: Optional[SolveOptions] = None) -> EquivVerdict:
    """Equality of five-valued values everywhere; the context-proof congruence."""
    def differ(t: Chunk) -> int:
        bits = 0
        for x, y in zip(t.levels(alpha), t.levels(beta)):
            bits |= x ^ y
        return bits

    return _decide(opts, differ, lambda m: value5(m, alpha) != value5(m, beta),
                   alpha, beta)


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
    space = opts.space(alpha, beta)

    def first_model_of_only(one: Formula, two: Formula) -> Optional[X5Interpretation]:
        return first_point(space, lambda t: t.designated(one) & ~t.designated(two))

    satisfied, other, side = alpha, beta, "left"
    witness = first_model_of_only(alpha, beta)
    if witness is None:
        satisfied, other, side = beta, alpha, "right"
        witness = first_model_of_only(beta, alpha)
    if witness is None:
        raise EquivalentFormulas(
            "cannot build a discriminating context for weakly equivalent formulas")
    _confirm(x5_sat(witness, satisfied) and not x5_sat(witness, other), witness)

    here, there = witness.here, witness.there
    delta_formulas: List[Formula] = []
    if not x5_sat(witness.total_version(), other):
        delta_formulas.extend(Impl(TOP, l.as_formula()) for l in there)
    else:
        delta_formulas.extend(Impl(TOP, l.as_formula()) for l in here)
        gap = sorted(there.literals - here.literals)
        delta_formulas.extend(Impl(l1.as_formula(), l2.as_formula())
                              for l1 in gap for l2 in gap)
    delta = Theory(delta_formulas)

    check_opts = SolveOptions(signature=space.atoms, max_atoms=opts.max_atoms)
    with_sat = tuple(equilibrium_models(Theory(list(delta) + [satisfied]), check_opts))
    with_other = tuple(equilibrium_models(Theory(list(delta) + [other]), check_opts))
    if with_sat == with_other:
        raise InternalInconsistency(
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

    def differ(m: X5Interpretation) -> bool:
        return all(x5_sat(m, f) for f in extended_a) != all(x5_sat(m, f) for f in extended_b)

    # the models of gamma + [alpha] and of gamma + [beta] differ exactly
    # where gamma holds and alpha and beta do not agree
    return _decide(opts, lambda t: t.all(map(t.designated, gamma))
                   & (t.designated(alpha) ^ t.designated(beta)),
                   differ, gamma, alpha, beta).equivalent
