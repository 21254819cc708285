import pytest
import hypothesis.strategies as st
from hypothesis import assume, given, settings

from conftest import ATOMS, formula_strategy, formulas
from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    DNeg,
    EquivalentFormulas,
    Impl,
    Or,
    PreconditionViolated,
    Theory,
    XNeg,
    atom,
    atoms,
    discriminating_context,
    equilibrium_models,
    is_valid,
    parse_formula,
    subst_equiv,
    substitute,
    theory_replace_check,
    value5,
    weak_equiv,
)

p, q = atom("p"), atom("q")
P, Q = Atom("p"), Atom("q")


class TestValidity:
    def test_explicit_negation_implies_default(self):
        assert is_valid(Impl(XNeg(p), DNeg(p))).equivalent

    def test_contradiction_weakly_equals_bottom(self):
        assert is_valid(parse_formula("p & not p <-> bot")).equivalent

    def test_double_negation_elimination_fails(self):
        verdict = is_valid(Impl(DNeg(DNeg(p)), p))
        assert not verdict.equivalent
        assert verdict.witness.value_of(P) == 1

    def test_validity_without_atoms(self):
        assert is_valid(Impl(BOT, BOT)).equivalent
        assert not is_valid(BOT).equivalent


class TestWeakEquivalence:
    def test_contradiction_and_bottom(self):
        assert weak_equiv(And(p, DNeg(p)), BOT).equivalent

    def test_negated_implication_unfolding(self):
        left = XNeg(Impl(p, q))
        right = And(DNeg(DNeg(p)), XNeg(q))
        assert weak_equiv(left, right).equivalent

    def test_distinct_atoms(self):
        verdict = weak_equiv(p, q)
        assert not verdict.equivalent
        assert (verdict.witness.value_of(P), verdict.witness.value_of(Q)) == (0, 1)


class TestSubstEquivalence:
    def test_contradiction_and_bottom_differ(self):
        verdict = subst_equiv(And(p, DNeg(p)), BOT)
        assert not verdict.equivalent
        # first counter-model in canonical order leaves p undefined
        assert verdict.witness.value_of(P) == 0
        assert value5(verdict.witness, And(p, DNeg(p))) == 0
        assert value5(verdict.witness, BOT) == -2

    def test_divergence_at_default_false(self):
        from eqlx import X5Interpretation
        m = X5Interpretation.from_values({P: -1})
        assert value5(m, And(p, DNeg(p))) == -1
        assert value5(m, BOT) == -2

    def test_double_explicit_negation(self):
        assert subst_equiv(XNeg(XNeg(p)), p).equivalent

    def test_negated_implication_unfolding_fails(self):
        left = XNeg(Impl(p, q))
        right = And(DNeg(DNeg(p)), XNeg(q))
        verdict = subst_equiv(left, right)
        assert not verdict.equivalent
        w = verdict.witness
        assert (w.value_of(P), w.value_of(Q)) == (1, 1)
        assert value5(w, left) == -2
        assert value5(w, right) == -1

    @given(formulas, formulas)
    def test_subst_implies_weak(self, a, b):
        if subst_equiv(a, b).equivalent:
            assert weak_equiv(a, b).equivalent


class TestDiscriminatingContext:
    def test_tautology_versus_double_negation(self):
        alpha = Impl(p, p)
        beta = Impl(DNeg(DNeg(p)), p)
        verdict = discriminating_context(alpha, beta)
        assert verdict.satisfied_side == "left"
        assert verdict.witness.value_of(P) == 1
        assert list(verdict.context) == [Impl(p, p)]
        with_alpha = equilibrium_models(Theory(list(verdict.context) + [alpha]))
        with_beta = equilibrium_models(Theory(list(verdict.context) + [beta]))
        assert [str(m) for m in with_alpha] == ["{}"]
        assert [str(m) for m in with_beta] == ["{}", "{p}"]

    def test_atom_versus_bottom(self):
        verdict = discriminating_context(p, BOT)
        assert verdict.satisfied_side == "left"
        assert str(verdict.witness) == "<{p}, {p}>"
        assert list(verdict.context) == [Impl(TOP, p)]
        with_alpha = equilibrium_models(Theory(list(verdict.context) + [p]))
        with_beta = equilibrium_models(Theory(list(verdict.context) + [BOT]))
        assert [str(m) for m in with_alpha] == ["{p}"]
        assert with_beta == []

    def test_rejects_equivalent_formulas(self):
        with pytest.raises(EquivalentFormulas):
            discriminating_context(p, p)

    def test_right_side_witness(self):
        verdict = discriminating_context(BOT, p)
        assert verdict.satisfied_side == "right"
        assert [[str(m) for m in side] for side in verdict.context_models] == \
            [[], ["{p}"]]

    @given(formula_strategy(atom_pool=ATOMS[:2], max_leaves=4),
           formula_strategy(atom_pool=ATOMS[:2], max_leaves=4))
    @settings(max_examples=60)
    def test_synthesised_context_always_verifies(self, a, b):
        assume(not weak_equiv(a, b).equivalent)
        verdict = discriminating_context(a, b)
        sat_f, other = (a, b) if verdict.satisfied_side == "left" else (b, a)
        sig = atoms(a) | atoms(b)
        from eqlx import SolveOptions
        opts = SolveOptions(signature=sig)
        one = equilibrium_models(Theory(list(verdict.context) + [sat_f]), opts)
        two = equilibrium_models(Theory(list(verdict.context) + [other]), opts)
        assert one != two

    @given(formula_strategy(atom_pool=ATOMS[:2], max_leaves=4),
           formula_strategy(atom_pool=ATOMS[:2], max_leaves=4),
           st.sampled_from([None, frozenset(), frozenset({ATOMS[2]})]))
    @settings(max_examples=60)
    def test_carries_the_models_of_both_extended_theories(self, a, b, extra):
        assume(not weak_equiv(a, b).equivalent)
        from eqlx import SolveOptions
        opts = SolveOptions(signature=extra)
        verdict = discriminating_context(a, b, opts)
        left = equilibrium_models(Theory(list(verdict.context) + [a]), opts)
        right = equilibrium_models(Theory(list(verdict.context) + [b]), opts)
        assert verdict.context_models == (tuple(left), tuple(right))


class TestTheoryReplacement:
    def test_members_may_be_swapped(self):
        gamma = Theory([q])
        assert theory_replace_check(gamma, And(p, DNeg(p)), BOT)

    def test_trivial(self):
        assert theory_replace_check(Theory(), p, p)

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            theory_replace_check(Theory(), p, q)

    def test_replacing_inside_members_is_a_different_story(self):
        # swapping the weakly-equivalent pair inside an explicit negation
        # changes the answer sets, which is exactly what the substitution
        # relation is for
        scoped = XNeg(And(p, DNeg(p)))
        swapped = XNeg(BOT)
        assert [str(m) for m in equilibrium_models(Theory([scoped]))] == ["{~p}"]
        assert [str(m) for m in equilibrium_models(
            Theory([swapped]), _opts_with(P))] == ["{}"]


def _opts_with(*sig):
    from eqlx import SolveOptions
    return SolveOptions(signature=set(sig))


_SUBST_PAIRS = [
    (XNeg(XNeg(p)), p),
    (DNeg(DNeg(DNeg(p))), DNeg(p)),
    (And(p, q), And(q, p)),
    (XNeg(And(p, q)), Or(XNeg(p), XNeg(q))),
    (Or(p, BOT), p),
]

_WEAK_ONLY_PAIRS = [
    (And(p, DNeg(p)), BOT),
    (XNeg(Impl(p, q)), And(DNeg(DNeg(p)), XNeg(q))),
]


class TestCongruence:
    @pytest.mark.parametrize("a,b", _SUBST_PAIRS)
    @given(formulas)
    def test_subst_equivalence_is_a_congruence(self, a, b, phi):
        assert subst_equiv(a, b).equivalent
        left = substitute(phi, Atom("r"), a)
        right = substitute(phi, Atom("r"), b)
        assert subst_equiv(left, right).equivalent

    @pytest.mark.parametrize("a,b", _WEAK_ONLY_PAIRS + _SUBST_PAIRS)
    @given(formula_strategy(max_leaves=5))
    @settings(max_examples=60)
    def test_weak_equivalence_congruent_outside_xneg(self, a, b, phi):
        assume(_outside_xneg(phi, Atom("r")))
        assert weak_equiv(a, b).equivalent
        left = substitute(phi, Atom("r"), a)
        right = substitute(phi, Atom("r"), b)
        assert weak_equiv(left, right).equivalent


def _outside_xneg(phi, target, inside=False):
    if isinstance(phi, AtomRef):
        return not (inside and phi.atom == target)
    if isinstance(phi, XNeg):
        return _outside_xneg(phi.child, target, True)
    if isinstance(phi, DNeg):
        return _outside_xneg(phi.child, target, inside)
    if isinstance(phi, (And, Or, Impl)):
        return (_outside_xneg(phi.left, target, inside)
                and _outside_xneg(phi.right, target, inside))
    return True
