import pytest
import hypothesis.strategies as st
from hypothesis import example, given

import reference_tables as ref
from conftest import (
    ATOMS,
    formula_strategy,
    formulas,
    interpretations,
    nested_formulas,
    shared_nodes,
    x5_interps,
    x5_strategy,
)
from genutil import ht_interpretations, ht_sat
from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    EvalMode,
    ExplicitLiteral,
    Impl,
    Interpretation,
    NotNested,
    Or,
    Program,
    Rule,
    Theory,
    Top,
    X5Interpretation,
    XNeg,
    atom,
    atoms,
    classical_sat,
    enumerate_x5,
    fals,
    iff,
    is_model,
    parse_formula,
    parse_interpretation,
    sat,
    strong_iff,
    substitute,
    value5,
    x5_fals,
    x5_sat,
)
from eqlx import semantics

p, q = atom("p"), atom("q")
P, Q = Atom("p"), Atom("q")


def x5_from(values):
    return X5Interpretation.from_values(values)


class TestSingleWorld:
    def test_explicit_literal_disjunction(self):
        t = parse_interpretation("{~p}")
        assert sat(t, Or(XNeg(p), q))

    def test_undefined_atom(self):
        t = parse_interpretation("{~p}")
        assert sat(t, And(DNeg(q), DNeg(XNeg(q))))

    def test_falsified_conjunction(self):
        t = parse_interpretation("{~p}")
        assert fals(t, And(p, q))

    def test_rejects_implication(self):
        with pytest.raises(NotNested):
            sat(Interpretation(), Impl(p, q))
        with pytest.raises(NotNested):
            fals(Interpretation(), Impl(p, q))

    @given(nested_formulas, interpretations)
    def test_never_both_sat_and_fals(self, f, t):
        assert not (sat(t, f) and fals(t, f))


class TestTwoWorld:
    def test_implication_needs_here_and_there(self):
        m = x5_from({P: 1})
        assert x5_sat(m, Impl(p, p))
        assert not x5_sat(m, Impl(DNeg(DNeg(p)), p))
        assert value5(m, Impl(p, p)) == 2
        assert value5(m, Impl(DNeg(DNeg(p)), p)) == 1

    def test_falsify_atom_proved_false(self):
        m = x5_from({P: -2})
        assert x5_fals(m, p)

    @given(nested_formulas, interpretations)
    def test_total_models_collapse_to_single_world(self, f, t):
        m = X5Interpretation(t, t)
        assert x5_sat(m, f) == sat(t, f)
        assert x5_fals(m, f) == fals(t, f)

    @given(formulas, x5_interps)
    def test_persistence(self, f, m):
        total = m.total_version()
        if x5_sat(m, f):
            assert x5_sat(total, f)
        if x5_fals(m, f):
            assert x5_fals(total, f)

    @given(formulas, x5_interps)
    def test_default_negation_characterisation(self, f, m):
        total = m.total_version()
        assert x5_sat(m, DNeg(f)) == (not x5_sat(total, f))
        assert x5_fals(m, DNeg(f)) == x5_sat(total, f)


def _unmemoized_sat(h, t, f):
    """Two-world satisfaction as it read before shared nodes were memoized."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom) in h
    if isinstance(f, And):
        return _unmemoized_sat(h, t, f.left) and _unmemoized_sat(h, t, f.right)
    if isinstance(f, Or):
        return _unmemoized_sat(h, t, f.left) or _unmemoized_sat(h, t, f.right)
    if isinstance(f, XNeg):
        return _unmemoized_fals(h, t, f.child)
    if isinstance(f, DNeg):
        return not _unmemoized_sat(t, t, f.child)
    here_ok = (not _unmemoized_sat(h, t, f.left)) or _unmemoized_sat(h, t, f.right)
    if h is t or h == t:
        return here_ok
    return here_ok and ((not _unmemoized_sat(t, t, f.left)) or _unmemoized_sat(t, t, f.right))


def _unmemoized_fals(h, t, f):
    if isinstance(f, Top):
        return False
    if isinstance(f, Bot):
        return True
    if isinstance(f, AtomRef):
        return ExplicitLiteral(f.atom, negated=True) in h
    if isinstance(f, And):
        return _unmemoized_fals(h, t, f.left) or _unmemoized_fals(h, t, f.right)
    if isinstance(f, Or):
        return _unmemoized_fals(h, t, f.left) and _unmemoized_fals(h, t, f.right)
    if isinstance(f, XNeg):
        return _unmemoized_sat(h, t, f.child)
    if isinstance(f, DNeg):
        return _unmemoized_sat(t, t, f.child)
    return _unmemoized_sat(t, t, f.left) and _unmemoized_fals(h, t, f.right)


FIVE_ATOMS = tuple(Atom(n) for n in "pqrst")


class TestSharedSubformulaMemo:
    @given(shared_nodes(FIVE_ATOMS).map(lambda pool: pool[-1]), x5_strategy(FIVE_ATOMS))
    @example(iff(iff(p, q), iff(p, q)), x5_from({P: 1, Q: -2}))
    @example(strong_iff(Impl(p, DNeg(q)), Impl(p, DNeg(q))), x5_from({P: 2, Q: 1}))
    def test_memoized_relations_match_the_unmemoized_ones(self, f, m):
        for world in (m, m.total_version()):
            h, t = world.here.literals, world.there.literals
            assert x5_sat(world, f) == _unmemoized_sat(h, t, f)
            assert x5_fals(world, f) == _unmemoized_fals(h, t, f)
            assert x5_sat(world, DNeg(f)) == (not _unmemoized_sat(t, t, f))


class TestFiveValuedCorrespondence:
    @given(formulas, x5_interps)
    def test_four_way(self, f, m):
        v = value5(m, f)
        total = m.total_version()
        assert x5_sat(m, f) == (v == 2)
        assert x5_sat(total, f) == (v > 0)
        assert x5_fals(m, f) == (v == -2)
        assert x5_fals(total, f) == (v < 0)

    def test_exhaustive_small_formulas(self):
        r = atom("r")
        samples = [Impl(DNeg(DNeg(p)), p), XNeg(Impl(p, q)),
                   And(p, DNeg(p)), XNeg(DNeg(p)), Or(XNeg(p), DNeg(q)),
                   Impl(XNeg(Or(p, q)), And(r, DNeg(p))),
                   XNeg(Impl(And(p, q), Or(r, XNeg(p))))]
        for f in samples:
            sig = sorted({P, Q, Atom("r")})
            for m in enumerate_x5(sig):
                v = value5(m, f)
                total = m.total_version()
                assert x5_sat(m, f) == (v == 2)
                assert x5_sat(total, f) == (v > 0)
                assert x5_fals(m, f) == (v == -2)
                assert x5_fals(total, f) == (v < 0)

    def test_constants(self):
        m = x5_from({P: 0})
        assert value5(m, TOP) == 2
        assert value5(m, BOT) == -2

    def test_triple_default_negation_fold(self):
        m = x5_from({P: 1})
        assert value5(m, DNeg(p)) == -2
        assert value5(m, DNeg(DNeg(p))) == 2
        assert value5(m, DNeg(DNeg(DNeg(p)))) == -2
        assert value5(m, DNeg(p), EvalMode.N5) == -1
        assert value5(m, DNeg(DNeg(p)), EvalMode.N5) == 2
        assert value5(m, DNeg(DNeg(DNeg(p))), EvalMode.N5) == -2

    def test_n5_differs_in_one_implication_cell(self):
        m = x5_from({P: 1, Q: -2})
        assert value5(m, Impl(p, q)) == -2
        assert value5(m, Impl(p, q), EvalMode.N5) == -1

    def test_classical_mode_rejected(self):
        with pytest.raises(ValueError):
            value5(x5_from({P: 0}), p, EvalMode.CLASSICAL)


def _old_value_of(m, a):
    """The atom reading that the value dictionary replaced."""
    for v, world, negated in ((2, m.here, False), (-2, m.here, True),
                              (1, m.there, False), (-1, m.there, True)):
        if ExplicitLiteral(a, negated) in world.literals:
            return v
    return 0


def _old_impl5(a, b, mode):
    if a <= max(b, 0):
        return 2
    if mode is EvalMode.N5 and a == 1 and b == -2:
        return -1
    return b


def _old_val(m, f, mode):
    """The point-by-point fold that the column fold replaced."""
    if isinstance(f, Bot):
        return -2
    if isinstance(f, Top):
        return 2
    if isinstance(f, AtomRef):
        return _old_value_of(m, f.atom)
    if isinstance(f, And):
        return min(_old_val(m, f.left, mode), _old_val(m, f.right, mode))
    if isinstance(f, Or):
        return max(_old_val(m, f.left, mode), _old_val(m, f.right, mode))
    if isinstance(f, XNeg):
        return -_old_val(m, f.child, mode)
    if isinstance(f, DNeg):
        return _old_impl5(_old_val(m, f.child, mode), -2, mode)
    return _old_impl5(_old_val(m, f.left, mode), _old_val(m, f.right, mode), mode)


five_modes = st.sampled_from([EvalMode.X5, EvalMode.N5])
# a signature: the formula's atoms and any of p, q, r, s besides
extra_atoms = st.sets(st.sampled_from(ATOMS + (Atom("s"),)), max_size=2)


class TestColumnFold:
    @given(formulas, five_modes, extra_atoms)
    @example(TOP, EvalMode.X5, set())
    @example(BOT, EvalMode.N5, {P, Q})
    @example(Impl(p, q), EvalMode.N5, set())
    def test_columns_match_the_point_wise_fold(self, f, mode, extra):
        points = list(enumerate_x5(atoms(f) | extra))
        columns = {a: tuple(_old_value_of(m, a) for m in points) for a in atoms(f) | extra}
        got = semantics._val(columns.__getitem__, len(points), f, mode)
        assert list(got) == [_old_val(m, f, mode) for m in points]

    @given(formulas, five_modes, x5_interps)
    def test_value5_is_the_one_point_case(self, f, mode, m):
        assert value5(m, f, mode) == _old_val(m, f, mode)

    @given(formulas, five_modes)
    def test_atoms_outside_the_interpretation_read_zero(self, f, mode):
        m = x5_from({})
        assert value5(m, f, mode) == _old_val(m, f, mode)


class TestDerivedOperatorAgreement:
    @pytest.mark.parametrize("mode", [EvalMode.X5, EvalMode.N5])
    @given(formulas, x5_interps)
    def test_dneg_is_implication_to_bot(self, mode, f, m):
        assert value5(m, DNeg(f), mode) == value5(m, Impl(f, BOT), mode)

    @pytest.mark.parametrize("mode", [EvalMode.X5, EvalMode.N5])
    @given(x5_interps)
    def test_top_is_negated_bot(self, mode, m):
        assert value5(m, TOP, mode) == value5(m, DNeg(BOT), mode)

    @given(formulas, x5_interps)
    def test_bot_free_default_negation(self, f, m):
        body = Impl(f, XNeg(f))
        encoded = XNeg(Impl(body, XNeg(body)))
        assert value5(m, DNeg(f)) == value5(m, encoded)

    @given(formulas, x5_interps)
    def test_coherence(self, f, m):
        assert value5(m, Impl(XNeg(f), DNeg(f))) == 2

    @given(formulas, formulas, x5_interps)
    def test_strong_iff_characterises_value_equality(self, a, b, m):
        designated = value5(m, strong_iff(a, b)) == 2
        assert designated == (value5(m, a) == value5(m, b))


def _cell_interpretation(a, b):
    return x5_from({P: a, Q: b})


class TestTruthTableRegression:
    @pytest.mark.parametrize("table,build", [
        (ref.X5_AND, lambda: And(p, q)),
        (ref.X5_OR, lambda: Or(p, q)),
        (ref.X5_IMPL, lambda: Impl(p, q)),
        (ref.X5_IFF, lambda: iff(p, q)),
        (ref.X5_STRONG_IFF, lambda: strong_iff(p, q)),
    ])
    def test_x5_binary(self, table, build):
        f = build()
        for i, a in enumerate(ref.VALUES):
            for j, b in enumerate(ref.VALUES):
                assert value5(_cell_interpretation(a, b), f) == table[i][j]

    @pytest.mark.parametrize("table,build", [
        (ref.N5_IMPL, lambda: Impl(p, q)),
        (ref.N5_IFF, lambda: iff(p, q)),
        (ref.N5_STRONG_IFF, lambda: strong_iff(p, q)),
    ])
    def test_n5_binary(self, table, build):
        f = build()
        for i, a in enumerate(ref.VALUES):
            for j, b in enumerate(ref.VALUES):
                assert value5(_cell_interpretation(a, b), f, EvalMode.N5) == table[i][j]

    def test_unary_columns(self):
        for i, a in enumerate(ref.VALUES):
            m = x5_from({P: a})
            assert value5(m, XNeg(p)) == ref.X5_XNEG[i]
            assert value5(m, DNeg(p)) == ref.X5_DNEG[i]
            assert value5(m, XNeg(p), EvalMode.N5) == ref.X5_XNEG[i]
            assert value5(m, DNeg(p), EvalMode.N5) == ref.N5_DNEG[i]


class TestHTConservativity:
    ht_free = formula_strategy(atom_pool=ATOMS[:2])

    @given(ht_free)
    def test_matches_direct_ht_evaluator(self, f):
        f = _strip_xneg(f)
        sig = sorted({P, Q})
        for h_atoms, t_atoms in ht_interpretations(sig):
            m = X5Interpretation(
                Interpretation(ExplicitLiteral(a) for a in h_atoms),
                Interpretation(ExplicitLiteral(a) for a in t_atoms))
            assert x5_sat(m, f) == ht_sat(h_atoms, t_atoms, f)

    @given(ht_free, formulas)
    def test_ht_tautologies_survive_substitution(self, f, alpha):
        f = _strip_xneg(f)
        sig = sorted({P, Q})
        ht_valid = all(ht_sat(h, t, f) for h, t in ht_interpretations(sig))
        if ht_valid:
            instance = substitute(f, P, alpha)
            assert all(x5_sat(m, instance)
                       for m in enumerate_x5(sorted({Q} | {a for a in _atoms_of(alpha)})))


def _strip_xneg(f):
    """Replace explicit negation by default negation to get a ~-free formula."""
    if isinstance(f, XNeg):
        return DNeg(_strip_xneg(f.child))
    if isinstance(f, DNeg):
        return DNeg(_strip_xneg(f.child))
    if isinstance(f, (And, Or, Impl)):
        return type(f)(_strip_xneg(f.left), _strip_xneg(f.right))
    return f


def _atoms_of(f):
    from eqlx import atoms
    return atoms(f)


class TestClassicalMode:
    def test_coherence_converse_becomes_tautology(self):
        f = Impl(DNeg(p), XNeg(p))
        assert all(classical_sat(m, f) for m in enumerate_x5([P]))

    def test_persistence_fails(self):
        m = X5Interpretation(Interpretation(),
                             Interpretation([ExplicitLiteral(P)]))
        assert classical_sat(m, XNeg(p))
        assert not classical_sat(m.total_version(), XNeg(p))

    def test_exhaustive_persistence_search_finds_counterexample(self):
        broken = [m for m in enumerate_x5([P])
                  if classical_sat(m, XNeg(p))
                  and not classical_sat(m.total_version(), XNeg(p))]
        assert [str(m) for m in broken] == ["<{}, {p}>"]

    def test_total_atom(self):
        m = x5_from({P: 2})
        assert classical_sat(m, p)


class TestModels:
    def test_example_program_model(self):
        theory = Theory([parse_formula("~ not p -> p")])
        m = x5_from({P: 2})
        assert is_model(m, theory)

    def test_empty_theory(self):
        assert is_model(x5_from({}), Theory())

    def test_atom_needs_here_membership(self):
        assert not is_model(x5_from({P: 1}), Theory([p]))

    def test_programs_accepted(self):
        prog = Program([Rule(TOP, p)])
        assert is_model(x5_from({P: 2}), prog)
        assert not is_model(x5_from({P: 1}), prog)
