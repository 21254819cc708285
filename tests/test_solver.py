import itertools
import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import ATOMS, formula_strategy, formulas, nested_formulas
from genutil import random_program
from eqlx import (
    BOT,
    And,
    Atom,
    AtomRef,
    DNeg,
    ExplicitLiteral,
    Interpretation,
    NotExplicit,
    Or,
    Program,
    Rule,
    SignatureTooLarge,
    SolveOptions,
    TOP,
    Theory,
    X5Interpretation,
    XNeg,
    answer_sets,
    atom,
    atoms,
    enumerate_interpretations,
    enumerate_x5,
    equilibrium_models,
    equilibrium_models_ferraris,
    iff,
    minimal_models_explicit,
    parse_formula,
    parse_interpretation,
    parse_program,
    parse_theory,
    reduct_program,
)
from eqlx import truthtable
from eqlx.reduct import ferraris_minus, ferraris_plus, ferraris_theory, reduct_nested
from eqlx.semantics import _fals, _nfals, _nsat, _sat
from eqlx.solver import _ferraris_masks, _nested_masks

P, Q, R = Atom("p"), Atom("q"), Atom("r")

# The engine differentials draw from five atoms.
POOL = ATOMS + (Atom("s"), Atom("t"))
pool_nested = formula_strategy(allow_impl=False, atom_pool=POOL)
programs = st.builds(Program, st.lists(st.builds(Rule, pool_nested, pool_nested), max_size=3))


def choice_program(n):
    return parse_program("\n".join(f"not ~a{i} -> a{i}. not a{i} -> ~a{i}." for i in range(n)))


def interps(*texts):
    return [parse_interpretation(t) for t in texts]


class TestEnumeration:
    def test_one_atom_order(self):
        got = [str(t) for t in enumerate_interpretations([P])]
        assert got == ["{}", "{p}", "{~p}"]

    def test_empty_signature(self):
        assert list(enumerate_interpretations([])) == [Interpretation()]

    def test_counts(self):
        assert len(list(enumerate_interpretations([P, Q, R]))) == 27
        assert len(list(enumerate_x5([P, Q]))) == 25

    def test_x5_one_atom_order(self):
        got = [str(m) for m in enumerate_x5([P])]
        assert got == ["<{}, {}>", "<{}, {p}>", "<{p}, {p}>",
                       "<{}, {~p}>", "<{~p}, {~p}>"]

    def test_x5_invariants(self):
        for m in enumerate_x5([P, Q]):
            assert m.here.issubset(m.there)

    def test_guard(self):
        wide = [Atom(f"a{i}") for i in range(13)]
        with pytest.raises(SignatureTooLarge):
            list(enumerate_interpretations(wide))
        with pytest.raises(SignatureTooLarge):
            answer_sets(Program([Rule(TOP, atom("p"))]),
                        SolveOptions(signature=wide))


def decided(prog):
    """Every literal set deciding each atom, in ``enumerate_interpretations`` order."""
    sig = sorted(atoms(prog))
    return [Interpretation(ExplicitLiteral(a, negated=s < 0) for a, s in zip(sig, states))
            for states in itertools.product((1, -1), repeat=len(sig))]


class TestGuardedScan:
    def test_choice_program_answer_sets_decide_every_atom(self):
        prog = choice_program(4)
        expected = [t for t in enumerate_interpretations(atoms(prog)) if len(t) == 4]
        assert decided(prog) == expected == answer_sets(prog)

    def test_twelve_atom_choice_program(self):
        prog = choice_program(12)
        expected = decided(prog)
        assert len(expected) == 4096
        assert answer_sets(prog) == expected
        assert equilibrium_models(prog) == expected
        assert equilibrium_models_ferraris(prog) == expected

    def test_thirteen_atoms_are_refused_before_any_mask(self):
        prog = choice_program(13)
        engines = [answer_sets, equilibrium_models, equilibrium_models_ferraris]
        with mock.patch.object(truthtable, "_atom_levels", side_effect=AssertionError):
            for engine in engines:
                with pytest.raises(SignatureTooLarge, match="13 atoms"):
                    engine(prog)
            with pytest.raises(SignatureTooLarge, match="13 atoms"):
                minimal_models_explicit(Program(), SolveOptions(signature=atoms(prog)))


class TestMinimalModels:
    def test_blocked_rule(self):
        prog = parse_program("~top -> p.")
        assert minimal_models_explicit(prog) == interps("{}")

    def test_negated_conjunction_fact(self):
        prog = parse_program("~(bird & ~flies).")
        assert minimal_models_explicit(prog) == interps("{flies}", "{~bird}")

    def test_empty_program(self):
        assert minimal_models_explicit(Program()) == interps("{}")

    def test_rejects_default_negation(self):
        with pytest.raises(NotExplicit):
            minimal_models_explicit(parse_program("not p -> q."))


class TestAnswerSets:
    def test_example_one(self):
        assert answer_sets(parse_program("~ not p -> p.")) == interps("{}", "{p}")

    def test_bird_matrix(self):
        rule2 = "not (bird & ~flies) -> ~(bird & ~flies).\n"
        cases = [
            ("", ["{flies}", "{~bird}"]),
            ("bird.", ["{bird, flies}"]),
            ("~flies.", ["{~bird, ~flies}"]),
            ("bird. ~flies.", ["{bird, ~flies}"]),
        ]
        for extra, expected in cases:
            got = answer_sets(parse_program(rule2 + extra))
            assert [str(t) for t in got] == expected

    def test_negated_inconsistency_fact(self):
        assert answer_sets(parse_program("~(p & not p).")) == interps("{~p}")
        assert answer_sets(parse_program("~bot.")) == interps("{}")


class TestEquilibrium:
    def test_example_one(self):
        theory = parse_theory("~ not p -> p.")
        assert equilibrium_models(theory) == interps("{}", "{p}")
        assert equilibrium_models_ferraris(theory) == interps("{}", "{p}")

    def test_tautological_rule(self):
        theory = parse_theory("p -> p.")
        assert equilibrium_models(theory) == interps("{}")

    def test_empty_theory(self):
        from eqlx import Theory
        assert equilibrium_models(Theory()) == interps("{}")
        assert equilibrium_models_ferraris(Theory()) == interps("{}")

    def test_ferraris_route_on_bird_rule(self):
        theory = parse_theory("not (bird & ~flies) -> ~(bird & ~flies).")
        assert equilibrium_models_ferraris(theory) == interps("{flies}", "{~bird}")


class TestEngineAgreement:
    @given(programs)
    @settings(max_examples=120)
    def test_three_routes_coincide(self, prog):
        theory = prog.as_theory()
        a = answer_sets(prog)
        b = equilibrium_models(theory)
        c = equilibrium_models_ferraris(theory)
        assert a == b == c

    def test_seeded_sweep(self):
        rng = random.Random(20240817)
        for _ in range(150):
            prog = random_program(rng, names=("p", "q"), max_rules=2, depth=2)
            a = answer_sets(prog)
            assert a == equilibrium_models(prog)
            assert a == equilibrium_models_ferraris(prog)

    @given(programs)
    @settings(max_examples=60)
    def test_answer_sets_are_total_models(self, prog):
        from eqlx import is_model
        for t in answer_sets(prog):
            assert is_model(X5Interpretation(t, t), prog)


class TestOrderRelation:
    def test_five_valued_characterisation(self):
        sig = [P, Q]
        pairs = [(m1, m2) for m1 in enumerate_x5(sig) for m2 in enumerate_x5(sig)]
        for m1, m2 in pairs:
            direct = (m1.there == m2.there) and m1.here.issubset(m2.here)
            by_values = all(
                ((m1.value_of(a) == 0) == (m2.value_of(a) == 0))
                and (m1.value_of(a) <= 0 or m1.value_of(a) <= m2.value_of(a))
                and (m1.value_of(a) >= 0 or m2.value_of(a) <= m1.value_of(a))
                for a in sig)
            assert direct == by_values


class TestDeterminismAndParallelism:
    def test_repeated_runs_identical(self):
        theory = parse_theory("~ not p -> p.\nnot q -> ~q.")
        first = [str(m) for m in equilibrium_models(theory)]
        second = [str(m) for m in equilibrium_models(theory)]
        assert first == second


class TestSignatureExtension:
    def test_extra_atoms_do_not_change_answer_sets(self):
        prog = parse_program("~ not p -> p.")
        base = answer_sets(prog)
        widened = answer_sets(prog, SolveOptions(signature={Q}))
        assert base == widened

    def test_constructor_stores_a_frozenset(self):
        opts = SolveOptions(signature={Q})
        assert isinstance(opts.signature, frozenset)
        assert hash(opts) == hash(SolveOptions(signature=frozenset({Q})))
        assert opts == SolveOptions(signature=frozenset({Q}))
        assert SolveOptions(signature=[Q, Q]) == opts
        assert SolveOptions().signature is None


# ---------------------------------------------------------------------------
# Reference: each engine as its own loop, with minimal_models_explicit taking
# the minimal ones among all models.


def _ref_candidates(opts, gamma):
    sig = atoms(gamma) | (opts.signature or set())
    return enumerate_interpretations(sig, opts.max_atoms)


def _ref_strict_subsets(t):
    lits = sorted(t.literals)
    for k in range(len(lits)):
        for combo in itertools.combinations(lits, k):
            yield frozenset(combo)


def _ref_rule_wise(t, rules):
    return all((not _nsat(t, r.body)) or _nsat(t, r.head) for r in rules)


def _ref_minimal_models_explicit(p, opts):
    rules = tuple(p)
    models = [t for t in _ref_candidates(opts, p) if _ref_rule_wise(t.literals, rules)]
    model_sets = [m.literals for m in models]
    return [m for m in models if not any(other < m.literals for other in model_sets)]


def _ref_answer_sets(p, opts):
    def is_answer_set(t):
        rules = tuple(reduct_program(p, t))
        if not _ref_rule_wise(t.literals, rules):
            return False
        return not any(_ref_rule_wise(s, rules) for s in _ref_strict_subsets(t))

    return [t for t in _ref_candidates(opts, p) if is_answer_set(t)]


def _ref_formulas(gamma):
    if isinstance(gamma, Program):
        return tuple(r.as_implication() for r in gamma)
    return tuple(gamma)


def _ref_equilibrium_models(gamma, opts):
    formulas = _ref_formulas(gamma)

    def in_equilibrium(t):
        tl = t.literals
        if not all(_sat(tl, tl, f) for f in formulas):
            return False
        return not any(all(_sat(h, tl, f) for f in formulas)
                       for h in _ref_strict_subsets(t))

    return [t for t in _ref_candidates(opts, gamma) if in_equilibrium(t)]


def _ref_equilibrium_models_ferraris(gamma, opts):
    formulas = _ref_formulas(gamma)

    def in_equilibrium(t):
        reduced = ferraris_theory(formulas, t)
        tl = t.literals
        if not all(_sat(tl, tl, f) for f in reduced):
            return False
        return not any(all(_sat(h, h, f) for f in reduced)
                       for h in _ref_strict_subsets(t))

    return [t for t in _ref_candidates(opts, gamma) if in_equilibrium(t)]


explicit_formulas = st.recursive(
    st.sampled_from([AtomRef(a) for a in POOL] + [BOT, TOP]),
    lambda ch: st.one_of(st.builds(XNeg, ch), st.builds(And, ch, ch),
                         st.builds(Or, ch, ch)),
    max_leaves=6)
explicit_programs = st.builds(
    Program, st.lists(st.builds(Rule, explicit_formulas, explicit_formulas), max_size=3))
theories = st.builds(Theory, st.lists(formula_strategy(atom_pool=POOL), max_size=3))
solve_options = st.sampled_from([SolveOptions(), SolveOptions(signature={Atom("z")})])


def across_chunk_widths(run):
    """``run()`` with 1, 2 and 7 atoms varying inside a chunk; each result."""
    results = []
    for width in (1, 2, 7):
        with mock.patch.object(truthtable, "_CHUNK_ATOMS", width):
            results.append(run())
    return results


class TestSharedScanMatchesSeparateLoops:
    @given(programs, solve_options)
    @example(parse_program("p | not p."), SolveOptions())
    # {p, q} is a model, {} the only smaller one: lowered in the lead and inside a chunk
    @example(parse_program("q -> p. p -> q."), SolveOptions())
    @settings(max_examples=150)
    def test_programs(self, prog, opts):
        expected = [_ref_answer_sets(prog, opts), _ref_equilibrium_models(prog, opts),
                    _ref_equilibrium_models_ferraris(prog, opts)]
        assert across_chunk_widths(lambda: [
            answer_sets(prog, opts), equilibrium_models(prog, opts),
            equilibrium_models_ferraris(prog, opts)]) == [expected] * 3

    @given(theories, solve_options)
    @settings(max_examples=150)
    def test_theories(self, theory, opts):
        expected = [_ref_equilibrium_models(theory, opts),
                    _ref_equilibrium_models_ferraris(theory, opts)]
        assert across_chunk_widths(lambda: [
            equilibrium_models(theory, opts),
            equilibrium_models_ferraris(theory, opts)]) == [expected] * 3

    @given(explicit_programs, solve_options)
    @settings(max_examples=150)
    def test_explicit_programs(self, prog, opts):
        expected = _ref_minimal_models_explicit(prog, opts)
        assert across_chunk_widths(lambda: minimal_models_explicit(prog, opts)) == [expected] * 3


# ---------------------------------------------------------------------------
# Each engine's mask against its scalar definition, point by point


def _pointwise(f, mask_of, scalar):
    """Compare bit i of each mask with the scalar relation at the i-th point."""
    [chunk] = list(truthtable.chunks(SolveOptions(signature=ATOMS, max_atoms=len(ATOMS)).space()))
    masks = mask_of(chunk, f)
    for i, m in enumerate(enumerate_x5(ATOMS)):
        expected = scalar(m.here.literals, m.there.literals)
        assert [bool(mask >> i & 1) for mask in masks] == expected, (i, str(m))
    assert all(0 <= mask <= chunk.full for mask in masks)


every_connective = parse_formula("(p & top) | (~q -> not (r | bot))")


class TestMaskRelations:
    @given(nested_formulas)
    @example(parse_formula("(p & top) | ~(not (q | bot) & ~r)"))
    @settings(max_examples=150)
    def test_nested_reduct(self, f):
        _pointwise(f, _nested_masks, lambda h, t: [
            _nsat(h, reduct_nested(f, Interpretation(t))),
            _nfals(h, reduct_nested(f, Interpretation(t)))])

    @given(formulas)
    @example(every_connective)
    @settings(max_examples=150)
    def test_ferraris_reducts(self, f):
        _pointwise(f, lambda chunk, g: _ferraris_masks(chunk, g, {}), lambda h, t: [
            _sat(h, h, ferraris_plus(f, Interpretation(t))),
            _fals(h, h, ferraris_minus(f, Interpretation(t))),
            _sat(t, t, f), _fals(t, t, f)])

    @given(formulas)
    @example(every_connective)
    @settings(max_examples=150)
    def test_here_and_there(self, f):
        _pointwise(f, lambda chunk, g: [chunk.designated(g)], lambda h, t: [_sat(h, t, f)])


# ---------------------------------------------------------------------------
# The Ferraris fold with its per-chunk memo against the fold without one


def _unmemoized_ferraris_masks(chunk, f):
    """``solver._ferraris_masks`` as it was without the memo: one call per
    node of the unfolded tree, so a shared subformula is folded again."""
    full = chunk.full
    if f == TOP:
        plus, minus, sat, fals = full, 0, full, 0
    elif f == BOT:
        plus, minus, sat, fals = 0, full, 0, full
    elif isinstance(f, AtomRef):
        ge = chunk.atom_levels[f.atom]
        plus, minus, sat, fals = ge[3], full ^ ge[0], ge[2], full ^ ge[1]
    elif isinstance(f, XNeg):
        p, m, s, x = _unmemoized_ferraris_masks(chunk, f.child)
        plus, minus, sat, fals = m, p, x, s
    elif isinstance(f, DNeg):
        p, _, s, _ = _unmemoized_ferraris_masks(chunk, f.child)
        plus, minus, sat, fals = full ^ p, full, full ^ s, s
    else:
        pa, ma, sa, xa = _unmemoized_ferraris_masks(chunk, f.left)
        pb, mb, sb, xb = _unmemoized_ferraris_masks(chunk, f.right)
        if isinstance(f, And):
            plus, minus, sat, fals = pa & pb, ma | mb, sa & sb, xa | xb
        elif isinstance(f, Or):
            plus, minus, sat, fals = pa | pb, ma & mb, sa | sb, xa & xb
        else:
            plus, minus, sat, fals = (full ^ pa) | pb, mb, (full ^ sa) | sb, sa & xb
    return plus & sat, minus & fals, sat, fals


pool_formulas = formula_strategy(atom_pool=POOL)
# iff shares both operands, so the memo is hit inside a formula and across them
shared_theories = st.builds(Theory, st.lists(
    st.one_of(pool_formulas, st.builds(iff, pool_formulas, pool_formulas)), max_size=3))


class TestMemoizedFerrarisFold:
    @given(shared_theories, solve_options)
    @example(Theory([iff(iff(atom("p"), atom("q")), atom("p"))]), SolveOptions())
    @settings(max_examples=150)
    def test_matches_the_unmemoized_fold(self, theory, opts):
        space = opts.space(theory)
        for chunk in truthtable.chunks(space):
            memo = {}
            assert [_ferraris_masks(chunk, f, memo) for f in theory] == \
                [_unmemoized_ferraris_masks(chunk, f) for f in theory]
        expected = truthtable.minimal_totals(space, lambda chunk: chunk.all(
            _unmemoized_ferraris_masks(chunk, f)[0] for f in theory))
        assert across_chunk_widths(lambda: equilibrium_models_ferraris(theory, opts)) == \
            [expected] * 3
