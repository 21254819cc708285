import pytest
from hypothesis import given

from conftest import formulas, interpretations, nested_formulas, programs, x5_interps
from eqlx import (
    BOT,
    TOP,
    And,
    DNeg,
    Impl,
    Interpretation,
    NotNested,
    Or,
    Program,
    Rule,
    X5Interpretation,
    XNeg,
    atom,
    fals,
    ferraris_minus,
    ferraris_plus,
    parse_formula,
    parse_interpretation,
    parse_program,
    reduct_nested,
    reduct_program,
    sat,
    simplify_constants,
    value5,
    x5_fals,
    x5_sat,
)

p, q = atom("p"), atom("q")
bird, flies = atom("bird"), atom("flies")

RULE2 = parse_formula("not (bird & ~flies) -> ~(bird & ~flies)")


def _impl_free(f):
    """``f`` with every implication ``a -> b`` replaced by ``not a | b``: not
    an equivalence away from total worlds, so the reducts never take this
    route."""
    if isinstance(f, Impl):
        return Or(DNeg(_impl_free(f.left)), _impl_free(f.right))
    if isinstance(f, (And, Or)):
        return type(f)(_impl_free(f.left), _impl_free(f.right))
    if isinstance(f, (XNeg, DNeg)):
        return type(f)(_impl_free(f.child))
    return f


class TestNestedReduct:
    def test_negation_becomes_bot_when_satisfied(self):
        assert reduct_nested(XNeg(DNeg(p)), parse_interpretation("{p}")) == XNeg(BOT)

    def test_negation_becomes_top_otherwise(self):
        assert reduct_nested(XNeg(DNeg(p)), Interpretation()) == XNeg(TOP)

    def test_explicit_formulas_are_fixed(self):
        f = And(p, XNeg(q))
        for t in ["{}", "{p}", "{~q}"]:
            assert reduct_nested(f, parse_interpretation(t)) == f

    def test_rejects_implications(self):
        with pytest.raises(NotNested):
            reduct_nested(Impl(p, q), Interpretation())

    def test_example_program_both_reducts(self):
        prog = parse_program("~ not p -> p.")
        assert reduct_program(prog, parse_interpretation("{p}")) == \
            Program([Rule(XNeg(BOT), p)])
        for t in ["{}", "{~p}"]:
            assert reduct_program(prog, parse_interpretation(t)) == \
                Program([Rule(XNeg(TOP), p)])

    def test_bird_rule_bot_body(self):
        prog = Program([Rule(RULE2.left, RULE2.right)])
        t = parse_interpretation("{bird, ~flies}")
        reduced = list(reduct_program(prog, t))
        assert reduced[0].body == BOT

    def test_empty_program(self):
        assert reduct_program(Program(), Interpretation()) == Program()

    @given(nested_formulas, interpretations)
    def test_total_model_fixpoint(self, f, t):
        reduced = reduct_nested(f, t)
        assert sat(t, f) == sat(t, reduced)
        assert fals(t, f) == fals(t, reduced)

    @given(nested_formulas, x5_interps)
    def test_here_world_characterisation(self, f, m):
        reduced = reduct_nested(f, m.there)
        assert x5_sat(m, f) == sat(m.here, reduced)
        assert x5_fals(m, f) == fals(m.here, reduced)


def _ht_models(m: X5Interpretation, prog: Program) -> bool:
    from eqlx import is_model
    return is_model(m, prog)


class TestProgramReductCharacterisation:
    @given(programs, x5_interps)
    def test_models_split_into_reduct_and_total(self, prog, m):
        reduced = reduct_program(prog, m.there)
        h_models = all((not sat(m.here, r.body)) or sat(m.here, r.head)
                       for r in reduced)
        t_models = all((not sat(m.there, r.body)) or sat(m.there, r.head)
                       for r in prog)
        assert _ht_models(m, prog) == (h_models and t_models)


class TestFerrarisReduct:
    def test_bird_rule_raw_and_simplified(self):
        cases = [
            ("{~bird}", "not not bot | ~(bird & top)", "~bird"),
            ("{flies}", "not not bot | ~(top & ~flies)", "flies"),
        ]
        for t_text, raw_text, simp_text in cases:
            t = parse_interpretation(t_text)
            raw = ferraris_plus(RULE2, t)
            assert raw == parse_formula(raw_text)
            assert simplify_constants(raw) == parse_formula(simp_text)

    def test_bird_rule_unsatisfied(self):
        assert ferraris_plus(RULE2, parse_interpretation("{bird}")) == BOT

    @given(formulas, x5_interps)
    def test_positive_reduct_tracks_satisfaction(self, f, m):
        reduced = ferraris_plus(f, m.there)
        at_here = X5Interpretation(m.here, m.here)
        assert x5_sat(at_here, reduced) == x5_sat(m, f)

    @given(formulas, x5_interps)
    def test_negative_reduct_tracks_falsification(self, f, m):
        reduced = ferraris_minus(f, m.there)
        at_here = X5Interpretation(m.here, m.here)
        assert x5_fals(at_here, reduced) == x5_fals(m, f)

    @given(nested_formulas, x5_interps)
    def test_bridge_between_the_two_reducts(self, f, m):
        t, h = m.there, m.here
        lhs_sat = sat(h, reduct_nested(f, t))
        plus = ferraris_plus(f, t)
        assert lhs_sat == (sat(t, f) and x5_sat(X5Interpretation(h, h), plus))
        lhs_fals = fals(h, reduct_nested(f, t))
        minus = ferraris_minus(f, t)
        assert lhs_fals == (fals(t, f) and x5_fals(X5Interpretation(h, h), minus))

    @given(formulas, interpretations)
    def test_implication_prerewrite_agrees_at_total_worlds(self, f, t):
        at_total = X5Interpretation(t, t)
        assert x5_sat(at_total, ferraris_plus(f, t)) == \
            x5_sat(at_total, ferraris_plus(_impl_free(f), t))
        assert x5_fals(at_total, ferraris_minus(f, t)) == \
            x5_fals(at_total, ferraris_minus(_impl_free(f), t))

    @given(formulas, x5_interps)
    def test_prerewrite_route_is_exact_for_the_rewritten_formula(self, f, m):
        rewritten = _impl_free(f)
        reduced = ferraris_plus(rewritten, m.there)
        at_here = X5Interpretation(m.here, m.here)
        assert x5_sat(at_here, reduced) == x5_sat(m, rewritten)

    def test_prerewrite_diverges_at_strict_here_worlds(self):
        # replacing p -> p by not p | p weakens the positive reduct: the
        # direct route keeps not p, the rewritten route bottoms it out, and
        # the smaller world below {p} separates them
        f = Impl(p, p)
        t = parse_interpretation("{p}")
        direct = ferraris_plus(f, t)
        rewritten = ferraris_plus(_impl_free(f), t)
        assert direct == Or(DNeg(p), p)
        assert rewritten == Or(BOT, p)
        empty = X5Interpretation(Interpretation(), Interpretation())
        assert x5_sat(empty, direct)
        assert not x5_sat(empty, rewritten)


class TestSimplifyConstants:
    def test_worked_example(self):
        f = Or(XNeg(And(bird, TOP)), DNeg(DNeg(BOT)))
        assert simplify_constants(f) == XNeg(bird)

    def test_fixed_point_on_plain_atoms(self):
        assert simplify_constants(p) == p

    def test_double_explicit_negation_collapses(self):
        assert simplify_constants(XNeg(XNeg(flies))) == flies

    @given(formulas, x5_interps)
    def test_value_preserving(self, f, m):
        assert value5(m, simplify_constants(f)) == value5(m, f)

    @given(formulas, x5_interps)
    def test_value_preserving_n5(self, f, m):
        from eqlx import EvalMode
        assert value5(m, simplify_constants(f), EvalMode.N5) == value5(m, f, EvalMode.N5)


def test_the_reducts_do_not_read_the_sat_relations():
    # the reducts and semantics.sat check each other, so neither may route
    # through the other
    from eqlx import reduct, semantics

    borrowed = [name for name, value in vars(reduct).items()
                if value is semantics or getattr(value, "__module__", None) == "eqlx.semantics"]
    assert borrowed == []
