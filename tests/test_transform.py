import random

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from conftest import formulas, nested_formulas, programs, rules, x5_interps
from genutil import random_program
from reference_rewriters import ref_nnf, ref_push_dneg, ref_simplify_constants, ref_to_regular
from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    CrossEncoding,
    DNeg,
    EvalMode,
    Impl,
    NotInNNF,
    NotRegular,
    Or,
    Program,
    RewriteBudgetExceeded,
    Rule,
    SolveOptions,
    Theory,
    Top,
    XNeg,
    answer_sets,
    atom,
    atoms,
    canonical_print,
    cross_encode,
    enumerate_x5,
    export_asp,
    iff,
    is_nnf,
    is_regular,
    parse_formula,
    parse_program,
    simplify_constants,
    subst_equiv,
    to_nnf,
    to_nnf_program,
    to_regular,
    value5,
    verify_rewrite_rules,
    weak_equiv,
)
from eqlx import reduct, transform
from eqlx.core import as_explicit_literal, postorder
from eqlx.transform import FOLD_RULES, NNF_RULES, REGULAR_RULES, RewriteRule

p, q = atom("p"), atom("q")
P, Q = Atom("p"), Atom("q")
a, b = atom("a"), atom("b")

modes = st.sampled_from([EvalMode.X5, EvalMode.N5])
TABLE_NAMES = {r.name for r in NNF_RULES + REGULAR_RULES + FOLD_RULES}


def _names(trace):
    return {entry.split(" @ ")[0] for entry in trace}


class TestRuleTable:
    def test_every_rule_is_semantically_valid(self):
        assert verify_rewrite_rules() >= 26

    def test_negated_implication_rule_is_weak_only(self):
        left = XNeg(Impl(p, q))
        right = And(DNeg(DNeg(p)), XNeg(q))
        assert weak_equiv(left, right).equivalent
        verdict = subst_equiv(left, right)
        assert not verdict.equivalent
        w = verdict.witness
        assert (w.value_of(P), w.value_of(Q)) == (1, 1)
        assert (int(value5(w, left)), int(value5(w, right))) == (-2, -1)

    def test_triple_default_negation_n5_divergence(self):
        left, right = DNeg(DNeg(DNeg(p))), DNeg(p)
        assert subst_equiv(left, right).equivalent
        from eqlx import X5Interpretation
        m = X5Interpretation.from_values({P: 1})
        assert value5(m, left, EvalMode.N5) == -2
        assert value5(m, right, EvalMode.N5) == -1


    def test_folding_entries_hold_in_both_logics(self):
        assert all(r.modes == (EvalMode.X5, EvalMode.N5) for r in FOLD_RULES)

    def test_traced_regularization_names_are_entries(self):
        assert {"head_dneg_elim", "falsum_rule_split", "drop_trivial_rule"} <= TABLE_NAMES

    def test_not_entries_bind_only_metavariables_under_not(self):
        # ``_dneg_of`` pushes ``not`` onto every binding of a ``not`` entry's
        # match, in the order the left-hand side binds them
        def metavariables(template, parent=None):
            """(name, parent connective) of each metavariable, left to right."""
            if type(template) is AtomRef:
                return [(template.atom.name, parent)]
            children = [getattr(template, n) for n in ("left", "right", "child")
                        if hasattr(template, n)]
            return [m for c in children for m in metavariables(c, type(template))]

        checked = set()
        for rule in REGULAR_RULES:
            if type(rule.lhs) is DNeg:
                rhs = metavariables(rule.rhs)
                assert all(parent is DNeg for _, parent in rhs), rule.name
                bound = dict.fromkeys(name for name, _ in metavariables(rule.lhs))
                assert [name for name, _ in rhs] == list(bound), rule.name
                checked.add(rule.name)
        assert checked >= {"dneg_and", "dneg_or", "dneg_top", "dneg_bot", "triple_dneg"}

    def test_user_atoms_named_like_metavariables(self):
        assert to_nnf(parse_formula("~(b & a)")) == parse_formula("~b | ~a")
        assert simplify_constants(parse_formula("top & b -> a")) == Impl(b, a)
        assert to_regular(parse_program("not (b & a) -> c.")) == \
            parse_program("not b -> c.\nnot a -> c.")


def _tampered(table, name, rhs):
    return tuple(RewriteRule(r.name, r.lhs, rhs, r.strength, r.modes) if r.name == name else r
                 for r in table)


class TestTablesAreTheRewriters:
    @pytest.mark.parametrize("table, name, rhs, rewrite, before, after", [
        ("NNF_RULES", "xneg_and", And(XNeg(a), XNeg(b)),
         lambda: to_nnf(parse_formula("~(p & q)")), "~p | ~q", "~p & ~q"),
        ("REGULAR_RULES", "dneg_and", And(DNeg(a), DNeg(b)),
         lambda: to_regular(parse_program("not (p & q) -> r.")),
         "not p -> r.\nnot q -> r.", "not p & not q -> r."),
        ("FOLD_RULES", "top_impl", TOP,
         lambda: simplify_constants(parse_formula("top -> p")), "p", "top"),
    ])
    def test_a_wrong_entry_fails_verification_and_changes_the_output(
            self, monkeypatch, table, name, rhs, rewrite, before, after):
        parse = parse_formula if table != "REGULAR_RULES" else parse_program
        assert rewrite() == parse(before)
        monkeypatch.setattr(transform, table, _tampered(getattr(transform, table), name, rhs))
        with pytest.raises(AssertionError, match=name):
            verify_rewrite_rules()
        monkeypatch.setattr(transform, "_ensure_verified", lambda: None)
        assert rewrite() == parse(after)

    # the first failing point in enumerate_x5 order, once per failing mode
    @pytest.mark.parametrize("table, name, rhs, modes, failures", [
        # weak: ``~(a -> b)`` is not weakly ``a & ~b`` in X5, first where a is
        # only true by default and b is proved false
        ("NNF_RULES", "xneg_impl", And(a, XNeg(b)), None,
         "xneg_impl fails in x5 at <{~b}, {a, ~b}>"),
        ("NNF_RULES", "xneg_or", And(a, XNeg(b)), None,
         "xneg_or fails in x5 at <{}, {a}>; xneg_or fails in n5 at <{}, {a}>"),
        # holds in X5; in N5 the values of ``not not not a`` and ``not a``
        # first differ where a is true by default
        ("REGULAR_RULES", "triple_dneg", None, (EvalMode.X5, EvalMode.N5),
         "triple_dneg fails in n5 at <{}, {a}>"),
    ])
    def test_failure_names_the_entry_mode_and_first_failing_point(
            self, monkeypatch, table, name, rhs, modes, failures):
        entries = tuple(
            RewriteRule(r.name, r.lhs, rhs or r.rhs, r.strength, modes or r.modes)
            if r.name == name else r for r in getattr(transform, table))
        monkeypatch.setattr(transform, table, entries)
        with pytest.raises(AssertionError) as err:
            verify_rewrite_rules()
        assert str(err.value) == "rewrite table is unsound: " + failures

    def test_every_entry_is_checked_once_per_mode(self):
        entries = dict.fromkeys(NNF_RULES + REGULAR_RULES + FOLD_RULES)
        assert verify_rewrite_rules() == sum(len(r.modes) for r in entries) == 53


class TestTablesMatchHandWrittenRewriters:
    @given(formulas, modes, st.booleans())
    @example(parse_formula("~(a & not b -> ~ ~c | top)"), EvalMode.X5, True)
    @example(parse_formula("~ not ~(a -> bot)"), EvalMode.N5, True)
    @settings(max_examples=200)
    def test_nnf(self, f, mode, traced):
        got, want = ([], []) if traced else (None, None)
        assert to_nnf(f, mode, got) == ref_nnf(f, mode, want)
        assert got == want

    @given(formulas, modes, st.booleans())
    @example(parse_formula("not not not (a & (not top | not not not b)) | not (bot | c)"),
             EvalMode.X5, True)
    @settings(max_examples=200)
    def test_push_dneg(self, f, mode, traced):
        rules = transform._table(REGULAR_RULES)
        for g in (to_nnf(f, mode), DNeg(DNeg(DNeg(to_nnf(f, mode))))):
            got, want = ([], []) if traced else (None, None)
            assert transform._push_dneg(g, rules, got, "rule 0") == ref_push_dneg(g, want, "rule 0")
            assert got == want

    @given(formulas)
    @example(parse_formula("(bot & a | top & ~ ~b) -> not (top -> ~top) | (a -> top)"))
    @settings(max_examples=200)
    def test_simplify_constants(self, f):
        assert simplify_constants(f) == ref_simplify_constants(f)

    @given(programs, st.booleans(), st.booleans())
    # traced twice by the reference: one note per item, counted before the
    # duplicate ``not q`` is dropped
    @example(parse_program("p -> not q | not q | r."), True, True)
    @example(parse_program("not not a & not not a -> b | not not c | not not c."), False, True)
    @example(parse_program("not not a & not not a -> b | not not c | not not c."), True, True)
    @example(parse_program("p & not not q -> r | not not s | not r.\nnot not p -> not not p."),
             True, True)
    # a shifted item that the other side already holds is not added again
    @example(parse_program("not not q & not r -> not q | not not r."), False, False)
    # a head item moved into the body is not added again after the body's own
    @example(parse_program("not not a & b -> not a | c."), True, True)
    # an alternative that repeats items, and one made only of ``not not`` items
    @example(parse_program("a & b & a & not not c & not not c -> d | not e | d | not e."),
             True, True)
    @example(parse_program("not not a & not not b & not not a -> not not c | not not a."),
             True, True)
    @example(parse_program("not not a & not not b -> not not c | not not c."), False, True)
    # a head's shifted ``not not`` items go across before its ``not`` items
    @example(parse_program("a -> not c | not not b."), True, True)
    @settings(max_examples=300)
    def test_to_regular(self, prog, eliminate_head_dneg, traced):
        self._check_to_regular(prog, eliminate_head_dneg, traced)

    @given(st.builds(Program, st.lists(rules, max_size=30)), st.booleans(), st.booleans())
    @settings(max_examples=100)
    def test_to_regular_on_longer_programs(self, prog, eliminate_head_dneg, traced):
        self._check_to_regular(prog, eliminate_head_dneg, traced)

    @staticmethod
    def _check_to_regular(prog, eliminate_head_dneg, traced):
        nnf = to_nnf_program(prog)
        got, want = ([], []) if traced else (None, None)
        assert list(to_regular(nnf, eliminate_head_dneg, got)) == list(
            ref_to_regular(nnf, eliminate_head_dneg, want))
        assert got == want

    @pytest.mark.parametrize("eliminate_head_dneg", [False, True])
    def test_distribution_prints_as_the_reference(self, eliminate_head_dneg):
        # each body alternative keeps one item, and every head clause moves
        # its ``not not`` items (and, under elimination, its ``not`` items)
        # into the body, so the rules extend two chains, and one node of the
        # extensions stands for each chain extended by an item
        prog = parse_program(
            "a1 | a2 -> (not b1 & not b2) | (not ~b3 & not b4) | (not b5 & not not b6).\n"
            "~c1 | not c2 -> (not not d1 & not not d2) | (not not ~d3 & d4).\n")
        got = to_regular(prog, eliminate_head_dneg)
        want = ref_to_regular(prog, eliminate_head_dneg)
        assert canonical_print(got) == canonical_print(want)
        assert export_asp(got) == export_asp(want)
        extensions = {}  # (id of the chain extended, item): the ids of the results
        for r in got:
            f = r.body
            while type(f) is And:
                extensions.setdefault((id(f.left), f.right), set()).add(id(f))
                f = f.left
        assert extensions and all(len(ids) == 1 for ids in extensions.values())

    def test_an_extension_keeps_its_join(self):
        # a body and a head that are one literal node, extended by one item
        built = {}
        item = DNeg(q)
        body = transform._Side([p], False, False, built)
        head = transform._Side([p], True, False, built)
        other = transform._Side([DNeg(item)], False, False, built)  # moves ``item`` across
        assert transform._extend(body, other, And, built) == And(p, item)
        assert transform._extend(head, other, Or, built) == Or(p, item)

    def test_folding_moved_out_of_the_reducts(self):
        assert "simplify_constants" not in reduct.__all__
        assert not hasattr(reduct, "simplify_constants")


class TestTraceNamesAreVerifiedEntries:
    @given(formulas, modes)
    def test_nnf(self, f, mode):
        trace = []
        to_nnf(f, mode, trace)
        assert _names(trace) <= TABLE_NAMES

    @given(programs, st.booleans())
    @example(parse_program("bot."), False)
    @example(parse_program("bot -> p.\np -> top."), False)
    @example(parse_program("p -> q | not r."), True)
    @example(parse_program("p & not not q -> r | not not s."), True)
    @settings(max_examples=150)
    def test_regular(self, prog, eliminate_head_dneg):
        trace = []
        to_regular(to_nnf_program(prog, trace=trace), eliminate_head_dneg, trace)
        assert _names(trace) <= TABLE_NAMES


class TestNNF:
    def test_negated_contradiction(self):
        got = to_nnf(parse_formula("~(p & not p)"))
        assert got == parse_formula("~p | not not p")

    def test_worked_reduction(self):
        got = to_nnf(parse_formula("~(a -> ~b & (c -> d))"))
        assert got == parse_formula("not not a & (b | not not c & ~d)")

    def test_double_explicit_negation_fires_first(self):
        got = to_nnf(parse_formula("~ ~(p -> q)"))
        assert got == Impl(p, q)

    def test_modes_differ_on_negated_default_negation(self):
        f = parse_formula("~ not p -> p")
        assert to_nnf(f) == parse_formula("not not p -> p")
        assert to_nnf(f, EvalMode.N5) == parse_formula("p -> p")

    def test_n5_strips_one_pair_from_longer_chains(self):
        f = parse_formula("~ not not not p -> p")
        assert to_nnf(f, EvalMode.N5) == parse_formula("not not p -> p")

    def test_classical_mode_rejected(self):
        with pytest.raises(ValueError):
            to_nnf(p, EvalMode.CLASSICAL)

    @given(formulas)
    def test_output_shape(self, f):
        assert is_nnf(to_nnf(f))
        assert is_nnf(to_nnf(f, EvalMode.N5))

    @given(formulas)
    def test_weakly_equivalent_in_x5(self, f):
        assert weak_equiv(f, to_nnf(f)).equivalent

    @given(formulas, x5_interps)
    def test_weakly_equivalent_in_n5(self, f, m):
        target = iff(f, to_nnf(f, EvalMode.N5))
        assert value5(m, target, EvalMode.N5) == 2

    @given(nested_formulas)
    def test_nested_inputs_keep_their_value(self, f):
        assert subst_equiv(f, to_nnf(f)).equivalent

    def test_is_nnf_reads_rules_programs_and_theories(self):
        nnf, not_nnf = Rule(XNeg(p), DNeg(q)), Rule(p, Or(q, XNeg(And(p, q))))
        assert is_nnf(nnf) and not is_nnf(not_nnf)
        assert is_nnf(Program([nnf]))
        assert not is_nnf(Program([nnf, not_nnf]))
        assert is_nnf(Theory([Impl(XNeg(p), q), TOP]))
        assert not is_nnf(Theory([Impl(XNeg(p), q), XNeg(And(p, q))]))
        for x in (3, "p"):
            with pytest.raises(TypeError, match="cannot .* " + type(x).__name__):
                is_nnf(x)

    def test_trace_records_applications(self):
        trace = []
        to_nnf(parse_formula("~(p & not p)"), trace=trace)
        assert trace[0].startswith("xneg_and")
        assert any(entry.startswith("xneg_dneg") for entry in trace)


class TestNNFOfSharedSubformulas:
    def test_untraced_nnf_rewrites_each_distinct_node_once(self, monkeypatch):
        # 17 arrows: the unfolded tree has about 786 000 nodes
        f = parse_formula(" <-> ".join(["p"] * 18))
        calls = []
        nnf = transform._nnf

        def counting(g, *args):
            calls.append(id(g))
            return nnf(g, *args)

        monkeypatch.setattr(transform, "_nnf", counting)
        assert to_nnf(f) is f
        distinct = set()
        for g in postorder((f,), distinct):
            distinct.add(id(g))
        assert len(calls) <= 2 * len(distinct)

    @pytest.mark.parametrize("arrow", ["<->", "<=>"])
    @pytest.mark.parametrize("arrows", range(1, 9))
    def test_untraced_text_is_the_traced_text(self, arrow, arrows):
        chain = f" {arrow} ".join(["p"] * (arrows + 1))
        # a negated chain is rewritten, in each mode its own way; it unfolds
        # with or without a trace, so it stays short
        runs = [(chain, EvalMode.X5)]
        if arrows <= 4:
            runs += [(f"~({chain})", mode) for mode in (EvalMode.X5, EvalMode.N5)]
        for text, mode in runs:
            f = parse_formula(text)
            trace = []
            traced = to_nnf(f, mode, trace)
            assert trace or not text.startswith("~(")
            assert canonical_print(to_nnf(f, mode)) == canonical_print(traced)


class TestRegularization:
    def test_bird_rule(self):
        prog = parse_program("not (bird & ~flies) -> ~(bird & ~flies).")
        got = to_regular(to_nnf_program(prog))
        expected = parse_program(
            "not bird -> ~bird | flies.\nnot ~flies -> ~bird | flies.")
        assert got == expected
        assert all(is_regular(r) for r in got)

    def test_negated_contradiction_fact(self):
        got = to_regular(parse_program("~p | not not p."))
        assert got == parse_program("not p -> ~p.")

    def test_idempotent_on_regular_programs(self):
        prog = parse_program("not p -> ~p | q.\nq & ~p -> bot.")
        assert to_regular(prog) == prog

    def test_requires_nnf(self):
        with pytest.raises(NotInNNF):
            to_regular(parse_program("~(p & q) -> r."))

    def test_head_default_literals_allowed(self):
        got = to_regular(parse_program("not p."))
        assert got == parse_program("not p.")
        assert all(is_regular(r) for r in got)

    def test_head_default_negation_elimination(self):
        got = to_regular(parse_program("not p."), eliminate_head_dneg=True)
        assert got == Program([Rule(DNeg(DNeg(p)), BOT)])

    def test_falsum_rule_over_empty_signature(self):
        got = to_regular(parse_program("bot."))
        assert len(got) == 2
        base = parse_program("bot.")
        sig = {Atom("unsat0")}
        assert answer_sets(base, SolveOptions(signature=sig)) == \
            answer_sets(got, SolveOptions(signature=sig))

    def test_falsum_rule_reuses_program_atoms(self):
        got = to_regular(parse_program("q.\nbot."))
        assert atoms(got) == {Q}

    def test_budget_guard(self):
        # 2^17 body alternatives exceed the budget of 100 000
        wide = " & ".join(f"(a{i} | b{i})" for i in range(17)) + " -> c."
        with pytest.raises(RewriteBudgetExceeded):
            to_regular(parse_program(wide))

    def test_head_shifts_its_not_not_items_before_it_moves_its_not_items(self):
        trace = []
        got = to_regular(parse_program("a -> not c | not not b."), True, trace)
        assert canonical_print(got) == "a & not b & not not c -> bot.\n"
        assert export_asp(got) == ":- a, not b, not not c.\n"
        assert trace == ["head_dneg_shift @ rule 0", "head_dneg_elim @ rule 0"]

    # pinned at the regularizer that split each pair's lists apart
    @pytest.mark.parametrize("eliminate_head_dneg, expected, eliminated", [
        (False, "a & b -> d | not e | not c", 0),
        # the head's moved ``not e`` comes before the body's own ``not not c``
        (True, "a & b & not not e & not not c -> d", 4),
    ])
    def test_an_alternative_that_repeats_items(self, eliminate_head_dneg, expected, eliminated):
        prog = parse_program("a & b & a & not not c & not not c -> d | not e | d | not e.")
        trace = []
        got = to_regular(prog, eliminate_head_dneg, trace)
        assert canonical_print(got) == expected + ".\n"
        assert trace == (["body_dneg_shift @ rule 0"] * 2
                         + ["head_dneg_elim @ rule 0"] * eliminated)

    @pytest.mark.parametrize("eliminate_head_dneg, expected, eliminated", [
        (False, "not c & not a -> not a | not b", 0),
        (True, "not c & not a & not not a & not not b -> bot", 3),
    ])
    def test_an_alternative_of_not_not_items_only(self, eliminate_head_dneg, expected,
                                                  eliminated):
        prog = parse_program("not not a & not not b & not not a -> not not c | not not a.")
        trace = []
        got = to_regular(prog, eliminate_head_dneg, trace)
        assert canonical_print(got) == expected + ".\n"
        assert trace == (["body_dneg_shift @ rule 0"] * 3 + ["head_dneg_shift @ rule 0"] * 2
                         + ["head_dneg_elim @ rule 0"] * eliminated)

    @pytest.mark.parametrize("text, bad", [
        # the later rule's body is fine and fires an entry; its head is not NNF
        ("not (a & b) -> c.\nnot (d & e) -> ~(p | q).", 1),
        ("not (a & b) -> c.\n~(p & q) -> not (d & e).", 1),
        ("~~p -> q.", 0),
    ])
    def test_a_rule_not_in_nnf_keeps_the_earlier_rules_trace(self, text, bad):
        prog = parse_program(text)
        trace, earlier = [], []
        to_regular(Program(list(prog)[:bad]), False, earlier)
        with pytest.raises(NotInNNF) as err:
            to_regular(prog, False, trace)
        rule = list(prog)[bad]
        assert str(err.value) == f"rule {bad} is not in negation normal form: {rule!r}"
        assert trace == earlier
        assert earlier == ([] if bad == 0 else ["dneg_and @ rule 0", "body_or_split @ rule 0"])

    @given(programs)
    @settings(max_examples=80)
    def test_regular_shape(self, prog):
        got = to_regular(to_nnf_program(prog))
        assert all(is_regular(r) for r in got)

    @given(programs)
    @settings(max_examples=80)
    def test_answer_sets_preserved(self, prog):
        opts = SolveOptions(signature=atoms(prog))
        regular = to_regular(to_nnf_program(prog))
        assert answer_sets(prog, opts) == answer_sets(regular, opts)

    def test_seeded_preservation_with_head_elimination(self):
        rng = random.Random(7041)
        for _ in range(60):
            prog = random_program(rng, names=("p", "q"), max_rules=2, depth=2)
            opts = SolveOptions(signature=atoms(prog))
            flat = to_regular(to_nnf_program(prog), eliminate_head_dneg=True)
            assert answer_sets(prog, opts) == answer_sets(flat, opts)


class TestExport:
    def test_default_rule(self):
        prog = Program([Rule(DNeg(p), XNeg(p))])
        assert export_asp(prog) == "-p :- not p.\n"

    def test_fact(self):
        prog = parse_program("bird.")
        assert export_asp(prog) == "bird.\n"

    def test_constraint(self):
        prog = parse_program("bird & not flies -> bot.")
        assert export_asp(prog) == ":- bird, not flies.\n"

    def test_disjunctive_head_spacing(self):
        prog = parse_program("not bird -> ~bird | flies.")
        assert export_asp(prog) == "~bird".replace("~", "-") + " ; flies :- not bird.\n"

    def test_double_negation_bodies(self):
        prog = to_regular(parse_program("not p."), eliminate_head_dneg=True)
        assert export_asp(prog) == ":- not not p.\n"

    def test_rejects_non_regular(self):
        with pytest.raises(NotRegular):
            export_asp(Program([Rule(XNeg(And(p, q)), p)]))

    def test_order_and_trailing_newline(self):
        prog = parse_program("bird.\nnot bird -> ~bird | flies.")
        assert export_asp(prog) == "bird.\n-bird ; flies :- not bird.\n"


def _previous_export(p):
    """The exporter before literals were memoized: an ``ExplicitLiteral`` per
    printed literal, chains rendered once by id."""
    heads, bodies, lines = {}, {}, []

    def render(f, rendered, join, sep, i, allow_double=False):
        spine = []
        while isinstance(f, join) and id(f) not in rendered:
            spine.append(f)
            f = f.left
        text = rendered.get(id(f))
        if text is None:
            text = literal(f, i, allow_double)
        for chain in reversed(spine):
            right = chain.right
            right_text = (render(right, rendered, join, sep, i, allow_double)
                          if isinstance(right, join) else literal(right, i, allow_double))
            text = rendered[id(chain)] = text + sep + right_text
        return text

    def literal(f, i, allow_double):
        if isinstance(f, DNeg):
            inner = f.child
            if allow_double and isinstance(inner, DNeg):
                lit = as_explicit_literal(inner.child)
                if lit is not None:
                    return "not not " + explicit(lit)
            lit = as_explicit_literal(inner)
            if lit is not None:
                return "not " + explicit(lit)
        else:
            lit = as_explicit_literal(f)
            if lit is not None:
                return explicit(lit)
        raise NotRegular(f"rule {i} is not regular at {f!r}")

    def explicit(lit):
        return ("-" if lit.negated else "") + lit.atom.name

    for i, r in enumerate(p):
        if isinstance(r.body, Top) and isinstance(r.head, Bot):
            raise NotRegular(f"rule {i} has an empty body and an empty head")
        head_txt = "" if isinstance(r.head, Bot) else render(r.head, heads, Or, " ; ", i)
        if isinstance(r.body, Top):
            lines.append(f"{head_txt}.")
        else:
            body_txt = render(r.body, bodies, And, ", ", i, allow_double=True)
            lines.append(f"{head_txt} :- {body_txt}." if head_txt else f":- {body_txt}.")
    return "".join(line + "\n" for line in lines)


_LITERALS = [atom(n) for n in "pqr"] + [XNeg(atom(n)) for n in "pqr"]
_HEAD_ITEMS = _LITERALS + [DNeg(x) for x in _LITERALS]
_BODY_ITEMS = _HEAD_ITEMS + [DNeg(DNeg(x)) for x in _LITERALS]
# items that no regular rule holds
_NOT_REGULAR = [TOP, BOT, XNeg(XNeg(p)), DNeg(DNeg(DNeg(p))), XNeg(DNeg(p)), Or(p, q),
                And(p, q), DNeg(And(p, q))]


@st.composite
def regular_programs(draw):
    """Rules whose sides extend the chains of earlier rules by shared
    literal nodes, as regularization builds them; in one program of four,
    an item may also be one that is not regular on its side, such as
    ``not not p`` in a head."""
    spoiled = draw(st.integers(0, 3)) == 0
    bodies, heads = [TOP], [BOT]
    rules = []
    for _ in range(draw(st.integers(1, 10))):
        for chains, join, items in ((bodies, And, _BODY_ITEMS), (heads, Or, _HEAD_ITEMS)):
            if spoiled:
                items = _BODY_ITEMS + _NOT_REGULAR
            base = chains[draw(st.integers(0, len(chains) - 1))]
            for _ in range(draw(st.integers(0 if len(chains) > 1 else 1, 3))):
                item = draw(st.sampled_from(items))
                base = item if base in (TOP, BOT) else join(base, item)
            chains.append(base)
        rules.append(Rule(bodies[-1], heads[-1]))
    return Program(rules)


class TestExportMatchesThePreviousExporter:
    @given(regular_programs())
    @example(Program([Rule(TOP, Or(p, XNeg(q))), Rule(And(DNeg(p), DNeg(DNeg(q))), p),
                      Rule(DNeg(DNeg(q)), Or(p, XNeg(q)))]))
    @example(Program([Rule(p, q), Rule(DNeg(DNeg(DNeg(q))), p)]))
    # one node, rendered in a body, is still not regular in a head
    @example(Program([Rule(_BODY_ITEMS[-1], p), Rule(p, _BODY_ITEMS[-1])]))
    @settings(max_examples=300)
    def test_text_or_error(self, prog):
        def outcome(export):
            try:
                return export(prog)
            except NotRegular as exc:
                return "NotRegular", str(exc)

        assert outcome(export_asp) == outcome(_previous_export)


class TestCrossEncoding:
    def test_atoms_fixed(self):
        assert cross_encode(p, CrossEncoding.N5_IN_X5) == p
        assert cross_encode(p, CrossEncoding.X5_IN_N5) == p

    def test_a_non_formula_is_refused(self):
        for d in CrossEncoding:
            with pytest.raises(TypeError, match="cannot encode int"):
                cross_encode(3, d)

    def test_implication_table_equality(self):
        f = Impl(p, q)
        for m in enumerate_x5([P, Q]):
            assert value5(m, f, EvalMode.N5) == \
                value5(m, cross_encode(f, CrossEncoding.N5_IN_X5))
            assert value5(m, f) == \
                value5(m, cross_encode(f, CrossEncoding.X5_IN_N5), EvalMode.N5)

    def test_default_negation_table_equality(self):
        f = DNeg(p)
        for m in enumerate_x5([P]):
            assert value5(m, f, EvalMode.N5) == \
                value5(m, cross_encode(f, CrossEncoding.N5_IN_X5))
            assert value5(m, f) == \
                value5(m, cross_encode(f, CrossEncoding.X5_IN_N5), EvalMode.N5)

    @given(formulas, x5_interps)
    def test_compositional_on_arbitrary_formulas(self, f, m):
        assert value5(m, f, EvalMode.N5) == \
            value5(m, cross_encode(f, CrossEncoding.N5_IN_X5))

    @given(formulas, x5_interps)
    def test_compositional_reverse_direction(self, f, m):
        assert value5(m, f) == \
            value5(m, cross_encode(f, CrossEncoding.X5_IN_N5), EvalMode.N5)
