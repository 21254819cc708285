"""Acceptance suite: one test per exit criterion, one PASS line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
checks are exact (the semantics is small-integer arithmetic); the randomized
properties in criterion 10 run at least one thousand seeded cases each.
"""

import random

import reference_tables as ref
from genutil import random_formula, random_ht_pair, random_interpretation, \
    random_nested, random_program, random_x5
from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    CrossEncoding,
    DNeg,
    EvalMode,
    ExplicitLiteral,
    Impl,
    Interpretation,
    Or,
    SolveOptions,
    Theory,
    X5Interpretation,
    XNeg,
    answer_sets,
    atom,
    atoms,
    classical_sat,
    cross_encode,
    discriminating_context,
    enumerate_x5,
    equilibrium_models,
    equilibrium_models_ferraris,
    fals,
    ferraris_minus,
    ferraris_plus,
    is_model,
    is_valid,
    parse_formula,
    parse_interpretation,
    parse_program,
    reduct_nested,
    reduct_program,
    sat,
    simplify_constants,
    subst_equiv,
    substitute,
    to_nnf,
    to_nnf_program,
    to_regular,
    value5,
    weak_equiv,
    x5_fals,
    x5_sat,
)

p, q, g = atom("p"), atom("q"), atom("g")
P, Q = Atom("p"), Atom("q")

RULE2_TEXT = "not (bird & ~flies) -> ~(bird & ~flies).\n"


def report(number, text):
    print(f"PASS criterion {number:>2}: {text}")


def models_of(source, extra=""):
    return [str(m) for m in answer_sets(parse_program(source + extra))]


def test_criterion_01_single_default_rule():
    prog = parse_program("~ not p -> p.")
    expected = [Interpretation(), Interpretation([ExplicitLiteral(P)])]
    assert answer_sets(prog) == expected
    assert equilibrium_models(prog) == expected
    assert equilibrium_models_ferraris(prog) == expected
    report(1, "double-negation rule has answer sets {} and {p} on all engines")


def test_criterion_02_bird_default_matrix():
    # The two middle cells include the added fact literal: every answer set
    # must satisfy its facts, as the last cell shows; see the decisions log.
    cases = [
        ("", ["{flies}", "{~bird}"]),
        ("bird.", ["{bird, flies}"]),
        ("~flies.", ["{~bird, ~flies}"]),
        ("bird. ~flies.", ["{bird, ~flies}"]),
    ]
    for extra, expected in cases:
        got = models_of(RULE2_TEXT, extra)
        assert sorted(got) == sorted(expected), (extra, got)
    report(2, "bird/flies default matrix resolves as computed from the reduct")


def test_criterion_03_weak_equivalence_is_not_a_congruence():
    contradiction = parse_program("~(p & not p).")
    assert [str(m) for m in answer_sets(contradiction)] == ["{~p}"]
    swapped = parse_program("~bot.")
    opts = SolveOptions(signature={P})
    assert [str(m) for m in answer_sets(swapped, opts)] == ["{}"]
    assert weak_equiv(And(p, DNeg(p)), BOT).equivalent
    report(3, "replacing p & not p by bot inside ~ changes the answer sets")


def test_criterion_04_positive_reduct_examples():
    rule2 = parse_formula(RULE2_TEXT.strip().rstrip("."))
    cases = [("{~bird}", "~bird"), ("{flies}", "flies"), ("{bird}", "bot")]
    for t_text, expected in cases:
        t = parse_interpretation(t_text)
        assert simplify_constants(ferraris_plus(rule2, t)) == parse_formula(expected)
    report(4, "positive reduct of the bird rule simplifies to ~bird / flies / bot")


def test_criterion_05_truth_table_regression():
    from eqlx import iff, strong_iff

    def cell(a, b):
        return X5Interpretation.from_values({P: a, Q: b})

    binary = [(ref.X5_AND, And(p, q), EvalMode.X5),
              (ref.X5_OR, Or(p, q), EvalMode.X5),
              (ref.X5_IMPL, Impl(p, q), EvalMode.X5),
              (ref.X5_IFF, iff(p, q), EvalMode.X5),
              (ref.X5_STRONG_IFF, strong_iff(p, q), EvalMode.X5),
              (ref.N5_IMPL, Impl(p, q), EvalMode.N5)]
    checked = 0
    for table, f, mode in binary:
        for i, a in enumerate(ref.VALUES):
            for j, b in enumerate(ref.VALUES):
                assert value5(cell(a, b), f, mode) == table[i][j]
                checked += 1
    for i, a in enumerate(ref.VALUES):
        m = X5Interpretation.from_values({P: a})
        assert value5(m, XNeg(p)) == ref.X5_XNEG[i]
        assert value5(m, DNeg(p)) == ref.X5_DNEG[i]
        assert value5(m, DNeg(p), EvalMode.N5) == ref.N5_DNEG[i]
        checked += 3
    assert checked == 6 * 25 + 15
    report(5, f"all {checked} frozen truth-table cells reproduced exactly")


def test_criterion_06_tautology_battery():
    a, b, c = atom("a"), atom("b"), atom("c")
    assert is_valid(Impl(XNeg(a), DNeg(a))).equivalent  # coherence

    value_preserving = [
        (XNeg(TOP), BOT),
        (XNeg(BOT), TOP),
        (XNeg(And(a, b)), Or(XNeg(a), XNeg(b))),
        (XNeg(Or(a, b)), And(XNeg(a), XNeg(b))),
        (XNeg(XNeg(a)), a),
        (XNeg(DNeg(a)), DNeg(DNeg(a))),
        (And(a, Or(b, c)), Or(And(a, b), And(a, c))),
        (Or(a, And(b, c)), And(Or(a, b), Or(a, c))),
        (And(a, BOT), BOT),
        (Or(a, TOP), TOP),
        (And(a, TOP), a),
        (Or(a, BOT), a),
        (DNeg(And(a, b)), Or(DNeg(a), DNeg(b))),
        (DNeg(Or(a, b)), And(DNeg(a), DNeg(b))),
        (DNeg(TOP), BOT),
        (DNeg(BOT), TOP),
        (DNeg(DNeg(DNeg(a))), DNeg(a)),
        (Impl(a, And(b, c)), And(Impl(a, b), Impl(a, c))),
        (Impl(Or(a, b), c), And(Impl(a, c), Impl(b, c))),
        (Impl(And(a, DNeg(DNeg(b))), c), Impl(a, Or(c, DNeg(b)))),
        (Impl(a, Or(c, DNeg(DNeg(b)))), Impl(And(a, DNeg(b)), c)),
    ]
    for lhs, rhs in value_preserving:
        assert subst_equiv(lhs, rhs).equivalent, (lhs, rhs)

    # the negated-implication unfolding is weakly valid but not a congruence
    lhs = XNeg(Impl(a, b))
    rhs = And(DNeg(DNeg(a)), XNeg(b))
    assert weak_equiv(lhs, rhs).equivalent
    verdict = subst_equiv(lhs, rhs)
    w = verdict.witness
    assert (w.value_of(Atom("a")), w.value_of(Atom("b"))) == (1, 1)
    assert (int(value5(w, lhs)), int(value5(w, rhs))) == (-2, -1)
    report(6, f"coherence plus {len(value_preserving)} value-preserving "
              "equivalences hold; the weak-only unfolding fails at (1, 1)")


def test_criterion_07_n5_divergence_and_cross_encodings():
    triple, single = DNeg(DNeg(DNeg(p))), DNeg(p)
    assert subst_equiv(triple, single).equivalent
    m = X5Interpretation.from_values({P: 1})
    assert value5(m, triple, EvalMode.N5) == -2
    assert value5(m, single, EvalMode.N5) == -1

    for f in (Impl(p, q), DNeg(p), Impl(DNeg(p), XNeg(q))):
        for m in enumerate_x5(sorted(atoms(f))):
            assert value5(m, f, EvalMode.N5) == \
                value5(m, cross_encode(f, CrossEncoding.N5_IN_X5))
            assert value5(m, f, EvalMode.X5) == \
                value5(m, cross_encode(f, CrossEncoding.X5_IN_N5), EvalMode.N5)
    report(7, "triple default negation separates the modes; cross-encodings "
              "reproduce the opposite tables exhaustively")


def test_criterion_08_normal_form_divergence_on_the_intro_rule():
    f = parse_formula("~ not p -> p")
    n5_form = to_nnf(f, EvalMode.N5)
    assert n5_form == parse_formula("p -> p")
    assert [str(m) for m in equilibrium_models(Theory([n5_form]))] == ["{}"]

    x5_form = to_nnf(f)
    assert x5_form == parse_formula("not not p -> p")
    transformed = [str(m) for m in equilibrium_models(Theory([x5_form]))]
    untouched = [str(m) for m in equilibrium_models(Theory([f]))]
    assert transformed == untouched == ["{}", "{p}"]
    report(8, "the two normal forms of the double-negation rule diverge "
              "exactly as their equilibrium models show")


def test_criterion_09_nnf_respects_negation_scope():
    f = parse_formula("~ ~(p -> q)")
    normal = to_nnf(f)
    assert normal == Impl(p, q)
    assert subst_equiv(normal, Impl(p, q)).equivalent

    naive = parse_formula("not p | q")
    assert not weak_equiv(Impl(p, q), naive).equivalent
    verdict = discriminating_context(Impl(p, q), naive)
    assert verdict.context is not None
    report(9, "double explicit negation cancels before the weak-only rule; "
              "the naive unfolding is separated by a synthesised context")


CASES = 1000


def _mixed_names(rng):
    return ("p", "q", "r") if rng.random() < 0.2 else ("p", "q")


def test_criterion_10_randomized_property_suite():
    checked = {}

    rng = random.Random(101)
    for _ in range(CASES):
        f = random_formula(rng, _mixed_names(rng))
        m = random_x5(rng)
        total = m.total_version()
        if x5_sat(m, f):
            assert x5_sat(total, f)
        if x5_fals(m, f):
            assert x5_fals(total, f)
    checked["persistence"] = CASES

    rng = random.Random(102)
    for _ in range(CASES):
        f = random_formula(rng, _mixed_names(rng))
        m = random_x5(rng)
        v = value5(m, f)
        total = m.total_version()
        assert x5_sat(m, f) == (v == 2)
        assert x5_sat(total, f) == (v > 0)
        assert x5_fals(m, f) == (v == -2)
        assert x5_fals(total, f) == (v < 0)
    checked["five-valued correspondence"] = CASES

    rng = random.Random(103)
    for _ in range(CASES):
        f = random_nested(rng, _mixed_names(rng))
        m = random_x5(rng)
        reduced = reduct_nested(f, m.there)
        assert x5_sat(m, f) == sat(m.here, reduced)
        assert x5_fals(m, f) == fals(m.here, reduced)
    checked["here-world reduct characterisation"] = CASES

    rng = random.Random(104)
    for _ in range(CASES):
        f = random_nested(rng, _mixed_names(rng))
        t = random_interpretation(rng)
        reduced = reduct_nested(f, t)
        assert sat(t, f) == sat(t, reduced)
        assert fals(t, f) == fals(t, reduced)
    checked["total-model reduct fixpoint"] = CASES

    rng = random.Random(105)
    for _ in range(CASES):
        prog = random_program(rng, _mixed_names(rng))
        m = random_ht_pair(rng, random_interpretation(rng))
        reduced = reduct_program(prog, m.there)
        h_models = all((not sat(m.here, r.body)) or sat(m.here, r.head)
                       for r in reduced)
        t_models = all((not sat(m.there, r.body)) or sat(m.there, r.head)
                       for r in prog)
        assert is_model(m, prog) == (h_models and t_models)
    checked["program reduct characterisation"] = CASES

    rng = random.Random(106)
    for _ in range(CASES):
        f = random_formula(rng, _mixed_names(rng))
        m = random_x5(rng)
        at_here = X5Interpretation(m.here, m.here)
        assert x5_sat(at_here, ferraris_plus(f, m.there)) == x5_sat(m, f)
        assert x5_fals(at_here, ferraris_minus(f, m.there)) == x5_fals(m, f)
    checked["dual reduct correctness"] = CASES

    rng = random.Random(107)
    for _ in range(CASES):
        f = random_nested(rng, _mixed_names(rng))
        m = random_x5(rng)
        h, t = m.here, m.there
        at_here = X5Interpretation(h, h)
        assert sat(h, reduct_nested(f, t)) == \
            (sat(t, f) and x5_sat(at_here, ferraris_plus(f, t)))
        assert fals(h, reduct_nested(f, t)) == \
            (fals(t, f) and x5_fals(at_here, ferraris_minus(f, t)))
    checked["bridge between the reducts"] = CASES

    rng = random.Random(108)
    for _ in range(CASES):
        prog = random_program(rng, _mixed_names(rng))
        first = answer_sets(prog)
        assert first == equilibrium_models(prog)
        assert first == equilibrium_models_ferraris(prog)
        for t in first:
            assert all((not sat(t, r.body)) or sat(t, r.head) for r in prog)
    checked["three-engine agreement"] = CASES

    a, b = atom("a"), atom("b")
    subst_pairs = [(XNeg(XNeg(a)), a),
                   (DNeg(DNeg(DNeg(a))), DNeg(a)),
                   (And(a, b), And(b, a)),
                   (XNeg(And(a, b)), Or(XNeg(a), XNeg(b))),
                   (Or(a, BOT), a)]
    rng = random.Random(109)
    for _ in range(CASES):
        lhs, rhs = rng.choice(subst_pairs)
        phi = random_formula(rng, ("s", "q"), depth=2)
        assert subst_equiv(substitute(phi, Atom("s"), lhs),
                           substitute(phi, Atom("s"), rhs)).equivalent
    checked["substitution congruence"] = CASES

    weak_pairs = subst_pairs + [(And(a, DNeg(a)), BOT),
                                (XNeg(Impl(a, b)), And(DNeg(DNeg(a)), XNeg(b)))]
    rng = random.Random(110)
    for _ in range(CASES):
        lhs, rhs = rng.choice(weak_pairs)
        phi = _shield_from_xneg(random_formula(rng, ("s", "q"), depth=2), Atom("s"))
        assert weak_equiv(substitute(phi, Atom("s"), lhs),
                          substitute(phi, Atom("s"), rhs)).equivalent
    checked["scoped weak congruence"] = CASES

    rng = random.Random(111)
    for _ in range(CASES):
        prog = random_program(rng, _mixed_names(rng), max_rules=2, depth=2)
        opts = SolveOptions(signature=atoms(prog))
        regular = to_regular(to_nnf_program(prog))
        assert answer_sets(prog, opts) == answer_sets(regular, opts)
    checked["regularization preserves answer sets"] = CASES

    rng = random.Random(112)
    verified = 0
    while verified < CASES:
        lhs = random_formula(rng, ("p", "q"), depth=2)
        rhs = random_formula(rng, ("p", "q"), depth=2)
        if weak_equiv(lhs, rhs).equivalent:
            continue
        discriminating_context(lhs, rhs)  # raises if verification fails
        verified += 1
    checked["discriminating contexts verify"] = CASES

    assert all(n >= 1000 for n in checked.values())
    report(10, f"{len(checked)} randomized properties x {CASES} cases each")


def _shield_from_xneg(phi, target):
    """Replace the target atom by a neutral one inside explicit negation."""
    if isinstance(phi, AtomRef):
        return phi
    if isinstance(phi, XNeg):
        return XNeg(substitute(phi.child, target, atom("q")))
    if isinstance(phi, DNeg):
        return DNeg(_shield_from_xneg(phi.child, target))
    if isinstance(phi, (And, Or, Impl)):
        return type(phi)(_shield_from_xneg(phi.left, target),
                         _shield_from_xneg(phi.right, target))
    return phi


def test_criterion_11_classical_reading_pathologies():
    closure = Impl(DNeg(p), XNeg(p))
    assert all(classical_sat(m, closure) for m in enumerate_x5([P]))

    broken = X5Interpretation(Interpretation(),
                              Interpretation([ExplicitLiteral(P)]))
    assert classical_sat(broken, XNeg(p))
    assert not classical_sat(broken.total_version(), XNeg(p))
    report(11, "classical reading makes closure a tautology and breaks persistence")


def test_criterion_12_excluded_middle_forces_total_models():
    rng = random.Random(113)
    theories = [Theory(), Theory([parse_formula("~ not p -> p")]),
                Theory([parse_formula("p -> (q -> p)")])]
    for _ in range(20):
        theories.append(Theory([random_formula(rng, ("p", "q"), depth=2)]))
    for theory in theories:
        sig = sorted(atoms(theory) | {P, Q})
        middle = [Or(lf, DNeg(lf))
                  for a in sig
                  for lf in (AtomRef(a), XNeg(AtomRef(a)))]
        extended = Theory(list(theory) + middle)
        models = [m for m in enumerate_x5(sig) if is_model(m, extended)]
        assert all(m.total() for m in models)
        # the extension is conservative on total models
        for m in enumerate_x5(sig):
            if m.total() and is_model(m, theory):
                assert is_model(m, extended)
    report(12, "excluded-middle instances for every literal leave only total models")
