import copy as copy_module
import dataclasses
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import ATOMS, formulas, nested_formulas, shared_nodes, x5_interps
from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    Formula,
    Impl,
    InconsistentLiterals,
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
    canonical_print,
    enumerate_x5,
    iff,
    is_explicit,
    is_nested,
    is_regular,
    parse_formula,
    parse_program,
    substitute,
)

p, q, r = atom("p"), atom("q"), atom("r")
bird, flies = atom("bird"), atom("flies")


class TestAtoms:
    def test_valid_names(self):
        Atom("p")
        Atom("bird")
        Atom("x_1Y")

    @pytest.mark.parametrize("name", ["top", "bot", "not"])
    def test_reserved_names_rejected(self, name):
        with pytest.raises(ValueError):
            Atom(name)

    @pytest.mark.parametrize("name", ["", "P", "1p", "p q", "_x", "p-q"])
    def test_bad_lexical_class_rejected(self, name):
        with pytest.raises(ValueError):
            Atom(name)


class TestLiterals:
    def test_total_order_is_name_then_polarity(self):
        lits = [ExplicitLiteral(Atom("q")), ExplicitLiteral(Atom("p"), True),
                ExplicitLiteral(Atom("p")), ExplicitLiteral(Atom("q"), True)]
        assert [str(l) for l in sorted(lits)] == ["p", "~p", "q", "~q"]

    def test_complement(self):
        l = ExplicitLiteral(Atom("p"))
        assert l.complement() == ExplicitLiteral(Atom("p"), True)
        assert l.complement().complement() == l


class TestAtomCollection:
    def test_under_both_negations(self):
        assert atoms(XNeg(And(p, DNeg(q)))) == {Atom("p"), Atom("q")}

    def test_constants_have_no_atoms(self):
        assert atoms(BOT) == set()

    def test_bird_program(self):
        prog = parse_program(
            "not (bird & ~flies) -> ~(bird & ~flies).\nbird.")
        assert atoms(prog) == {Atom("bird"), Atom("flies")}

    def test_a_deep_chain_is_walked_without_recursion(self):
        chain = parse_formula(" & ".join(f"p{i}" for i in range(20000)))
        assert atoms(chain) == {Atom(f"p{i}") for i in range(20000)}
        assert atoms(Rule(p, Or(chain, q))) == atoms(chain) | {Atom("p"), Atom("q")}

    def test_every_kind_of_input(self):
        f = Impl(And(p, XNeg(q)), Or(DNeg(r), BOT))
        expected = {Atom("p"), Atom("q"), Atom("r")}
        assert atoms(f) == atoms(Rule(And(p, XNeg(q)), Or(DNeg(r), BOT))) == expected
        assert atoms(Theory([f, TOP])) == atoms(Program([Rule(TOP, r), Rule(p, q)])) == expected
        assert atoms(Interpretation([ExplicitLiteral(Atom("p"), True)])) == {Atom("p")}
        with pytest.raises(TypeError, match="cannot collect atoms from int"):
            atoms(3)


class TestSubstitute:
    def test_root(self):
        alpha = And(q, r)
        assert substitute(p, Atom("p"), alpha) == alpha

    def test_absent_atom(self):
        assert substitute(q, Atom("p"), And(q, r)) == q

    def test_under_negations(self):
        phi = Impl(XNeg(DNeg(p)), p)
        expected = Impl(XNeg(DNeg(DNeg(q))), DNeg(q))
        assert substitute(phi, Atom("p"), DNeg(q)) == expected

    @given(formulas)
    def test_identity_substitution(self, phi):
        assert substitute(phi, Atom("p"), p) == phi

    @given(formulas, formulas)
    def test_atom_bookkeeping(self, phi, alpha):
        result = atoms(substitute(phi, Atom("p"), alpha))
        upper = (atoms(phi) - {Atom("p")}) | atoms(alpha)
        assert result <= upper
        if Atom("p") in atoms(phi):
            assert result == upper


class TestSyntacticClasses:
    def test_is_nested(self):
        assert is_nested(XNeg(Or(p, DNeg(q))))
        assert not is_nested(Impl(p, q))
        assert is_nested(DNeg(And(bird, XNeg(flies))))

    def test_is_regular(self):
        assert is_regular(Rule(DNeg(bird), Or(XNeg(bird), flies)))
        assert not is_regular(Rule(TOP, BOT))
        assert not is_regular(Rule(XNeg(And(p, q)), r))

    def test_is_regular_rejects_double_default_negation(self):
        assert not is_regular(Rule(DNeg(DNeg(p)), q))

    def test_is_explicit(self):
        assert is_explicit(Impl(XNeg(BOT), p))
        assert not is_explicit(DNeg(p))
        assert is_explicit(And(p, XNeg(q)))

    def test_is_explicit_reads_rules_programs_and_theories(self):
        explicit, default = Rule(XNeg(p), q), Rule(p, Or(q, DNeg(r)))
        assert is_explicit(explicit) and not is_explicit(default)
        assert is_explicit(Program([explicit]))
        assert not is_explicit(Program([explicit, default]))
        assert is_explicit(Theory([Impl(p, XNeg(q)), TOP]))
        assert not is_explicit(Theory([Impl(p, XNeg(q)), DNeg(p)]))
        for x in (3, "p"):
            with pytest.raises(TypeError, match="cannot .* " + type(x).__name__):
                is_explicit(x)


class TestRule:
    def test_rejects_implication_in_sides(self):
        with pytest.raises(NotNested):
            Rule(Impl(p, q), r)
        with pytest.raises(NotNested):
            Rule(p, Impl(q, r))

    def test_as_implication(self):
        assert Rule(p, q).as_implication() == Impl(p, q)


class TestProgramAndTheory:
    def test_program_dedupes_preserving_order(self):
        r1, r2 = Rule(p, q), Rule(q, r)
        prog = Program([r1, r2, r1])
        assert list(prog) == [r1, r2]
        many = [Rule(atom(f"a{i}"), q) for i in range(20)]
        assert list(Program(many + many[::-1] + [Rule(atom("a3"), q)])) == many

    def test_a_non_member_is_refused_before_it_is_hashed(self):
        with pytest.raises(TypeError, match="expected Rule, got list"):
            Program([Rule(p, q), []])
        with pytest.raises(TypeError, match="expected Formula, got dict"):
            Theory([p, {}])

    def test_program_set_equality(self):
        assert Program([Rule(p, q), Rule(q, r)]) == Program([Rule(q, r), Rule(p, q)])

    def test_theory_embedding(self):
        prog = Program([Rule(TOP, p), Rule(p, q)])
        assert prog.as_theory() == Theory([Impl(TOP, p), Impl(p, q)])


class TestInterpretations:
    def test_rejects_inconsistent(self):
        with pytest.raises(InconsistentLiterals, match="p and ~p"):
            Interpretation([ExplicitLiteral(Atom("p")),
                            ExplicitLiteral(Atom("p"), True)])

    def test_rejects_here_outside_there(self):
        pl = ExplicitLiteral(Atom("p"))
        with pytest.raises(ValueError):
            X5Interpretation(Interpretation([pl]), Interpretation())

    @given(st.sets(st.tuples(st.sampled_from(ATOMS), st.booleans())))
    def test_fuzzed_construction_invariants(self, pairs):
        lits = [ExplicitLiteral(a, n) for a, n in pairs]
        bad = {a for a, _ in pairs if (a, True) in pairs and (a, False) in pairs}
        if bad:
            with pytest.raises(InconsistentLiterals):
                Interpretation(lits)
        else:
            t = Interpretation(lits)
            assert set(t.literals) == set(lits)

    @given(x5_interps)
    def test_value_roundtrip(self, m):
        values = m.values(ATOMS)
        assert X5Interpretation.from_values(values) == m

    def test_value_of_agrees_with_values_and_from_values(self):
        points = list(enumerate_x5(ATOMS))
        assert len(points) == 125
        for m in points:
            values = m.values(ATOMS)
            assert list(values) == sorted(ATOMS)
            for a in ATOMS:
                v = m.value_of(a)
                assert values[a] == v
                assert m.here.has(a, v < 0) == (abs(v) == 2)
                assert m.there.has(a, v < 0) == (v != 0)
            back = X5Interpretation.from_values(values)
            assert back == m and back.values(ATOMS) == values
            assert m.value_of(Atom("s")) == 0

    @given(x5_interps)
    def test_total_iff_no_default_values(self, m):
        assert m.total() == all(m.value_of(a) in (-2, 0, 2) for a in ATOMS)

    def test_a_clash_is_reported_at_its_least_atom(self):
        P, Q = Atom("p"), Atom("q")
        lits = [ExplicitLiteral(Q), ExplicitLiteral(Q, True),
                ExplicitLiteral(P), ExplicitLiteral(P, True)]
        with pytest.raises(InconsistentLiterals,
                           match=r"^inconsistent interpretation: p and ~p$"):
            Interpretation(lits)

    @given(st.sets(st.tuples(st.sampled_from(ATOMS), st.booleans())))
    def test_the_least_clashing_atom_is_named(self, pairs):
        lits = [ExplicitLiteral(a, n) for a, n in pairs]
        bad = sorted(a for a, n in pairs if n and (a, False) in pairs)
        if bad:
            with pytest.raises(InconsistentLiterals, match=rf"{bad[0]} and ~{bad[0]}$"):
                Interpretation(lits)


class TestFrozenInterpretations:
    # both are frozen records: no field or cache slot can be reassigned, so
    # a stored hash and the cached five-valued reading stay right
    m = X5Interpretation.from_values({Atom("p"): 2, Atom("q"): -1})

    @pytest.mark.parametrize("obj, name", [(m.here, "literals"), (m, "here"), (m, "there"),
                                           (m, "_by_atom"), (m, "extra")],
                             ids=["literals", "here", "there", "_by_atom", "extra"])
    def test_every_assignment_and_deletion_is_refused(self, obj, name):
        values = self.m.values(ATOMS)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, Interpretation())
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert self.m.values(ATOMS) == values == {Atom("p"): 2, Atom("q"): -1, Atom("r"): 0}
        assert self.m == X5Interpretation.from_values(values) and self.m in {self.m}

    @given(x5_interps)
    def test_copies_and_pickles_are_equal_with_equal_hashes(self, m):
        copies = [pickle.loads(pickle.dumps(m, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy_module.deepcopy(m), copy_module.copy(m)]
        for c in copies:
            assert type(c) is X5Interpretation and c == m and hash(c) == hash(m)
            assert c.here == m.here and hash(c.here) == hash(m.here)
            assert c.values(ATOMS) == m.values(ATOMS)

    @given(x5_interps)
    def test_they_hash_as_the_tuples_of_their_fields(self, m):
        assert hash(m.here) == hash((m.here.literals,))
        assert hash(m) == hash((m.here, m.there))
        assert m.here.issubset(m.there) and (m.here <= m.there)
        assert Interpretation.issubset is Interpretation.__le__


class TestCanonicalPrint:
    def test_interpretation(self):
        t = Interpretation([ExplicitLiteral(Atom("p"), True)])
        assert canonical_print(t) == "{~p}"

    def test_literal_order_in_braces(self):
        t = Interpretation([ExplicitLiteral(Atom("flies")),
                            ExplicitLiteral(Atom("bird"), True)])
        assert canonical_print(t) == "{~bird, flies}"

    def test_prefix_needs_no_parens(self):
        assert canonical_print(Impl(XNeg(DNeg(p)), p)) == "~ not p -> p"

    def test_precedence(self):
        assert canonical_print(Or(And(p, q), r)) == "p & q | r"
        assert canonical_print(And(p, Or(q, r))) == "p & (q | r)"
        assert canonical_print(XNeg(Or(p, DNeg(q)))) == "~(p | not q)"

    def test_right_associative_implication(self):
        assert canonical_print(Impl(p, Impl(q, r))) == "p -> q -> r"
        assert canonical_print(Impl(Impl(p, q), r)) == "(p -> q) -> r"

    @given(formulas)
    def test_roundtrip(self, phi):
        assert parse_formula(canonical_print(phi)) == phi

    @given(st.lists(nested_formulas, min_size=2, max_size=3),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
    def test_program_with_shared_sides_prints_rule_by_rule(self, sides, picks):
        sides = [TOP] + sides + [_rebuild(sides[0])]
        program = Program(Rule(sides[i], sides[j]) for i, j in picks if (i, j) != (0, 0))
        expected = "".join(
            (f"{canonical_print(r.head)}.\n" if r.body == TOP
             else f"{canonical_print(r.body)} -> {canonical_print(r.head)}.\n")
            for r in program)
        assert canonical_print(program) == expected

    def test_rule_with_true_body_prints_bare(self):
        assert canonical_print(Rule(TOP, bird)) == "bird."
        assert canonical_print(Rule(DNeg(p), q)) == "not p -> q."

    def test_a_deep_chain_prints_without_recursion(self):
        text = " & ".join(f"p{i}" for i in range(20000))
        chain = parse_formula(text)
        assert canonical_print(chain) == text
        assert canonical_print(DNeg(Or(chain, p))) == f"not ({text} | p)"
        assert canonical_print(Rule(And(chain, q), chain)) == f"{text} & q -> {text}."

    def test_a_printed_lower_precedence_start_is_still_wrapped(self):
        shared = Or(p, q)
        program = Program([Rule(TOP, shared), Rule(And(shared, r), p),
                           Rule(And(And(shared, r), shared), p)])
        assert canonical_print(program) == \
            "p | q.\n(p | q) & r -> p.\n(p | q) & r & (p | q) -> p.\n"
        impl = Impl(p, q)
        assert canonical_print(Theory([impl, Or(impl, r), And(Or(impl, r), q)])) == \
            "p -> q.\n(p -> q) | r.\n((p -> q) | r) & q.\n"

    @given(shared_nodes(), st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                                    min_size=1, max_size=8))
    def test_matches_the_previous_printer_on_shared_nodes(self, pool, picks):
        # nodes shared between formulas and rules, as a lower-precedence
        # operand that one rule prints and another starts a chain with
        theory = Theory(pool[-1 - i % len(pool)] for i, _ in picks)
        assert canonical_print(theory) == _previous_print(theory)
        sides = [f for f in pool if is_nested(f)]
        program = Program(Rule(sides[-1 - i % len(sides)], sides[-1 - j % len(sides)])
                          for i, j in picks)
        assert canonical_print(program) == _previous_print(program)
        for f in theory:
            assert canonical_print(f) == _previous_print(f)

    @given(formulas, formulas)
    def test_matches_the_unmemoized_printer(self, phi, psi):
        # iff shares its operands, and the theory shares whole formulas
        f = iff(phi, And(psi, phi))
        assert canonical_print(f) == _reference_print(f)
        theory = Theory([phi, f, XNeg(f), psi])
        assert canonical_print(theory) == "".join(_reference_print(g) + ".\n" for g in theory)


def _reference_print(f):
    """The recursive printer that the memoized one replaced: no memo, one
    call per node of the unfolded tree."""
    def prec(g):
        for kind, value in ((Impl, 1), (Or, 2), (And, 3), ((XNeg, DNeg), 4)):
            if isinstance(g, kind):
                return value
        return 5

    def wrap(g, parent, right_of_same=False):
        text = _reference_print(g)
        return "(" + text + ")" if prec(g) < parent or right_of_same else text

    if isinstance(f, (Bot, Top)):
        return "bot" if isinstance(f, Bot) else "top"
    if isinstance(f, AtomRef):
        return f.atom.name
    if isinstance(f, XNeg):
        return "~" + (" " if isinstance(f.child, (XNeg, DNeg)) else "") + wrap(f.child, 4)
    if isinstance(f, DNeg):
        return "not " + wrap(f.child, 4)
    if isinstance(f, (And, Or)):
        op, level = (" & ", 3) if isinstance(f, And) else (" | ", 2)
        return wrap(f.left, level) + op + wrap(f.right, level, type(f.right) is type(f))
    return wrap(f.left, 1, isinstance(f.left, Impl)) + " -> " + _reference_print(f.right)


_PREVIOUS_PREC = {Impl: 1, Or: 2, And: 3, XNeg: 4, DNeg: 4}
_PREVIOUS_INFIX = {Impl: " -> ", Or: " | ", And: " & "}


def _previous_print(x):
    """The printer before chains were walked in a loop: memoized by id, one
    recursive call per edge."""
    printed = {}

    def formula(f):
        text = printed.get(id(f))
        if text is not None:
            return text
        kind = type(f)
        prec = _PREVIOUS_PREC.get(kind)
        if prec is None:
            text = f.atom.name if kind is AtomRef else "top" if kind is Top else "bot"
        elif prec == 4:
            child = f.child
            text = formula(child)
            if _PREVIOUS_PREC.get(type(child), 5) < 4:
                text = "(" + text + ")"
            if kind is DNeg:
                text = "not " + text
            else:
                text = ("~ " if type(child) in (XNeg, DNeg) else "~") + text
        else:
            left, right = f.left, f.right
            left_prec = _PREVIOUS_PREC.get(type(left), 5)
            right_prec = _PREVIOUS_PREC.get(type(right), 5)
            if kind is Impl:
                wrap_left, wrap_right = left_prec == prec, False
            else:
                wrap_left, wrap_right = left_prec < prec, right_prec <= prec
            left_text = formula(left)
            if wrap_left:
                left_text = "(" + left_text + ")"
            right_text = formula(right)
            if wrap_right:
                right_text = "(" + right_text + ")"
            text = left_text + _PREVIOUS_INFIX[kind] + right_text
        printed[id(f)] = text
        return text

    def rule(r):
        head = formula(r.head)
        return f"{head}." if isinstance(r.body, Top) else f"{formula(r.body)} -> {head}."

    if isinstance(x, Program):
        return "".join(rule(r) + "\n" for r in x)
    if isinstance(x, Theory):
        return "".join(formula(f) + ".\n" for f in x)
    return formula(x)


class _HashOf:
    """Stands in for a subformula inside a tuple: a tuple's hash reads only
    the hashes of its items."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def _fields(f):
    """The values of the fields of node ``f``, which its class names in
    ``_fields``."""
    return [getattr(f, name) for name in type(f)._fields]


def _dataclass_hash(f):
    """The hash a frozen dataclass derives from ``f``'s fields, computed
    afresh at every node without reading any cached value."""
    return hash(tuple(_HashOf(_dataclass_hash(v)) if isinstance(v, Formula) else v
                      for v in _fields(f)))


def _nodes(f):
    """Every node of ``f``, children before their parent."""
    for child in _fields(f):
        if isinstance(child, Formula):
            yield from _nodes(child)
    yield f


def _rebuild(f):
    """An equal tree that shares no node with ``f``."""
    if isinstance(f, AtomRef):
        return AtomRef(Atom(f.atom.name))
    if isinstance(f, (Bot, Top)):
        return type(f)()
    return type(f)(*map(_rebuild, _fields(f)))


class TestHashCache:
    @given(formulas)
    def test_every_node_hashes_as_its_dataclass_would(self, phi):
        for node in _nodes(_rebuild(phi)):
            assert hash(node) == _dataclass_hash(node)

    @given(formulas)
    def test_children_hashed_first_or_not_give_the_same_values(self, phi):
        root_first, leaves_first = _rebuild(phi), _rebuild(phi)
        hash(root_first)
        for node in _nodes(leaves_first):
            hash(node)
        assert [hash(n) for n in _nodes(root_first)] == [hash(n) for n in _nodes(leaves_first)]

    @given(formulas)
    def test_separately_built_trees_are_equal_and_hash_equal(self, phi):
        copy = _rebuild(phi)
        assert copy is not phi
        assert copy == phi and hash(copy) == hash(phi)
        assert len({phi, copy}) == 1

    @given(formulas)
    def test_pickled_and_copied_nodes_fill_their_slots(self, phi):
        for copy in (pickle.loads(pickle.dumps(phi)), copy_module.deepcopy(phi)):
            assert copy == phi and hash(copy) == hash(phi)
            assert is_nested(copy) is is_nested(phi)

    def test_a_deep_chain_hashes_without_recursion(self):
        # the constructor stores the hash, so hashing reads one slot
        chain = parse_formula(" & ".join(["p"] * 20000))
        expected = hash(p)
        for _ in range(19999):
            expected = hash((_HashOf(expected), _HashOf(hash(p))))
        assert hash(chain) == expected
        assert Program([Rule(chain, p), Rule(chain, p)]) == Program([Rule(chain, p)])

    def test_cached_value_is_not_a_field(self):
        f = And(p, DNeg(q))
        hash(f)
        assert type(f)._fields == ("left", "right")
        assert f == And(p, DNeg(q)) and repr(f) == "p & not q"
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.left = q

    @given(nested_formulas, nested_formulas)
    def test_constants_rules_and_programs_hash_as_before(self, body, head):
        assert hash(BOT) == hash(Bot()) == hash(()) == hash(TOP) == hash(Top())
        rule = Rule(body, head)
        assert hash(rule) == hash((body, head))
        program = Program([rule, Rule(head, body)])
        assert hash(program) == hash(frozenset(program))


class TestFrozen:
    # Formula nodes and rules keep their fields in slots; a name that is not
    # a field must be refused like a field is, not with another error
    @pytest.mark.parametrize("make", [lambda: And(p, q), lambda: DNeg(p), Bot, lambda: p,
                                      lambda: Rule(p, q)],
                             ids=["And", "DNeg", "Bot", "AtomRef", "Rule"])
    @pytest.mark.parametrize("name", ["left", "child", "body", "extra", "_hash", "_nested"])
    def test_every_assignment_and_deletion_is_refused(self, make, name):
        obj = make()
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(obj, name, False)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(obj, name)
        assert obj == make()

    def test_the_caches_are_still_written(self):
        f = And(p, DNeg(q))
        assert is_nested(f) and f._nested is True
        assert hash(f) == hash((p, DNeg(q))) == f._hash


def _has_implication(f):
    """Independent of ``is_nested`` and of any cached value."""
    return isinstance(f, Impl) or any(
        _has_implication(child) for child in _fields(f) if isinstance(child, Formula))


class TestNestedCache:
    @given(formulas)
    def test_every_node_gets_the_uncached_answer(self, phi):
        for node in _nodes(_rebuild(phi)):
            assert is_nested(node) is not _has_implication(node)

    @given(formulas)
    def test_root_first_or_leaves_first_give_the_same_answers(self, phi):
        root_first, leaves_first = _rebuild(phi), _rebuild(phi)
        is_nested(root_first)
        for node in _nodes(leaves_first):
            is_nested(node)
        assert [is_nested(n) for n in _nodes(root_first)] == \
            [is_nested(n) for n in _nodes(leaves_first)]

    def test_cached_value_is_not_a_field(self):
        f, g = And(p, DNeg(q)), Impl(p, q)
        assert is_nested(f) and not is_nested(g)
        assert type(f)._fields == ("left", "right")
        assert f == And(p, DNeg(q)) and hash(f) == hash((p, DNeg(q)))
        assert g == Impl(p, q) and hash(g) == hash((p, q))
        assert repr(f) == "p & not q" and repr(g) == "p -> q"
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.left = q

    def test_a_side_cached_as_not_nested_is_refused_every_time(self):
        side = Or(p, XNeg(Impl(q, r)))
        assert not is_nested(side)
        for _ in range(3):
            with pytest.raises(NotNested, match="rule head must be a nested expression"):
                Rule(p, side)
            with pytest.raises(NotNested, match="rule body must be a nested expression"):
                Rule(side, p)
        assert Rule(p, Or(p, q)).head == Or(p, q)

    def test_a_deep_chain_is_checked_without_recursion(self):
        # the slot is filled at construction, so reading it walks nothing
        chain = parse_formula(" & ".join(["p"] * 20000))
        assert is_nested(chain)
        assert Rule(chain, p).body is chain
        with pytest.raises(NotNested, match="rule head must be a nested expression: p -> q"):
            Rule(chain, Impl(p, q))
