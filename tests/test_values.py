"""The hand-written value classes against the dataclasses they replaced
(``reference_values``): equality, order, hash, repr, pickling, copying,
constructor checks and the frozen refusals agree."""

import copy
import importlib
import inspect
import operator
import pickle
import pkgutil
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given

import eqlx
import reference_values as ref
from conftest import ATOMS, formulas, rules, shared_nodes, x5_interps
from eqlx import (
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    ExplicitLiteral,
    Impl,
    Or,
    Rule,
    SolveOptions,
    Theory,
    Top,
    X5Interpretation,
    XNeg,
    parse_formula,
)
from eqlx.equivalence import EquivVerdict
from eqlx.parser import SourceSpan
from eqlx.transform import NNF_RULES, REGULAR_RULES, RewriteRule

ORDER = (operator.lt, operator.le, operator.gt, operator.ge)

names = st.sampled_from(["p", "q", "r", "a_1", "zz", "pQ"])
atom_values = st.builds(Atom, names)
literals = st.builds(ExplicitLiteral, atom_values, st.booleans())
nodes = st.one_of(formulas, shared_nodes().flatmap(st.sampled_from))

spans = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2))
options = st.tuples(st.one_of(st.none(), st.frozensets(st.sampled_from(ATOMS))),
                    st.integers(0, 13))
sides = st.one_of(st.none(), st.sampled_from(["left", "right"]))
contexts = st.one_of(st.none(), st.builds(Theory, st.lists(formulas, max_size=2)))
model_pairs = st.one_of(st.none(), st.just(((), ())))
verdicts = st.one_of(
    st.tuples(st.just(True), st.none(), contexts, sides, model_pairs),
    st.tuples(st.just(False), x5_interps, contexts, sides, model_pairs))


def _pairs(values):
    """Two values and their twins from ``reference_values``."""
    return st.tuples(values, values).map(lambda xy: (xy, tuple(map(ref.from_eqlx, xy))))


def _refusals(x, names):
    """The message of each refused assignment and deletion on ``x``."""
    messages = []
    for name in names:
        for act in (lambda: setattr(x, name, None), lambda: delattr(x, name)):
            with pytest.raises(FrozenInstanceError) as refused:
                act()
            messages.append(str(refused.value))
    return messages


def _check_pair(pair, twins, ordered=False, hashed=True):
    (x, y), (rx, ry) = pair, twins
    assert (x == y) is (rx == ry)
    assert (x != y) is (rx != ry)
    assert x == x and rx == rx
    assert x.__eq__(object()) is NotImplemented and rx.__eq__(object()) is NotImplemented
    assert repr(x) == repr(rx) and repr(y) == repr(ry)
    if hashed:
        assert hash(x) == hash(rx) and hash(y) == hash(ry)
    for op in ORDER:
        if ordered:
            assert op(x, y) is op(rx, ry)
        else:
            with pytest.raises(TypeError):
                op(x, y)
            with pytest.raises(TypeError):
                op(rx, ry)
    for value, twin in ((x, rx), (y, ry)):
        for again, twin_again in ((pickle.loads(pickle.dumps(value)),
                                   pickle.loads(pickle.dumps(twin))),
                                  (copy.deepcopy(value), copy.deepcopy(twin))):
            assert type(again) is type(value) and type(twin_again) is type(twin)
            if hashed:
                assert again == value and hash(again) == hash(value)
            # a rebuilt frozenset may list its items in another order
            assert repr(again) == repr(twin_again)
        # the fields, a cache slot or two, and a name that is neither
        names = list(type(value)._fields) + ["_hash", "_nested", "extra"]
        assert _refusals(value, names) == _refusals(twin, names)


class TestSameAsTheDataclasses:
    @given(_pairs(atom_values))
    def test_atoms(self, pairs):
        _check_pair(*pairs, ordered=True)

    @given(_pairs(literals))
    def test_explicit_literals(self, pairs):
        _check_pair(*pairs, ordered=True)

    @given(_pairs(nodes))
    def test_formula_nodes(self, pairs):
        _check_pair(*pairs)
        (x, y), (rx, ry) = pairs
        assert (x == ref.from_eqlx(y)) is False  # another class: not equal
        assert x.__eq__(rx) is NotImplemented

    @given(_pairs(rules))
    def test_rules(self, pairs):
        _check_pair(*pairs)

    @given(spans, spans)
    def test_source_spans(self, a, b):
        _check_pair((SourceSpan(*a), SourceSpan(*b)),
                    (ref.SourceSpan(*a), ref.SourceSpan(*b)))

    @given(options, options)
    def test_solve_options(self, a, b):
        _check_pair((SolveOptions(*a), SolveOptions(*b)),
                    (ref.SolveOptions(*a), ref.SolveOptions(*b)))
        assert SolveOptions(signature=[ATOMS[0]]) == SolveOptions(frozenset(ATOMS[:1]))

    @given(verdicts, verdicts)
    def test_equiv_verdicts(self, a, b):
        _check_pair((EquivVerdict(*a), EquivVerdict(*b)),
                    (ref.EquivVerdict(*a), ref.EquivVerdict(*b)))

    @pytest.mark.parametrize("entry", NNF_RULES + REGULAR_RULES, ids=lambda e: e.name)
    def test_rewrite_rules_compare_by_identity(self, entry):
        args = (entry.name, entry.lhs, entry.rhs, entry.strength, entry.modes)
        x, rx = RewriteRule(*args), ref.RewriteRule(*args)
        _check_pair((x, entry), (rx, ref.RewriteRule(*args)), hashed=False)
        assert x != entry and hash(x) != hash(entry)

    def test_constructor_checks_and_messages(self):
        def refusal(make, *args):
            with pytest.raises(Exception) as refused:
                make(*args)
            return type(refused.value), str(refused.value)

        witness = X5Interpretation.from_values({})
        q = parse_formula("q")
        for new, old, args in [(Atom, ref.Atom, ("not",)), (Atom, ref.Atom, ("P",)),
                               (Atom, ref.Atom, ("",)),
                               (EquivVerdict, ref.EquivVerdict, (True, witness)),
                               (EquivVerdict, ref.EquivVerdict, (False,))]:
            assert refusal(new, *args) == refusal(old, *args)
        assert refusal(Rule, q, Impl(q, q)) == \
            refusal(ref.Rule, ref.from_eqlx(q), ref.from_eqlx(Impl(q, q))) == \
            (eqlx.NotNested, "rule head must be a nested expression: q -> q")

    @pytest.mark.parametrize("name", ["Atom", "ExplicitLiteral", "Bot", "Top", "AtomRef",
                                      "XNeg", "DNeg", "And", "Or", "Impl", "Rule",
                                      "SourceSpan", "RewriteRule", "SolveOptions",
                                      "EquivVerdict"])
    def test_constructor_signatures(self, name):
        def parameters(cls):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(cls.__init__).parameters.values()]

        new = {**vars(eqlx), "SourceSpan": SourceSpan, "RewriteRule": RewriteRule,
               "EquivVerdict": EquivVerdict}[name]
        assert parameters(new) == parameters(getattr(ref, name))


def test_no_eqlx_class_is_a_dataclass():
    modules = [importlib.import_module(f"eqlx.{m.name}")
               for m in pkgutil.iter_modules(eqlx.__path__)]
    assert {m.__name__ for m in modules} >= {"eqlx.core", "eqlx.parser", "eqlx.transform",
                                             "eqlx.truthtable", "eqlx.equivalence"}
    for module in [eqlx] + modules:
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__.startswith("eqlx"):
                assert not hasattr(cls, "__dataclass_fields__"), cls


class _SameHash:
    """Stands in for an atom; every one hashes alike and equals only itself."""

    def __hash__(self):
        return 1


class TestEqualityWithoutRecursion:
    MEMBERS = 20000

    def _chain(self, changed=None):
        members = [f"p{i % 7}" for i in range(self.MEMBERS)]
        if changed is not None:
            members[changed] = "q"
        return parse_formula(" & ".join(members))

    def test_separately_parsed_chains_compare_equal(self):
        a, b = self._chain(), self._chain()
        assert a is not b
        assert a == b and not a != b
        assert Rule(a, b) == Rule(b, a)

    @pytest.mark.parametrize("changed", [0, 1, 10000, MEMBERS - 1])
    def test_a_chain_with_one_member_changed_compares_unequal(self, changed):
        a, b = self._chain(), self._chain(changed)
        assert a != b and not a == b
        assert Rule(a, a) != Rule(a, b)

    def test_equal_hashes_do_not_make_nodes_equal(self):
        # constants hash alike, so the walk must compare kinds and atoms too
        assert hash(Bot()) == hash(Top()) and Bot() != Top()
        left, right = AtomRef(_SameHash()), AtomRef(_SameHash())
        assert hash(left) == hash(right) and left != right
        assert hash(And(left, left)) == hash(And(left, right))
        assert And(left, left) != And(left, right)
        deep = [XNeg, DNeg]
        a, b = AtomRef(Atom("p")), AtomRef(Atom("p"))
        for i in range(5000):
            a, b = deep[i % 2](a), deep[i % 2](b)
        assert a == b
        assert And(a, Bot()) != And(b, Top()) and Or(a, b) != And(a, b)
        assert And(a, DNeg(AtomRef(Atom("q")))) != And(b, DNeg(AtomRef(Atom("r"))))
