"""``core.postorder`` and the evaluation folds built on it.

Each fold is compared with its recursive form in ``reference_folds`` on
formulas whose nodes are shared, as ``<->`` and ``<=>`` share their operands,
and so are the Ferraris reducts, which read one such fold.  The structural
readers and rebuilders (``atoms``, ``is_explicit``, ``is_nnf``,
``substitute``, ``cross_encode``) are one ``postorder`` loop each.
"""

import pytest

import hypothesis.strategies as st
from hypothesis import given, settings

import reference_folds as ref
from conftest import ATOMS, formula_strategy
from eqlx import (
    And,
    Atom,
    CrossEncoding,
    DNeg,
    EvalMode,
    Impl,
    Or,
    SolveOptions,
    XNeg,
    atom,
    atoms,
    cross_encode,
    iff,
    is_explicit,
    is_nnf,
    parse_formula,
    strong_iff,
    substitute,
)
from eqlx import core, ferraris_minus, ferraris_plus, reduct, transform, truthtable
from eqlx.core import postorder
from eqlx.semantics import _csat, _fals, _nfals, _nsat, _sat, _val
from eqlx.solver import _ferraris_masks, _nested_masks
from eqlx.truthtable import enumerate_interpretations, enumerate_x5


def _shared(children):
    # iff and strong_iff hold each operand two and four times
    return st.one_of(*[st.builds(kind, children) for kind in (XNeg, DNeg)],
                     *[st.builds(kind, children, children)
                       for kind in (And, Or, Impl, iff, strong_iff)])


shared_formulas = st.recursive(formula_strategy(max_leaves=2), _shared, max_leaves=8)
shared_nested = st.recursive(
    formula_strategy(allow_impl=False, max_leaves=2),
    lambda ch: st.one_of(st.builds(lambda a, b: Or(And(a, b), DNeg(XNeg(a))), ch, ch),
                         st.builds(XNeg, ch), st.builds(DNeg, ch),
                         st.builds(And, ch, ch), st.builds(Or, ch, ch)),
    max_leaves=8)


def _children(f):
    return [getattr(f, n) for n in ("left", "right", "child") if hasattr(f, n)]


def _distinct(f, stop=frozenset()):
    """The ids of the distinct nodes of ``f``, not walking through ``stop``."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen and id(g) not in stop:
            seen.add(id(g))
            stack += _children(g)
    return seen


def _walk(roots, done):
    """The nodes ``postorder`` yields, each recorded in ``done`` as it comes;
    checks that its children came before it."""
    order = []
    for g in postorder(roots, done):
        assert all(id(c) in done for c in _children(g))
        assert id(g) not in done
        done[id(g)] = g
        order.append(g)
    return order


class TestPostorder:
    @given(st.lists(shared_formulas, min_size=1, max_size=3))
    def test_children_first_and_each_node_once(self, roots):
        order = _walk(roots, {})
        assert len({id(g) for g in order}) == len(order)
        assert {id(g) for g in order} == set().union(*map(_distinct, roots))

    @given(shared_formulas, st.data())
    def test_a_node_in_done_is_skipped_with_its_subtree(self, f, data):
        nodes = sorted(_distinct(f))
        skip = data.draw(st.sets(st.sampled_from(nodes), max_size=3))
        order = _walk([f], dict.fromkeys(skip))
        assert {id(g) for g in order} == _distinct(f, skip)

    def test_a_60_arrow_chain_is_walked_once_per_node(self):
        # the chain unfolds into a tree of 2^60 nodes
        for op in ("<->", "<=>"):
            f = parse_formula(f" {op} ".join(["p"] * 61))
            assert len(_walk([f], {})) == len(_distinct(f))


def _x5_points():
    for m in enumerate_x5(ATOMS):
        yield m.here.literals, m.there.literals


def _chunk():
    [chunk] = truthtable.chunks(SolveOptions(signature=ATOMS, max_atoms=len(ATOMS)).space())
    return chunk


class TestFoldsMatchTheirRecursiveForms:
    @given(shared_nested)
    @settings(max_examples=60)
    def test_nested_sat_and_fals(self, f):
        for t in enumerate_interpretations(ATOMS):
            lits = t.literals
            assert (_nsat(lits, f), _nfals(lits, f)) == (ref._nsat(lits, f), ref._nfals(lits, f))

    @given(shared_formulas)
    @settings(max_examples=60)
    def test_x5_sat_and_fals(self, f):
        for h, t in _x5_points():
            # (t, t) by identity and by equality alone
            for pair in ((h, t), (t, t), (frozenset(t), t)):
                assert (_sat(*pair, f), _fals(*pair, f)) == \
                    (ref._sat(*pair, f), ref._fals(*pair, f)), pair

    @given(shared_formulas)
    @settings(max_examples=60)
    def test_value_columns(self, f):
        points = list(enumerate_x5(ATOMS))
        columns = {a: [m.value_of(a) for m in points] for a in ATOMS}
        for mode in (EvalMode.X5, EvalMode.N5):
            assert list(_val(columns.__getitem__, len(points), f, mode)) == \
                list(ref._val(columns.__getitem__, len(points), f, mode))

    @given(shared_formulas)
    @settings(max_examples=60)
    def test_classical_sat(self, f):
        for h, t in _x5_points():
            assert _csat(h, t, f) == (ref._csat(h, t, f), ref._csat(t, t, f))

    @given(shared_formulas)
    @settings(max_examples=60)
    def test_chunk_levels(self, f):
        chunk = _chunk()
        assert chunk.levels(f) == ref.Chunk.of(chunk).levels(f)
        assert chunk.designated(f) == ref.Chunk.of(chunk).designated(f)

    @given(shared_nested)
    @settings(max_examples=60)
    def test_nested_masks(self, f):
        chunk = _chunk()
        assert _nested_masks(chunk, f) == ref._nested_masks(chunk, f)

    @given(st.lists(shared_formulas, min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_ferraris_masks_with_one_done_across_a_theory(self, theory):
        # members share nodes with each other as well as inside themselves
        theory += [iff(theory[0], theory[-1]), theory[0]]
        chunk = _chunk()
        done, memo = {}, {}
        assert [_ferraris_masks(chunk, f, done) for f in theory] == \
            [ref._ferraris_masks(chunk, f, memo) for f in theory]

    @given(shared_formulas)
    @settings(max_examples=60)
    def test_ferraris_reducts(self, f):
        for t in enumerate_interpretations(ATOMS):
            assert (ferraris_plus(f, t), ferraris_minus(f, t)) == \
                (ref._fplus(f, t.literals), ref._fminus(f, t.literals)), t


class TestFerrarisReductWalksOnce:
    def _yields(self, monkeypatch, reduce, f, t):
        walked = []

        def counting(roots, done):
            for g in postorder(roots, done):
                walked.append(id(g))
                yield g

        monkeypatch.setattr(reduct, "postorder", counting)
        reduce(f, t)
        return walked

    def test_each_distinct_node_once_per_reduct(self, monkeypatch):
        # a 450-member chain, and arrow chains, whose reducts unfold their
        # shared operands
        formulas = [parse_formula(" & ".join(["p"] * 450) + " -> q"),
                    parse_formula(" <-> ".join(["p"] * 11)),
                    parse_formula(" <=> ".join(["p", "~q"] * 3))]
        for f in formulas:
            for t in enumerate_interpretations(ATOMS[:2]):
                for reduce in (ferraris_plus, ferraris_minus):
                    walked = self._yields(monkeypatch, reduce, f, t)
                    assert len(walked) == len(set(walked)) <= len(_distinct(f))


class TestStructuralWalksArePostorder:
    def test_each_distinct_node_once(self, monkeypatch):
        walks = []

        def counting(roots, done):
            walks.append([])
            for g in postorder(roots, done):
                walks[-1].append(id(g))
                yield g

        monkeypatch.setattr(core, "postorder", counting)
        monkeypatch.setattr(transform, "postorder", counting)
        # 12 arrows: the unfolded tree has 24 571 nodes
        f = parse_formula(" <-> ".join(["p"] * 13))
        calls = [atoms, is_explicit, is_nnf, lambda g: substitute(g, Atom("p"), atom("q"))]
        calls += [lambda g, d=d: cross_encode(g, d) for d in CrossEncoding]
        for call in calls:
            walks.clear()
            call(f)
            assert len(walks) == 1
            assert len(walks[0]) == len(set(walks[0]))
            assert set(walks[0]) == _distinct(f)

    def test_a_shared_subformula_stays_shared(self):
        f = DNeg(Impl(atom("p"), XNeg(atom("q"))))
        rebuilt = [substitute(And(f, f), Atom("p"), atom("r"))]
        rebuilt += [cross_encode(And(f, f), d) for d in CrossEncoding]
        assert all(g.left is g.right for g in rebuilt)

    @pytest.mark.parametrize("join", [" & ", " | "])
    def test_20000_member_chains(self, join):
        members = (["p", "~q", "not r"] * 6667)[:20000]

        def chain(replace):
            return parse_formula(join.join(replace.get(m, m) for m in members))

        f = chain({})
        assert not is_explicit(f)
        assert is_explicit(chain({"not r": "~r"}))
        assert is_nnf(f)
        assert not is_nnf(chain({"~q": "~(p & q)"}))
        g = substitute(f, Atom("p"), XNeg(atom("s")))
        assert g == chain({"p": "~s"})
        assert atoms(g) == {Atom("q"), Atom("r"), Atom("s")}
        assert cross_encode(f, CrossEncoding.N5_IN_X5) == chain({"not r": "(r -> ~r)"})
        assert cross_encode(f, CrossEncoding.X5_IN_N5) == chain({"not r": "not not not r"})
