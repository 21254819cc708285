"""The truth-table route against the reference routes it replaced."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import ATOMS, formula_strategy
from genutil import random_formula
from eqlx import (
    BOT,
    TOP,
    And,
    Atom,
    AtomRef,
    Bot,
    DNeg,
    EquivalentFormulas,
    ExplicitLiteral,
    Impl,
    InternalInconsistency,
    Interpretation,
    Or,
    SignatureTooLarge,
    SolveOptions,
    Theory,
    Top,
    X5Interpretation,
    XNeg,
    atoms,
    discriminating_context,
    enumerate_x5,
    iff,
    is_valid,
    parse_formula,
    subst_equiv,
    theory_replace_check,
    value5,
    weak_equiv,
    x5_sat,
)
from eqlx import equivalence, truthtable
from eqlx.truthtable import chunks


def _only_chunk(sig):
    [chunk] = list(chunks(SolveOptions(signature=sig, max_atoms=len(sig)).space()))
    return chunk


def _node_types(f, seen):
    seen.add(type(f))
    for child in (getattr(f, name, None) for name in ("left", "right", "child")):
        if child is not None:
            _node_types(child, seen)


# ---------------------------------------------------------------------------
# Masks against value5, point by point


def test_masks_match_value5_at_every_point():
    rng = random.Random(3)
    seen = set()
    for _ in range(300):
        f = random_formula(rng, depth=4)
        _node_types(f, seen)
        sig = sorted(atoms(f) | {ATOMS[rng.randrange(3)]})
        chunk = _only_chunk(sig)
        levels = chunk.levels(f)
        for i, m in enumerate(enumerate_x5(sig)):
            v = value5(m, f)
            assert [bool(mask >> i & 1) for mask in levels] == [v >= k for k in (-1, 0, 1, 2)]
        assert all(mask <= chunk.full for mask in levels)
    assert seen == {Top, Bot, AtomRef, XNeg, DNeg, And, Or, Impl}


def test_a_call_compiles_each_shared_node_once_and_keeps_nothing():
    p, q = AtomRef(Atom("p")), AtomRef(Atom("q"))
    alpha, beta = And(p, q), Or(q, p)
    chunk = _only_chunk([Atom("p"), Atom("q")])
    compiled = []
    original = truthtable.postorder

    def counting(roots, done):
        for f in original(roots, done):
            compiled.append(f)
            yield f

    with mock.patch.object(truthtable, "postorder", counting):
        first = chunk.levels(iff(alpha, beta))
        # the conjunction, two implications, alpha, beta, p and q
        assert len(compiled) == len({id(f) for f in compiled}) == 7
        assert chunk.levels(iff(alpha, beta)) == first
        assert len(compiled) == 14


def test_chunks_hold_at_most_five_to_the_seventh_points():
    sig = [Atom(f"a{i}") for i in range(9)]
    sizes = [c.full.bit_length() for c in chunks(SolveOptions(signature=sig).space())]
    assert sizes == [5 ** 7] * 25


@pytest.mark.parametrize("chunk_atoms", [1, 2, 7])
def test_points_follow_enumeration_order_across_chunks(chunk_atoms):
    sig = [Atom(n) for n in ("a", "b", "c", "d")]
    with mock.patch.object(truthtable, "_CHUNK_ATOMS", chunk_atoms):
        decoded = [c.point(i) for c in chunks(SolveOptions(signature=sig).space())
                   for i in range(c.full.bit_length())]
    assert decoded == list(enumerate_x5(sig))


# ---------------------------------------------------------------------------
# Verdicts against a copy of the enumeration loops the route replaced


def _reference_scan(holds, sig):
    return next((m for m in enumerate_x5(sig) if not holds(m)), None)


def _reference_context(alpha, beta, sig):
    first_right = None
    for m in enumerate_x5(sig):
        sat_a, sat_b = x5_sat(m, alpha), x5_sat(m, beta)
        if sat_a and not sat_b:
            return m, "left"
        if sat_b and not sat_a and first_right is None:
            first_right = m
    return first_right, "right" if first_right is not None else None


small_formulas = formula_strategy(max_leaves=5)


@given(small_formulas, small_formulas, st.sampled_from([1, 2, 7]))
@settings(max_examples=150)
def test_verdicts_match_the_reference_scan(a, b, chunk_atoms):
    sig = sorted(atoms(a) | atoms(b))
    with mock.patch.object(truthtable, "_CHUNK_ATOMS", chunk_atoms):
        valid = is_valid(a)
        weak = weak_equiv(a, b)
        subst = subst_equiv(a, b)
        try:
            context = discriminating_context(a, b)
        except EquivalentFormulas:
            context = None

    assert valid.witness == _reference_scan(lambda m: value5(m, a).designated, sorted(atoms(a)))
    target = iff(a, b)
    assert weak.witness == _reference_scan(lambda m: value5(m, target).designated, sig)
    assert subst.witness == _reference_scan(lambda m: value5(m, a) == value5(m, b), sig)
    witness, side = _reference_context(a, b, sig)
    if context is None:
        assert witness is None
    else:
        assert (context.witness, context.satisfied_side) == (witness, side)


@given(st.lists(formula_strategy(max_leaves=3), max_size=2), small_formulas)
@settings(max_examples=60)
def test_theory_replacement_agrees_with_the_reference_scan(gamma, a):
    b = And(a, a)
    sig = sorted(atoms(Theory(gamma)) | atoms(a))

    def same_models(m):
        return (all(x5_sat(m, f) for f in gamma + [a])
                == all(x5_sat(m, f) for f in gamma + [b]))

    assert theory_replace_check(Theory(gamma), a, b) == (_reference_scan(same_models, sig) is None)


# ---------------------------------------------------------------------------
# Chunk boundaries and the guard


def test_first_witness_of_the_second_chunk():
    names = [f"p{i}" for i in range(8)]
    text = " & ".join(["(not p0 | p0)"] + [f"({n} -> {n})" for n in names[1:]])
    verdict = is_valid(parse_formula(text))
    assert verdict.witness == X5Interpretation.from_values(
        {Atom(n): int(n == "p0") for n in names})


def test_twelve_atoms_fit_the_default_guard():
    f = parse_formula(" & ".join(f"(p{i} -> p{i})" for i in range(12)))
    assert is_valid(f).equivalent


def test_thirteen_atoms_trip_the_guard():
    f = parse_formula(" & ".join(f"(p{i} -> p{i})" for i in range(13)))
    with pytest.raises(SignatureTooLarge):
        is_valid(f)
    with pytest.raises(SignatureTooLarge):
        weak_equiv(f, f)


def test_guard_counts_extra_signature_atoms():
    extra = SolveOptions(signature={Atom("q")}, max_atoms=1)
    with pytest.raises(SignatureTooLarge):
        is_valid(Impl(AtomRef(Atom("p")), AtomRef(Atom("p"))), extra)


def test_space_sorts_the_atoms_of_every_input_with_the_extra_atoms():
    p, q, r, z = (Atom(n) for n in "pqrz")
    opts = SolveOptions(signature={z, q})
    space = opts.space(parse_formula("r & q"), Theory([parse_formula("p | ~r")]))
    assert space.atoms == [p, q, r, z]
    assert SolveOptions().space(parse_formula("q -> p"), parse_formula("p")).atoms == [p, q]


def test_an_empty_space_has_one_chunk_of_one_point():
    for space in (SolveOptions().space(), SolveOptions(max_atoms=0).space(TOP, BOT)):
        assert space.atoms == []
        [chunk] = list(chunks(space))
        assert (chunk.full, chunk.point(0)) == (1, X5Interpretation((), ()))


@pytest.mark.parametrize("max_atoms", [0, 2, 12])
def test_space_guard_message_one_atom_above(max_atoms):
    names = [Atom(f"a{i:02}") for i in range(max_atoms + 1)]
    inputs = [AtomRef(a) for a in names[1:]]
    assert SolveOptions(max_atoms=max_atoms + 1).space(*inputs).atoms == names[1:]
    assert len(SolveOptions(max_atoms=max_atoms).space(*inputs).atoms) == max_atoms
    # an extra atom counts against the guard; one the input has does not
    widened = SolveOptions(signature={names[0], names[-1]}, max_atoms=max_atoms)
    with pytest.raises(SignatureTooLarge) as caught:
        widened.space(*inputs)
    assert str(caught.value) == (
        f"signature has {max_atoms + 1} atoms, guard allows {max_atoms}")


def _hand_rolled_x5(signature):
    """The here/there loop ``enumerate_x5`` had before it used the codec."""
    ordered = sorted(set(signature))
    for states in itertools.product((0, 1, 2, -1, -2), repeat=len(ordered)):
        here, there = [], []
        for a, v in zip(ordered, states):
            if v == 0:
                continue
            lit = ExplicitLiteral(a, negated=v < 0)
            there.append(lit)
            if abs(v) == 2:
                here.append(lit)
        yield X5Interpretation(Interpretation(here), Interpretation(there))


@given(st.lists(st.sampled_from(ATOMS + (Atom("z"), Atom("a_1"))), max_size=5))
@settings(max_examples=60)
def test_enumerate_x5_matches_the_hand_rolled_loop(signature):
    got = list(enumerate_x5(signature))
    expected = list(_hand_rolled_x5(signature))
    assert got == expected
    assert [str(m) for m in got] == [str(m) for m in expected]


# ---------------------------------------------------------------------------
# The reference route re-checks every witness


def test_witness_rejected_by_value5_is_an_internal_inconsistency(monkeypatch):
    monkeypatch.setattr(equivalence, "value5", lambda m, f: value5(m, TOP))
    with pytest.raises(InternalInconsistency, match="disagree"):
        is_valid(parse_formula("not not p -> p"))


def test_context_witness_rejected_by_x5_sat_is_an_internal_inconsistency(monkeypatch):
    monkeypatch.setattr(equivalence, "x5_sat", lambda m, f: True)
    with pytest.raises(InternalInconsistency, match="disagree"):
        discriminating_context(AtomRef(Atom("p")), BOT)
