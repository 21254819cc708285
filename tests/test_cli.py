import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from conftest import lexer_texts
from eqlx import ParseError
from eqlx.cli import _has_statements, main
from eqlx.parser import _tokenize

DATA = Path(__file__).parent / "data"

EXAMPLE1 = "~ not p -> p.\n"
RULE2 = "not (bird & ~flies) -> ~(bird & ~flies).\n"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def check_golden(out, name):
    envelope = json.loads(out)
    assert list(envelope) == ["command", "result", "witness", "engine_agreement"]
    expected = json.loads((DATA / name).read_text())
    assert envelope == expected


class TestSolve:
    def test_example_one_text(self, tmp_path, capsys):
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        code, out, _ = run(capsys, "solve", path)
        assert code == 0
        assert out == "{}\n{p}\n"

    def test_example_one_json_golden(self, tmp_path, capsys):
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        code, out, _ = run(capsys, "solve", path, "--json")
        assert code == 0
        check_golden(out, "solve_example1.json")

    def test_single_engine(self, tmp_path, capsys):
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        for via in ("reduct", "x5", "ferraris"):
            code, out, _ = run(capsys, "solve", path, "--via", via)
            assert (code, out) == (0, "{}\n{p}\n")

    def test_no_models_is_semantic_negative(self, tmp_path, capsys):
        path = write(tmp_path, "none.x5", "bot.\n")
        code, out, err = run(capsys, "solve", path)
        assert code == 1
        assert out == ""
        assert "no models" in err

    def test_theory_file_uses_equilibrium_engines(self, tmp_path, capsys):
        path = write(tmp_path, "theory.x5", "p -> (q -> p).\n")
        code, out, _ = run(capsys, "solve", path, "--json")
        envelope = json.loads(out)
        assert envelope["result"]["kind"] == "equilibrium_models"
        assert envelope["result"]["engines"] == ["x5", "ferraris"]
        assert envelope["engine_agreement"] is True

    def test_via_reduct_rejected_for_theories(self, tmp_path, capsys):
        path = write(tmp_path, "theory.x5", "p -> (q -> p).\n")
        code, _, err = run(capsys, "solve", path, "--via", "reduct")
        assert code == 2
        assert "requires a program" in err

    def test_formula_per_line_file(self, tmp_path, capsys):
        path = write(tmp_path, "lines.txt", "% one per line\n~ not p -> p\n")
        code, out, _ = run(capsys, "solve", path)
        assert (code, out) == (0, "{}\n{p}\n")

    def test_line_mode_error_is_placed_in_the_file(self, tmp_path, capsys):
        path = write(tmp_path, "lines.txt", "p\n\n   q & \n")
        code, out, err = run(capsys, "solve", path)
        assert (code, out) == (2, "")
        assert err == "error: line 3, column 7: unexpected token 'end of input'\n"

    def test_dot_in_a_comment_keeps_line_mode(self, tmp_path, capsys):
        path = write(tmp_path, "lines.txt", "% p. is not a statement\n~ not p -> p\n")
        code, out, _ = run(capsys, "solve", path)
        assert (code, out) == (0, "{}\n{p}\n")

    @settings(max_examples=500)
    @given(lexer_texts)
    @example("p % q.\n")
    def test_statement_mode_means_a_dot_token(self, text):
        try:
            tokens = _tokenize(text)
        except ParseError:
            return
        assert _has_statements(text) == ("." in tokens.kinds)

    def test_signature_guard_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        code, _, err = run(capsys, "solve", path, "--max-atoms", "0")
        assert code == 3
        assert "guard" in err

    def test_negative_guard_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        code, out, err = run(capsys, "solve", path, "--max-atoms", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --max-atoms must be non-negative, got -1\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.x5", "p -> @.\n")
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "lexical error" in err

    def test_engine_disagreement_exits_4(self, tmp_path, capsys, monkeypatch):
        import eqlx.cli
        monkeypatch.setattr(eqlx.cli, "equilibrium_models_ferraris", lambda *args: [])
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        code, out, err = run(capsys, "solve", path)
        assert (code, out) == (4, "")
        assert err.startswith("error: solver engines disagree")

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "deep.x5", "(" * 1200 + "p" + ")" * 1200 + ".\n")
        code, _, err = run(capsys, "solve", path)
        assert code == 2
        assert "nesting too deep" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/x.x5")
        assert code == 2


# a minimal valid argv of every subcommand
MINIMAL_ARGV = {
    "solve": ["solve", "{program}"],
    "eval": ["eval", "p", "--model", "{{p}}"],
    "reduct": ["reduct", "{program}", "--wrt", "{{p}}"],
    "valid": ["valid", "p -> p"],
    "equiv": ["equiv", "weak", "p", "p"],
    "context": ["context", "p", "q"],
    "nnf": ["nnf", "~(p & q)"],
    "regular": ["regular", "{program}"],
    "export": ["export", "{program}"],
    "tables": ["tables"],
}


class TestGlobalFlags:
    """Every subcommand checks ``--max-atoms`` and ``--signature``, also one
    that never enumerates."""

    def test_every_subcommand_is_covered(self):
        from eqlx.cli import _COMMANDS
        assert sorted(MINIMAL_ARGV) == sorted(name for name, *_ in _COMMANDS)

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    @pytest.mark.parametrize("flag, value, message", [
        ("--max-atoms", "-1", "error: --max-atoms must be non-negative, got -1\n"),
        ("--signature", "BAD NAME", "error: not a valid atom name: 'BAD NAME'\n")],
        ids=["max-atoms", "signature"])
    def test_a_bad_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value,
                                         message):
        program = write(tmp_path, "ex1.x5", EXAMPLE1)
        argv = [arg.format(program=program) for arg in MINIMAL_ARGV[command]]
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and out
        assert run(capsys, *argv, flag, value) == (2, "", message)


class TestEval:
    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "eval", "not not p -> p",
                           "--model", "{p}", "--json")
        assert code == 0
        check_golden(out, "eval_double_negation.json")

    def test_split_worlds(self, capsys):
        code, out, _ = run(capsys, "eval", "not not p -> p",
                           "--model", "{p}", "--here", "{}")
        assert code == 0
        assert out == "value: 1\nsat: false\nfals: false\n"

    def test_n5_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "not p", "--model", "{p}",
                           "--here", "{}", "--mode", "n5")
        assert out.splitlines()[0] == "value: -1"

    def test_classical_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "~p", "--model", "{p}",
                           "--here", "{}", "--mode", "classical")
        assert (code, out) == (0, "sat: true\n")

    def test_here_must_be_inside_model(self, capsys):
        code, _, err = run(capsys, "eval", "p", "--model", "{}", "--here", "{p}")
        assert code == 2

    def test_inconsistent_model_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "p", "--model", "{p, ~p}")
        assert code == 2
        assert "inconsistent interpretation" in err


class TestReduct:
    def test_nested_reduct_is_simplified(self, tmp_path, capsys):
        path = write(tmp_path, "ex1.x5", EXAMPLE1)
        code, out, _ = run(capsys, "reduct", "--wrt", "{}", path)
        # the raw reduct body ~top folds to bot before printing
        assert (code, out) == (0, "bot -> p.\n")
        code, out, _ = run(capsys, "reduct", "--wrt", "{p}", path)
        assert (code, out) == (0, "p.\n")

    def test_ferraris_reduct(self, tmp_path, capsys):
        path = write(tmp_path, "r2.x5", RULE2)
        code, out, _ = run(capsys, "reduct", "--wrt", "{~bird}", path, "--ferraris")
        assert code == 0
        assert out.splitlines()[0] == "+ ~bird"

    def test_nested_reduct_needs_program(self, tmp_path, capsys):
        path = write(tmp_path, "theory.x5", "p -> (q -> p).\n")
        code, _, err = run(capsys, "reduct", "--wrt", "{}", path)
        assert code == 2


class TestValidAndEquiv:
    def test_valid_json_golden(self, capsys):
        code, out, _ = run(capsys, "valid", "~p -> not p", "--json")
        assert code == 0
        check_golden(out, "valid_coherence.json")

    def test_valid_text(self, capsys):
        code, out, _ = run(capsys, "valid", "~p -> not p")
        assert (code, out) == (0, "valid\n")

    def test_not_valid_witness(self, capsys):
        code, out, _ = run(capsys, "valid", "not not p -> p")
        assert code == 1
        assert out == "not valid\nwitness: p=1 : 1\n"

    def test_equiv_subst_golden(self, capsys):
        code, out, _ = run(capsys, "equiv", "subst", "p & not p", "bot", "--json")
        assert code == 1
        check_golden(out, "equiv_subst_contradiction.json")

    def test_equiv_subst_text(self, capsys):
        code, out, _ = run(capsys, "equiv", "subst", "p & not p", "bot")
        assert code == 1
        assert out == "not substitution-equivalent\nwitness: p=0 : 0 vs -2\n"

    def test_deep_nesting_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "valid", "(" * 1200 + "p" + ")" * 1200)
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 101: nesting too deep\n"

    def test_long_conjunction_chain_is_evaluated(self, capsys):
        # the evaluation folds walk in a loop; test_nnf_long_disjunction_chain_exits_3
        # keeps exit 3 for the rewriters, which still recurse
        assert run(capsys, "valid", " & ".join(["p"] * 3000)) == \
            (1, "not valid\nwitness: p=0 : 0\n", "")

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_20000_member_chains_are_evaluated(self, tmp_path, capsys, op):
        chain = f" {op} ".join(["p"] * 20000)
        assert run(capsys, "eval", "--model", "{p}", chain) == \
            (0, "value: 2\nsat: true\nfals: false\n", "")
        assert run(capsys, "valid", chain) == (1, "not valid\nwitness: p=0 : 0\n", "")
        assert run(capsys, "equiv", "weak", chain, "p") == (0, "weakly equivalent\n", "")
        assert run(capsys, "equiv", "subst", chain, "p") == (0, "substitution-equivalent\n", "")
        assert run(capsys, "context", chain, "q") == (0, (
            "witness: p=2, q=0\nsatisfies: left\ncontext:\np.\n"
            "equilibrium models with left: {p}\n"
            "equilibrium models with right: {p, q}\n"), "")
        assert run(capsys, "solve", write(tmp_path, "chain.x5", chain + ".\n")) == \
            (0, "{p}\n", "")
        assert run(capsys, "solve", write(tmp_path, "chain.txt", chain + "\n")) == \
            (0, "{p}\n", "")

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_a_long_chain_is_evaluated_and_printed_with_json(self, capsys, op):
        # 5000 members, not 20 000: printing keeps the text of every prefix
        # of a chain, so its memory grows with the square of the length
        chain = f" {op} ".join(["p"] * 5000)
        code, out, err = run(capsys, "valid", "--json", chain)
        assert (code, err) == (1, "")
        result = json.loads(out)["result"]
        assert (result["valid"], result["formula"]) == (False, chain)

    def test_valid_and_solve_handle_450_member_chains(self, tmp_path, capsys):
        members = 450
        conj = " & ".join(["p"] * members)
        disj = " | ".join(["p"] * (members - 1) + ["~q"])
        code, out, _ = run(capsys, "valid", f"{conj} -> p")
        assert (code, out) == (0, "valid\n")
        code, out, _ = run(capsys, "valid", disj)
        assert (code, out) == (1, "not valid\nwitness: p=0, q=0 : 0\n")
        code, out, _ = run(capsys, "solve", write(tmp_path, "and.x5", conj + ".\n"))
        assert (code, out) == (0, "{p}\n")
        code, out, _ = run(capsys, "solve", write(tmp_path, "or.txt", disj + "\n"))
        assert (code, out) == (0, "{~q}\n{p}\n")

    @pytest.mark.parametrize("members", [450, 2000])
    def test_solve_a_file_that_repeats_a_long_rule(self, tmp_path, capsys, members):
        # loading drops the second copy, which it compares with the first
        rule = " & ".join(["p"] * members) + " -> q.\n"
        for text in (rule, rule * 2):
            code, out, err = run(capsys, "solve", write(tmp_path, "rule.x5", text))
            assert (code, out, err) == (0, "{}\n", "")

    def test_witness_rejected_by_the_reference_exits_4(self, capsys, monkeypatch):
        import eqlx.equivalence
        from eqlx import FiveValue
        monkeypatch.setattr(eqlx.equivalence, "value5", lambda m, f: FiveValue.PROVEN_TRUE)
        code, out, err = run(capsys, "valid", "not not p -> p")
        assert (code, out) == (4, "")
        assert err.startswith("error: ")

    def test_equiv_weak_positive(self, capsys):
        code, out, _ = run(capsys, "equiv", "weak", "p & not p", "bot")
        assert (code, out) == (0, "weakly equivalent\n")


def _chain(op, arrows):
    return f" {op} ".join(["p"] * (arrows + 1))


# Outputs of ``valid CHAIN``, ``equiv weak CHAIN p`` and ``equiv subst CHAIN p``
# by arrow count: they repeat with period 2 for ``<->`` and 4 for ``<=>``, as
# read off the commands at 1-8 arrows before shared subformulas were walked once.
_VALID = (0, "valid\n")
_NOT_VALID = (1, "not valid\nwitness: p=0 : 0\n")
_WEAK = (0, "weakly equivalent\n")
_NOT_WEAK = (1, "not weakly equivalent\nwitness: p=0 : 2 vs 0\n")
_SUBST = (0, "substitution-equivalent\n")
_NOT_SUBST = (1, "not substitution-equivalent\nwitness: p=0 : 2 vs 0\n")
_CHAIN_OUTPUTS = {
    "<->": [(_NOT_VALID, _WEAK, _SUBST), (_VALID, _NOT_WEAK, _NOT_SUBST)],
    "<=>": [(_NOT_VALID, _WEAK, _SUBST),
            (_VALID, _NOT_WEAK, _NOT_SUBST),
            (_NOT_VALID, _WEAK,
             (1, "not substitution-equivalent\nwitness: p=-1 : -2 vs -1\n")),
            ((1, "not valid\nwitness: p=-1 : 1\n"), _NOT_WEAK, _NOT_SUBST)],
}


class TestSharedSubformulas:
    """``<->`` and ``<=>`` share their operands, so a chain of k arrows has
    O(k) nodes but unfolds into a tree of 2^k."""

    @pytest.mark.parametrize("op", sorted(_CHAIN_OUTPUTS))
    @pytest.mark.parametrize("arrows", [*range(1, 9), 40, 41, 42, 43])
    def test_chain_outputs_repeat_with_the_arrow_count(self, capsys, op, arrows):
        periodic = _CHAIN_OUTPUTS[op]
        expected = periodic[arrows % len(periodic)]
        text = _chain(op, arrows)
        got = [run(capsys, "valid", text), run(capsys, "equiv", "weak", text, "p"),
               run(capsys, "equiv", "subst", text, "p")]
        assert got == [(*e, "") for e in expected]

    def test_each_shared_node_is_walked_once(self, capsys, monkeypatch):
        import eqlx.cli
        from eqlx import parse_formula, semantics, truthtable

        text = _chain("<->", 12)
        _, tree = self._distinct_edges(parse_formula(text))
        assert tree > 8000
        nodes = self._distinct_nodes(parse_formula(text))
        atoms_calls = self._count_calls(monkeypatch, truthtable, "atoms")
        walks = {module: self._count_walks(monkeypatch, module)
                 for module in (truthtable, semantics)}

        def no_printing(x):
            raise AssertionError("printed in text mode")

        monkeypatch.setattr(eqlx.cli, "canonical_print", no_printing)
        assert run(capsys, "valid", text) == (*_NOT_VALID, "")
        # ``atoms`` walks in one loop (test_atoms_visits_each_shared_node_once),
        # once to decide and once to report; one chunk compiles the formula,
        # and ``value5`` re-checks the witness twice
        assert atoms_calls == [2]
        assert walks == {truthtable: [nodes], semantics: [nodes, nodes]}

    def test_atoms_visits_each_shared_node_once(self):
        from eqlx import Atom, atoms, parse_formula

        # 60 arrows unfold into a tree of more than 2^60 nodes, which no
        # walk that visits a shared node twice could finish
        assert atoms(parse_formula(_chain("<->", 60))) == {Atom("p")}
        assert atoms(parse_formula(_chain("<=>", 60))) == {Atom("p")}

    # (length, first 16 hex digits of the SHA-256) of the text of `valid --json`
    # and of canonical_print, for 1 to 8 arrows, as the unmemoized printer
    # produced them
    PRINTED = {
        "<->": [((147, "bd652fa508946474"), (19, "85e20f40ca9b6e20")),
                ((269, "b6b6572f44df8794"), (55, "fec9a6eba6eb3207")),
                ((255, "0a3b3a68efc86bfa"), (127, "eb6d313e55e024f0")),
                ((485, "075795cace485f6a"), (271, "623302077afacd2f")),
                ((687, "e4ad9c35f3085904"), (559, "d983ff0fdac2fe92")),
                ((1349, "540ac56e4e88a575"), (1135, "08b771b810e6f39c")),
                ((2415, "20e56acd5b65678b"), (2287, "3dd3a646f42070e7")),
                ((4805, "e7711f05672259d0"), (4591, "ae343e7bb16aa014"))],
        "<=>": [((175, "2f2da4ff36f6a93e"), (47, "e79a54fd84a55412")),
                ((449, "4f0cd1864ff2bb93"), (235, "977b4fceabd25bf9")),
                ((1218, "f1fd174a1290eb63"), (987, "e989a1999f8eb846")),
                ((4209, "af60b1f284516003"), (3995, "618c8ffb36b71cf6")),
                ((16155, "272b748741510ea9"), (16027, "ca4632e539679882")),
                ((64369, "d9cb519af797a776"), (64155, "67e10f5ab2ee9e3f")),
                ((256898, "f0fba156e85d56a3"), (256667, "8226f4b8e18de585")),
                ((1026929, "22fea0b3b020b273"), (1026715, "dc95bcd892a8a59e"))],
    }

    @pytest.mark.parametrize("op", sorted(PRINTED))
    @pytest.mark.parametrize("arrows", range(1, 9))
    def test_printed_chains_keep_their_text(self, capsys, op, arrows):
        import hashlib

        from eqlx import canonical_print, parse_formula

        def pin(text):
            return len(text), hashlib.sha256(text.encode()).hexdigest()[:16]

        text = _chain(op, arrows)
        _, out, err = run(capsys, "valid", "--json", text)
        assert err == ""
        assert (pin(out), pin(canonical_print(parse_formula(text)))) == \
            self.PRINTED[op][arrows - 1]

    @staticmethod
    def _distinct_edges(f):
        """The edges between the distinct nodes of ``f``, and the size of
        the tree it unfolds into."""
        edges, tree, seen = 0, 0, set()
        stack = [f]
        while stack:
            g = stack.pop()
            tree += 1
            children = [getattr(g, n) for n in ("left", "right", "child") if hasattr(g, n)]
            if id(g) not in seen:
                seen.add(id(g))
                edges += len(children)
            stack += children
        return edges, tree

    @staticmethod
    def _distinct_nodes(f):
        seen, stack = set(), [f]
        while stack:
            g = stack.pop()
            if id(g) not in seen:
                seen.add(id(g))
                stack += [getattr(g, n) for n in ("left", "right", "child") if hasattr(g, n)]
        return len(seen)

    @staticmethod
    def _count_walks(monkeypatch, module):
        """The number of nodes each ``postorder`` walk that ``module`` starts
        yields, checking that none comes twice."""
        walks = []
        original = module.postorder

        def counting(roots, done):
            yielded, walk = set(), len(walks)
            walks.append(0)
            for g in original(roots, done):
                assert id(g) not in yielded
                yielded.add(id(g))
                walks[walk] += 1
                yield g

        monkeypatch.setattr(module, "postorder", counting)
        return walks

    def _count_calls(self, monkeypatch, module, name):
        calls = [0]
        original = getattr(module, name)

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_printing_visits_each_shared_node_once(self, capsys, monkeypatch):
        from eqlx import core, parse_formula

        text = _chain("<->", 12)
        edges, tree = self._distinct_edges(parse_formula(text))
        assert tree > 8000
        calls = self._count_calls(monkeypatch, core, "_print_formula")
        code, out, _ = run(capsys, "valid", "--json", text)
        # iff(a, p) holds a twice and p twice, so k arrows print 3 * 2^k - 2 atoms
        assert code == 1 and json.loads(out)["result"]["formula"].count("p") == 3 * 2 ** 12 - 2
        # once for the root and once per edge
        assert calls == [1 + edges]

    def test_solving_a_theory_folds_each_shared_node_once(self, tmp_path, capsys,
                                                         monkeypatch):
        from eqlx import parse_formula, solver

        text = _chain("<->", 12)
        _, tree = self._distinct_edges(parse_formula(text))
        assert tree > 8000
        nodes = self._distinct_nodes(parse_formula(text))
        walks = self._count_walks(monkeypatch, solver)
        assert run(capsys, "solve", write(tmp_path, "chain.x5", text + ".\n")) == \
            (0, "{p}\n", "")
        # one chunk, one Ferraris fold, each distinct node once
        assert walks == [nodes]

    def test_context_evaluates_each_shared_node_once_per_world_pair(self, capsys,
                                                                    monkeypatch):
        from eqlx import parse_formula, semantics

        text = _chain("<=>", 12)  # unfolds into a tree of more than 4^12 nodes
        nodes = self._distinct_nodes(parse_formula(text))
        walks = self._count_walks(monkeypatch, semantics)
        assert run(capsys, "context", text, "q") == (0, (
            "witness: p=2, q=0\nsatisfies: left\ncontext:\np.\n"
            "equilibrium models with left: {p}\n"
            "equilibrium models with right: {p, q}\n"), "")
        # context checks its witness with three calls of x5_sat, one on the
        # chain and two on q, and each walk yields each distinct node once
        assert walks == [nodes, 1, 1]


class TestContext:
    def test_tautology_versus_double_negation(self, capsys):
        code, out, _ = run(capsys, "context", "p -> p", "not not p -> p")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "witness: p=1"
        assert lines[1] == "satisfies: left"
        assert lines[2] == "context:"
        assert lines[3] == "p -> p."
        assert lines[4] == "equilibrium models with left: {}"
        assert lines[5] == "equilibrium models with right: {}, {p}"

    def test_extra_signature_atom_is_in_no_model(self, capsys):
        code, out, _ = run(capsys, "context", "p -> p", "not not p -> p",
                           "--json", "--signature", "z")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["witness"]["values"] == {"p": 1, "z": 0}
        assert envelope["result"]["equilibrium_models_left"] == [[]]
        assert envelope["result"]["equilibrium_models_right"] == [[], ["p"]]

    def test_equivalent_formulas_refused(self, capsys):
        code, _, err = run(capsys, "context", "p", "p")
        assert code == 1
        assert "weakly equivalent" in err


class TestTransformCommands:
    def test_nnf(self, capsys):
        code, out, _ = run(capsys, "nnf", "~(p & not p)")
        assert (code, out) == (0, "~p | not not p\n")

    def test_nnf_deep_negation_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, "nnf", "~" * 3000 + "p")
        assert code == 2
        assert "nesting too deep" in err

    def test_nnf_long_disjunction_chain_exits_3(self, capsys):
        code, out, err = run(capsys, "nnf", " | ".join(["~(p & q)"] * 2000))
        assert (code, out) == (3, "")
        assert err.startswith("error:")

    def test_rewriters_handle_450_member_chains(self, tmp_path, capsys):
        # the rewriters recurse once or twice per level, as printing does:
        # a chain of 450 stays below the interpreter's default limit
        members = 450
        code, out, _ = run(capsys, "nnf", "~(" + " & ".join(["p"] * members) + ")")
        assert (code, out) == (0, " | ".join(["~p"] * members) + "\n")
        conj = " & ".join(f"p{i}" for i in range(members))
        code, out, _ = run(capsys, "regular", write(tmp_path, "not.x5", f"not ({conj}).\n"))
        assert (code, out) == (0, " | ".join(f"not p{i}" for i in range(members)) + ".\n")
        facts = write(tmp_path, "and.x5", " & ".join(["p"] * members) + ".\n")
        code, out, _ = run(capsys, "reduct", "--wrt", "{p}", facts)
        assert (code, out) == (0, " & ".join(["p"] * members) + ".\n")

    def test_regular_and_export_of_a_distribution_program(self, tmp_path, capsys):
        # each rule (x1 | y1) & ... & (x5 | y5) -> (u1 & v1) | ... | (u5 & v5)
        # becomes 2^5 bodies times 2^5 heads, in the order of the choices
        def pairs(tag, left, right, prefixes):
            return [(f"{s}{tag}{left}{i}", f"{t}{tag}{right}{i}")
                    for i, (s, t) in enumerate(prefixes, 1)]
        rules = [(pairs(tag, "x", "y", [("", "not "), ("~", ""), ("", "not ~"), ("not ", ""),
                                        ("", "~")]),
                  pairs(tag, "u", "v", [("", ""), ("not ", ""), ("", "~"), ("~", "not ~"),
                                        ("", "")]))
                 for tag in "ab"]
        path = write(tmp_path, "k5.x5", "".join(
            " & ".join(f"({x} | {y})" for x, y in body) + " -> "
            + " | ".join(f"({u} & {v})" for u, v in head) + ".\n" for body, head in rules))
        choices = [(b, h) for body, head in rules
                   for b in product(*body) for h in product(*head)]
        assert len(choices) == 2 * 1024
        code, out, err = run(capsys, "regular", "--json", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["rules"] == [
            f"{' & '.join(b)} -> {' | '.join(h)}." for b, h in choices]
        code, out, err = run(capsys, "export", path)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"{' ; '.join(h)} :- {', '.join(b)}.".replace("~", "-") for b, h in choices]

    def test_regular_over_budget_exits_3(self, tmp_path, capsys):
        wide = " & ".join(f"(a{i} | b{i})" for i in range(17)) + " -> c.\n"
        code, out, err = run(capsys, "regular", write(tmp_path, "wide.x5", wide))
        assert (code, out) == (3, "")
        assert err.startswith("error: distribution produced")

    def test_nnf_n5_mode(self, capsys):
        code, out, _ = run(capsys, "nnf", "~ not p -> p", "--mode", "n5")
        assert (code, out) == (0, "p -> p\n")

    def test_nnf_rule_trace_on_stderr(self, capsys):
        code, out, err = run(capsys, "nnf", "~(p & not p)", "--rule-trace")
        assert code == 0
        assert "xneg_and" in err
        assert "xneg_and" not in out

    def test_regular(self, tmp_path, capsys):
        path = write(tmp_path, "r2.x5", RULE2)
        code, out, _ = run(capsys, "regular", path)
        assert code == 0
        assert out == ("not bird -> ~bird | flies.\n"
                       "not ~flies -> ~bird | flies.\n")

    def test_regular_rule_trace(self, tmp_path, capsys):
        path = write(tmp_path, "r2.x5", RULE2)
        code, out, err = run(capsys, "regular", path, "--rule-trace")
        assert code == 0
        assert "dneg_and @ rule 0" in err
        assert "body_or_split @ rule 0" in err

    def test_export(self, tmp_path, capsys):
        path = write(tmp_path, "r2.x5", RULE2)
        code, out, _ = run(capsys, "export", path)
        assert code == 0
        assert out == ("-bird ; flies :- not bird.\n"
                       "-bird ; flies :- not -flies.\n")

    def test_no_head_not_moves_shifted_items_first(self, tmp_path, capsys):
        # the head's ``not not b`` crosses before its ``not c``, whatever
        # their order in the head
        path = write(tmp_path, "elim.x5", "a -> not c | not not b.\n")
        code, out, err = run(capsys, "regular", "--no-head-not", "--rule-trace", path)
        assert (code, out) == (0, "a & not b & not not c -> bot.\n")
        assert err == "head_dneg_shift @ rule 0\nhead_dneg_elim @ rule 0\n"
        code, out, _ = run(capsys, "export", "--no-head-not", path)
        assert (code, out) == (0, ":- a, not b, not not c.\n")


def _backend_literal(rng, name):
    return rng.choice(["", "~", "not ", "not ~"]) + name


def _distribution_program(k, seed):
    """Two rules ``&_i (x_i | y_i) -> |_i (u_i & v_i)`` over fresh literals:
    each regularizes into 4^k rules."""
    rng = random.Random(seed)

    def pair(left, join, right):
        return f"({_backend_literal(rng, left)}{join}{_backend_literal(rng, right)})"

    return "".join(
        " & ".join(pair(f"b{r}x{i}", " | ", f"b{r}y{i}") for i in range(k)) + " -> "
        + " | ".join(pair(f"h{r}u{i}", " & ", f"h{r}v{i}") for i in range(k)) + ".\n"
        for r in range(2))


def _sweep_formula(rng, depth):
    """A random nested expression over six atoms, parenthesized throughout."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["u0", "u1", "u2", "u3", "u4", "u5", "top", "bot"])
    kind = rng.randrange(4)
    if kind < 2:
        return ("~", "not ")[kind] + "(" + _sweep_formula(rng, depth - 1) + ")"
    return ("(" + _sweep_formula(rng, depth - 1) + (" & ", " | ")[kind - 2]
            + _sweep_formula(rng, depth - 1) + ")")


def _sweep_program(seed):
    rng = random.Random(seed)
    return "".join(f"{_sweep_formula(rng, 3)} -> {_sweep_formula(rng, 2)}.\n"
                   for _ in range(300))


_BACKEND_PROGRAMS = {"k3": lambda: _distribution_program(3, 3),
                     "k4": lambda: _distribution_program(4, 4),
                     "k5": lambda: _distribution_program(5, 5),
                     "sweep300": lambda: _sweep_program(300)}
_BACKEND_RUNS = [(command, *flags) for command in ("regular", "export")
                 for flags in ((), ("--no-head-not",), ("--json",),
                               ("--no-head-not", "--json"))] + [("regular", "--rule-trace")]


_NO_TEXT = (0, "e3b0c44298fc1c14")


class TestBackendOutputsArePinned:
    """``regular`` and ``export`` print what they printed before the back end
    was made to cost a constant per output rule: (length, first 16 hex digits
    of the SHA-256) of stdout and of stderr."""

    PINNED = {  # (exit code, stdout, stderr)
        ('k3', 'regular'): (0, (7104, '62a19d4ec7e9ca8f'), _NO_TEXT),
        ('k3', 'regular --no-head-not'): (0, (7872, '8a7a8178cd9cbec4'), _NO_TEXT),
        ('k3', 'regular --json'): (0, (8369, '975cdb166610c138'), _NO_TEXT),
        ('k3', 'regular --no-head-not --json'): (0, (9137, '93691810df5a0db2'), _NO_TEXT),
        ('k3', 'export'): (0, (6848, '9f43b2f98a558c16'), _NO_TEXT),
        ('k3', 'export --no-head-not'): (0, (7424, 'aeb84902599f5de5'), _NO_TEXT),
        ('k3', 'export --json'): (0, (7083, '0a637ab6ab07dd91'), _NO_TEXT),
        ('k3', 'export --no-head-not --json'): (0, (7659, 'edd23098d7a1d5b2'), _NO_TEXT),
        ('k3', 'regular --rule-trace'): (0, (7104, '62a19d4ec7e9ca8f'), (262, 'b965cb7442cefeef')),
        ('k4', 'regular'): (0, (38016, '7b044d2402756848'), _NO_TEXT),
        ('k4', 'regular --no-head-not'): (0, (42720, 'e29dcf75d8645252'), _NO_TEXT),
        ('k4', 'regular --json'): (0, (42737, 'e37ff212d9edaf1c'), _NO_TEXT),
        ('k4', 'regular --no-head-not --json'): (0, (47441, '4fbdd5c187833382'), _NO_TEXT),
        ('k4', 'export'): (0, (36480, 'd7b6fc5b346cdd6b'), _NO_TEXT),
        ('k4', 'export --no-head-not'): (0, (39968, '17d1eb1c825e9358'), _NO_TEXT),
        ('k4', 'export --json'): (0, (37099, '7fad2d35afb9c559'), _NO_TEXT),
        ('k4', 'export --no-head-not --json'): (0, (40587, 'f01c31169a71a7bb'), _NO_TEXT),
        ('k4', 'regular --rule-trace'):
            (0, (38016, '7b044d2402756848'), (346, 'abb992a5f956309c')),
        ('k5', 'regular'): (0, (184832, 'b91b88f01de6ba24'), _NO_TEXT),
        ('k5', 'regular --no-head-not'): (0, (201216, '114cf8f5c5c8d106'), _NO_TEXT),
        ('k5', 'regular --json'): (0, (203377, '1e29517e6c28f233'), _NO_TEXT),
        ('k5', 'regular --no-head-not --json'): (0, (219761, '4264daa4d078f610'), _NO_TEXT),
        ('k5', 'export'): (0, (176640, '7371cfcfccaf0970'), _NO_TEXT),
        ('k5', 'export --no-head-not'): (0, (188928, '9e4e5978e0bfdc0d'), _NO_TEXT),
        ('k5', 'export --json'): (0, (178795, '87b910701ab6f7ab'), _NO_TEXT),
        ('k5', 'export --no-head-not --json'): (0, (191083, '30b22304eb65b738'), _NO_TEXT),
        ('k5', 'regular --rule-trace'):
            (0, (184832, 'b91b88f01de6ba24'), (430, '87a4d0983490662e')),
        ('sweep300', 'regular'): (0, (4789, 'f57afb083c3b1a5b'), _NO_TEXT),
        ('sweep300', 'regular --no-head-not'): (0, (5585, '72f6bfd2e039ea5b'), _NO_TEXT),
        ('sweep300', 'regular --json'): (0, (7494, '262d1c7166c4c437'), _NO_TEXT),
        ('sweep300', 'regular --no-head-not --json'): (0, (8290, '293929996a70cfaa'), _NO_TEXT),
        ('sweep300', 'export'): (0, (4546, 'f3a944b9810f549b'), _NO_TEXT),
        ('sweep300', 'export --no-head-not'): (0, (5038, '8b6a2f0502088a7c'), _NO_TEXT),
        ('sweep300', 'export --json'): (0, (4941, '720a7dd5c109259b'), _NO_TEXT),
        ('sweep300', 'export --no-head-not --json'): (0, (5433, '9705173df3cb689d'), _NO_TEXT),
        ('sweep300', 'regular --rule-trace'):
            (0, (4789, 'f57afb083c3b1a5b'), (12629, '76e6aa55174069b1')),
    }

    @pytest.mark.parametrize("program", sorted(_BACKEND_PROGRAMS))
    @pytest.mark.parametrize("argv", _BACKEND_RUNS, ids=" ".join)
    def test_output(self, tmp_path, capsys, program, argv):
        import hashlib

        def pin(text):
            return len(text), hashlib.sha256(text.encode()).hexdigest()[:16]

        path = write(tmp_path, "program.x5", _BACKEND_PROGRAMS[program]())
        code, out, err = run(capsys, *argv, path)
        assert (code, pin(out), pin(err)) == self.PINNED[program, " ".join(argv)]


class TestTables:
    def test_x5_json_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--json")
        tables = json.loads(out)["result"]["tables"]
        assert tables["->"][3] == [-2, -1, 0, 2, 2]
        assert tables["~"] == [2, 1, 0, -1, -2]
        assert tables["not"] == [2, 2, 2, -2, -2]

    def test_n5_json_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--mode", "n5", "--json")
        tables = json.loads(out)["result"]["tables"]
        assert tables["->"][3] == [-1, -1, 0, 2, 2]
        assert tables["not"] == [2, 2, 2, -1, -2]

    def test_text_is_aligned(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "    & |  -2  -1   0   1   2" in out


class TestGolden:
    """Exact stdout of every command whose output no other test pins whole;
    ``.json`` goldens are compared as envelopes, the others as text."""

    CASES = [
        ("tables_x5.txt", ["tables"]),
        ("tables_n5.txt", ["tables", "--mode", "n5"]),
        ("tables_x5.json", ["tables", "--json"]),
        ("tables_n5.json", ["tables", "--mode", "n5", "--json"]),
        ("eval_n5.json", ["eval", "not not p -> p", "--model", "{p}", "--here", "{}",
                          "--mode", "n5", "--json"]),
        ("eval_classical.json", ["eval", "not not p -> p", "--model", "{p}", "--here", "{}",
                                 "--mode", "classical", "--json"]),
        ("reduct_nested.json", ["reduct", "--wrt", "{}", "EXAMPLE1", "--json"]),
        ("reduct_ferraris.json", ["reduct", "--wrt", "{~bird}", "RULE2", "--ferraris", "--json"]),
        ("nnf.json", ["nnf", "~(p & not p) | ~(q -> ~r)", "--json"]),
        ("regular.json", ["regular", "RULE2", "--json"]),
        ("export.json", ["export", "RULE2", "--no-head-not", "--json"]),
        ("context.txt", ["context", "p | ~q", "not not p | ~q"]),
    ]

    @pytest.mark.parametrize("golden, argv", CASES, ids=[c[0] for c in CASES])
    def test_output(self, tmp_path, capsys, golden, argv):
        files = {"EXAMPLE1": write(tmp_path, "ex1.x5", EXAMPLE1),
                 "RULE2": write(tmp_path, "r2.x5", RULE2)}
        code, out, err = run(capsys, *[files.get(a, a) for a in argv])
        assert (code, err) == (0, "")
        if golden.endswith(".json"):
            check_golden(out, golden)
        else:
            assert out == (DATA / golden).read_text(encoding="utf-8")
