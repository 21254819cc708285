"""Seeded inputs, task lists and expected outcomes for the three workloads.

Nothing here imports eqlx: inputs are generated as text, and every expected
outcome comes from the known answer of a constructed family or from the
independent evaluator in ``ref.py``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, List, Optional

import ref

WORKLOADS = ("solve", "verdict", "rewrite")

SAMPLES = ("birds.x5", "closed_world.x5", "defaults.x5", "nested_theory.x5")

NNF_RULE_NAMES = {"xneg_top", "xneg_bot", "xneg_and", "xneg_or", "xneg_xneg",
                  "xneg_dneg", "xneg_impl", "xneg_dneg_n5", "xneg_impl_n5"}
REGULAR_TRACE_NAMES = NNF_RULE_NAMES | {
    "dist_and_or", "dist_or_and", "dneg_and", "dneg_or", "dneg_top", "dneg_bot",
    "triple_dneg", "head_and_split", "body_or_split", "body_dneg_shift",
    "head_dneg_shift", "head_dneg_elim", "drop_trivial_rule", "falsum_rule_split"}

Check = Callable[[int, str, str], Optional[str]]


@dataclass
class Task:
    """One command: its family, its argv and how to check its outcome.

    ``make_check`` and ``check_args`` build the check.  Building it may run
    the reference evaluator, so :func:`prepare_checks` does that outside set-up
    and outside the timed region.
    """

    family: str
    argv: List[str]
    make_check: Callable = field(repr=False)
    check_args: tuple = field(repr=False)
    known_failure: bool = False
    check: Optional[Check] = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Printing tuple formulas as eqlx input text (fully parenthesised)


def show(f) -> str:
    tag = f[0]
    if tag == "a":
        return f[1]
    if tag == "T":
        return "top"
    if tag == "F":
        return "bot"
    if tag == "~":
        return "~" + show(f[1])
    if tag == "n":
        return "not " + show(f[1])
    op = {"&": " & ", "|": " | ", ">": " -> "}[tag]
    return "(" + show(f[1]) + op + show(f[2]) + ")"


def show_statement(f) -> str:
    if f[0] == ">":
        return show(f[1]) + " -> " + show(f[2]) + "."
    return show(f) + "."


def conj(items):
    out = items[0]
    for x in items[1:]:
        out = ("&", out, x)
    return out


def disj(items):
    out = items[0]
    for x in items[1:]:
        out = ("|", out, x)
    return out


# ---------------------------------------------------------------------------
# Random formulas


def sweep_formula(rng, names, depth):
    """A nested expression shaped like ``scripts/engine_agreement_sweep.py``'s."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.85:
            return ("a", rng.choice(names))
        return ("F",) if roll < 0.925 else ("T",)
    kind = rng.randrange(4)
    if kind == 0:
        return ("~", sweep_formula(rng, names, depth - 1))
    if kind == 1:
        return ("n", sweep_formula(rng, names, depth - 1))
    left = sweep_formula(rng, names, depth - 1)
    right = sweep_formula(rng, names, depth - 1)
    return ("&" if kind == 2 else "|", left, right)


def sized_formula(rng, names, leaves, unary, ops="&|>", cover=True):
    """A formula with exactly ``leaves`` atoms and ``unary`` prefixes.

    With ``cover`` every name occurs; fixed sizes keep the cost of a task
    from varying much between seeds.
    """
    picked = list(names) if cover else []
    atoms_left = picked + [rng.choice(names) for _ in range(leaves - len(picked))]
    rng.shuffle(atoms_left)
    prefixes = {}
    for _ in range(unary):
        prefixes.setdefault(rng.randrange(2 * leaves - 1), []).append(rng.choice("~n"))
    preorder = iter(range(2 * leaves - 1))

    def tree(k):
        idx = next(preorder)
        if k == 1:
            f = ("a", atoms_left.pop())
        else:
            split = rng.randint(1, k - 1)
            op = rng.choice(ops)
            f = (op, tree(split), tree(k - split))
        for tag in prefixes.get(idx, ()):
            f = (tag, f)
        return f

    return tree(leaves)


def _size(f) -> int:
    return 1 + sum(_size(c) for c in f[1:] if isinstance(c, tuple))


def _rewrite_at(f, index, fn):
    if index == 0:
        return fn(f)
    index -= 1
    kids = list(f[1:])
    for i, c in enumerate(kids):
        if not isinstance(c, tuple):
            continue
        n = _size(c)
        if index < n:
            kids[i] = _rewrite_at(c, index, fn)
            return (f[0], *kids)
        index -= n
    raise IndexError(index)


def _identity_step(rng, f):
    """One value-preserving X5 identity the paper proves, at the root of ``f``."""
    tag = f[0]
    options = []
    if tag == "~":
        c = f[1]
        if c[0] == "&":
            options.append(("|", ("~", c[1]), ("~", c[2])))
        if c[0] == "|":
            options.append(("&", ("~", c[1]), ("~", c[2])))
        if c[0] == "~":
            options.append(c[1])
        if c[0] == "n":
            options.append(("n", ("n", c[1])))
    if tag in ("&", "|"):
        options.append((tag, f[2], f[1]))
        a, b = f[1], f[2]
        if a[0] == "~" and b[0] == "~":
            options.append(("~", ({"&": "|", "|": "&"}[tag], a[1], b[1])))
        if a[0] == "n" and b[0] == "n" and tag == "&":
            options.append(("n", ("|", a[1], b[1])))
    if tag == "n":
        c = f[1]
        if c[0] == "|":
            options.append(("&", ("n", c[1]), ("n", c[2])))
        if c[0] == "&":
            options.append(("|", ("n", c[1]), ("n", c[2])))
        if c[0] == "n" and c[1][0] == "n":
            options.append(c[1])
    if not options:
        options.append(("~", ("~", f)))
    return rng.choice(options)


def equivalent_variant(rng, f, steps):
    for _ in range(steps):
        f = _rewrite_at(f, rng.randrange(_size(f)), lambda g: _identity_step(rng, g))
    return f


def mutated(rng, f, names):
    """Change one leaf atom or swap one prefix between ``~`` and ``not``."""
    def change(g):
        if g[0] == "a":
            return ("a", rng.choice([n for n in names if n != g[1]] or names))
        if g[0] == "~":
            return ("n", g[1])
        if g[0] == "n":
            return ("~", g[1])
        return (g[0], g[2], g[1]) if g[0] == ">" else ("~", g)
    return _rewrite_at(f, rng.randrange(_size(f)), change)


def names_for(n, prefix="p"):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Checks


def _lines(text: str) -> list:
    return text.splitlines()


def expect_exact(code: int, lines, stderr_has: Optional[str] = None) -> Check:
    lines = list(lines)

    def check(got_code, out, err):
        if got_code != code:
            return f"exit {got_code}, expected {code}; stderr {err[-200:]!r}"
        got = _lines(out)
        if got != lines:
            return f"stdout differs: {got[:6]!r} vs expected {lines[:6]!r}"
        if stderr_has is not None and stderr_has not in err:
            return f"stderr lacks {stderr_has!r}"
        return None
    return check


def expect_error(*codes: int) -> Check:
    """A documented error exit: no stdout and an ``error:`` line on stderr."""
    def check(got_code, out, err):
        if got_code not in codes:
            return f"exit {got_code}, expected one of {codes}"
        if out:
            return f"unexpected stdout {out[:80]!r}"
        if not err.startswith("error: "):
            return f"stderr is not an error line: {err[:80]!r}"
        return None
    return check


def expect_any(*checks: Check) -> Check:
    def check(got_code, out, err):
        reasons = [c(got_code, out, err) for c in checks]
        if any(r is None for r in reasons):
            return None
        return " / ".join(reasons)
    return check


def expect_outcome(outcome) -> Check:
    """Exit code and stdout lines; ``solve`` without models says so on stderr."""
    code, lines = outcome
    return expect_exact(code, lines, "no models" if code == 1 and not lines else None)


def expect_nnf(source, n5: bool, traced: bool) -> Check:
    """Output is one NNF formula weakly equivalent to ``source`` in the mode.

    In X5 an input without implications keeps every value, because only
    value-preserving rules apply to it.
    """
    def check(code, out, err):
        if code != 0:
            return f"exit {code}"
        lines = _lines(out)
        if len(lines) != 1:
            return f"{len(lines)} output lines"
        try:
            got = ref.parse_formula(lines[0])
        except SyntaxError as exc:
            return f"unparsable output: {exc}"
        if not ref.is_nnf(got):
            return "output is not in negation normal form"
        space = ref.Space(ref.atoms_of(source) | ref.atoms_of(got))
        if space.designated(ref.iff(source, got), n5) != space.all:
            return "output is not weakly equivalent to the input"
        if not n5 and not ref.has_impl(source) and space.eval(source) != space.eval(got):
            return "output changes a value of an implication-free input"
        return _check_trace(err, NNF_RULE_NAMES, traced)
    return check


def _check_trace(err, names, traced):
    entries = _lines(err)
    if not traced:
        return f"unexpected stderr {err[:80]!r}" if err else None
    for e in entries:
        name, sep, where = e.partition(" @ ")
        if not sep or name not in names or not where:
            return f"bad rule-trace line {e!r}"
    return None


def expect_regular_rules(expected_rules, no_head_not: bool, traced: bool) -> Check:
    """Printed rules are regular and equal, as a set, to ``expected_rules``."""
    def check(code, out, err):
        if code != 0:
            return f"exit {code}"
        got = []
        for line in _lines(out):
            try:
                body, head = ref.parse_rule_line(line)
            except SyntaxError as exc:
                return f"unparsable rule {line!r}: {exc}"
            parts = ref.regular_parts(body, head, body_nots=2 if no_head_not else 1,
                                      head_nots=0 if no_head_not else 1)
            if parts is None:
                return f"not a regular rule: {line!r}"
            got.append(parts)
        return _compare_rules(got, expected_rules) or _check_trace(
            err, REGULAR_TRACE_NAMES, traced)
    return check


def expect_export_rules(expected_rules) -> Check:
    def check(code, out, err):
        if code != 0:
            return f"exit {code}"
        try:
            got = [ref.parse_asp_line(line) for line in _lines(out)]
        except SyntaxError as exc:
            return str(exc)
        return _compare_rules(got, expected_rules) or (
            f"unexpected stderr {err[:80]!r}" if err else None)
    return check


def _compare_rules(got, expected):
    """``expected`` is a set of (body, head) literal sets or a semantic test."""
    if callable(expected):
        return expected(got)
    if len(got) != len(expected) or set(got) != expected:
        missing = len(expected - set(got))
        extra = len(set(got) - expected)
        return f"{len(got)} rules, {missing} expected rules missing, {extra} unexpected"
    return None


def same_theory_as(formulas) -> Callable:
    """Semantic test: the output rules designate exactly where ``formulas`` do."""
    space = ref.Space(set().union(*(ref.atoms_of(f) for f in formulas)))
    want = space.all
    for f in formulas:
        want &= space.designated(f)

    def test(rules):
        got = space.all
        for body, head in rules:
            rule = ref.rule_formula(body, head)
            if not ref.atoms_of(rule) <= set(space.atoms):
                return "output mentions an atom the input does not"
            got &= space.designated(rule)
        return None if got == want else "output is not equivalent to the input program"
    return test


# ---------------------------------------------------------------------------
# Checks that need the reference evaluator


def solve_check(formulas) -> Check:
    return expect_outcome(ref.solve_outcome(formulas))


def sample_check(path) -> Check:
    with open(path, encoding="utf-8") as handle:
        return solve_check(ref.parse_statements(handle.read()))


def equiv_check(relation, left, right) -> Check:
    return expect_outcome(ref.equiv_outcome(relation, left, right))


def context_check(left, right) -> Check:
    return expect_outcome(ref.context_outcome(left, right))


def distribution_check(command, choices, no_head_not) -> Check:
    want = distribution_expected(choices, no_head_not)
    if command == "export":
        return expect_export_rules(want)
    return expect_regular_rules(want, no_head_not, False)


def program_check(command, prog, traced=False) -> Check:
    same = same_theory_as(prog)
    if command == "export":
        return expect_export_rules(same)
    return expect_regular_rules(same, False, traced)


def prepare_checks(tasks) -> None:
    for t in tasks:
        t.check = t.make_check(*t.check_args)


# ---------------------------------------------------------------------------
# Workloads


class Builder:
    """Writes input files into ``directory`` and collects tasks."""

    def __init__(self, workload: str, seed: int, directory: str, root: str, tiny: bool):
        self.rng = random.Random(f"eqlx-bench:{workload}:{seed}")
        self.dir = directory
        self.root = root
        self.tiny = tiny
        self.tasks: List[Task] = []
        self.files = 0

    def file(self, text: str) -> str:
        self.files += 1
        path = os.path.join(self.dir, f"in{self.files:03d}.x5")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def add(self, family, argv, make_check, *check_args, known_failure=False):
        self.tasks.append(Task(family, list(argv), make_check, check_args, known_failure))


def choice_program(n: int) -> str:
    return "".join(f"not ~a{i} -> a{i}.\nnot a{i} -> ~a{i}.\n" for i in range(1, n + 1))


def choice_answer_sets(n: int) -> list:
    """2^n answer sets: each atom true or explicitly false, positive first."""
    names = [f"a{i}" for i in range(1, n + 1)]
    return ["{" + ", ".join(lits) + "}" for lits in product(*[(a, "~" + a) for a in names])]


def nesting_probe_parens(depth: int) -> str:
    return "(" * depth + "p" + ")" * depth


def _covering(rng, names, make):
    """Draw ``make(rng)`` until it mentions every name and repeats no member."""
    while True:
        formulas = make(rng)
        seen = set()
        for f in formulas:
            ref.atoms_of(f, seen)
        if len(seen) == len(names) and len(set(formulas)) == len(formulas):
            return formulas


def _random_program(rng, names):
    """Three rules of nested expressions, as in the agreement sweep, over all
    ``names``; each side has two atoms and one prefix."""
    side = lambda r: sized_formula(r, names, 2, 1, ops="&|", cover=False)
    return _covering(rng, names, lambda r: [(">", side(r), side(r)) for _ in range(3)])


def _random_theory(rng, names):
    """Three formulas over all ``names``; the first nests an implication."""
    def make(r):
        part = lambda k: sized_formula(r, names, k, 1, cover=False)
        return [(">", (">", part(2), part(2)), part(2)), part(4), part(4)]
    return _covering(rng, names, make)


def build_solve(b: Builder) -> None:
    rng, tiny = b.rng, b.tiny
    for n in (range(2, 4) if tiny else range(4, 8)):
        b.add(f"choice{n}", ["solve", b.file(choice_program(n))],
              expect_exact, 0, choice_answer_sets(n))
    # the median falls among the 32 programs over 5 atoms, the 90th
    # percentile among the 16 over 6
    for n, count in ((3, 2),) if tiny else ((4, 4), (5, 32), (6, 16)):
        names = names_for(n, "q")
        for _ in range(count):
            prog = _random_program(rng, names)
            path = b.file("".join(show_statement(f) + "\n" for f in prog))
            b.add(f"random_program{n}", ["solve", path], solve_check, prog)
    for n in ((3,) if tiny else (4, 5)):
        names = names_for(n, "r")
        for _ in range(2 if tiny else 3):
            theory = _random_theory(rng, names)
            path = b.file("".join(show(f) + ".\n" for f in theory))
            b.add(f"random_theory{n}", ["solve", path], solve_check, theory)
    for name in SAMPLES:
        path = os.path.join(b.root, "samples", name)
        b.add("sample", ["solve", path], sample_check, path)
    guard_file = b.file(choice_program(13))
    b.add("guard13", ["solve", guard_file], expect_error, 3)
    b.add("guard_negative", ["solve", "--max-atoms", "-1", guard_file], expect_error, 2, 3)
    b.add("syntax_error", ["solve", b.file("p -> .\n")], expect_error, 2)
    # the fact p inside 1200 parentheses: answer set {p}, or a parse error
    b.add("nesting_probe", ["solve", b.file(nesting_probe_parens(1200) + ".\n")],
          expect_any, expect_exact(0, ["{p}"]), expect_error(2), known_failure=True)


def build_verdict(b: Builder) -> None:
    rng, tiny = b.rng, b.tiny
    for n in (range(2, 4) if tiny else range(3, 7)):
        names = names_for(n)
        valid = conj([(">", ("a", a), ("a", a)) for a in names])
        b.add(f"valid{n}", ["valid", show(valid)], expect_exact, 0, ["valid"])
        invalid = conj([(">", ("n", ("n", ("a", a))), ("a", a)) for a in names])
        # first counter-model: every atom 0 except the last, which is 1
        witness = ", ".join(f"{a}={int(a == names[-1])}" for a in names)
        b.add(f"invalid{n}", ["valid", show(invalid)],
              expect_exact, 1, ["not valid", f"witness: {witness} : 1"])
    # equivalent pairs do full 5^n scans.  Each timing quantile falls inside a
    # family of like-sized tasks: the median among the n=3 substitution
    # checks, the 90th percentile among the n=4 weak checks (a weak check
    # evaluates the double implication, twice the nodes of a subst check).
    plan = ((3, 1, ("subst", "weak")),) if tiny else (
        (3, 16, ("subst",)), (4, 24, ("weak",)), (5, 1, ("weak", "subst")))
    for n, count, relations in plan:
        names = names_for(n, "s")
        for _ in range(count):
            left = sized_formula(rng, names, 8, 4)
            _add_pair(b, f"equivalent{n}", left, equivalent_variant(rng, left, 2), relations)
    # inequivalent pairs stop at a witness anywhere in the scan
    for n in ((3,) if tiny else (3, 4)):
        names = names_for(n, "s")
        for _ in range(1 if tiny else 3):
            left = sized_formula(rng, names, 6, 3)
            _add_pair(b, f"different{n}", left, mutated(rng, left, names))
    # weakly but not substitution-equivalent: ~(a -> c) against not not a & ~c
    for n in ((3,) if tiny else (3, 4, 5)):
        names = names_for(n, "s")
        a = sized_formula(rng, names, 3, 1, cover=False)
        c = sized_formula(rng, names, 3, 1, cover=False)
        _add_pair(b, f"weak_only{n}", ("~", (">", a, c)), ("&", ("n", ("n", a)), ("~", c)))
    for n in ((2,) if tiny else (2, 3, 4)):
        names = names_for(n, "t")
        for _ in range(1 if tiny else 3):
            while True:
                left = sized_formula(rng, names, n + 2, 2)
                right = mutated(rng, left, names)
                if not ref.weakly_equivalent(left, right):
                    break
            b.add(f"context{n}", ["context", show(left), show(right)],
                  context_check, left, right)
    guard = show(conj([(">", ("a", a), ("a", a)) for a in names_for(13)]))
    b.add("guard13", ["valid", guard], expect_error, 3)
    b.add("guard13", ["equiv", "weak", guard, "p1"], expect_error, 3)
    b.add("guard_negative", ["context", "--max-atoms", "-1", "p", "not p"],
          expect_error, 2, 3)
    b.add("syntax_error", ["valid", "p & "], expect_error, 2)
    # 1200 parentheses around p: not valid with witness p=0, or a parse error
    b.add("nesting_probe", ["valid", nesting_probe_parens(1200)],
          expect_any, expect_exact(1, ["not valid", "witness: p=0 : 0"]), expect_error(2),
          known_failure=True)


def _add_pair(b: Builder, family: str, left, right, relations=("weak", "subst")) -> None:
    for relation in relations:
        b.add(family, ["equiv", relation, show(left), show(right)],
              equiv_check, relation, left, right)


def distribution_program(rng, k: int, rules: int, tag: str):
    """Rules ``&_i (x_i | y_i) -> |_i (u_i & v_i)`` over fresh atoms.

    Distribution turns each rule into 2^k bodies times 2^k head clauses, so
    the regular program has exactly ``rules * 4^k`` rules; each picks one
    literal from every body disjunction and every head conjunction.
    """
    prog, choices = [], []
    for r in range(rules):
        body_pairs = [[_fresh_literal(rng, f"{tag}b{r}_{i}{c}") for c in "xy"] for i in range(k)]
        head_pairs = [[_fresh_literal(rng, f"{tag}h{r}_{i}{c}") for c in "uv"] for i in range(k)]
        body = conj([disj([f for f, _ in pair]) for pair in body_pairs])
        head = disj([conj([f for f, _ in pair]) for pair in head_pairs])
        prog.append((">", body, head))
        choices.append(([[t for _, t in p] for p in body_pairs],
                        [[t for _, t in p] for p in head_pairs]))
    return prog, choices


def _fresh_literal(rng, name):
    """``name``, ``~name``, ``not name`` or ``not ~name``, with its text."""
    roll = rng.randrange(4)
    f = ("a", name) if roll % 2 == 0 else ("~", ("a", name))
    if roll >= 2:
        return ("n", f), "not " + ref.explicit_literal(f)
    return f, ref.explicit_literal(f)


def distribution_expected(choices, no_head_not: bool) -> set:
    """The regular rules as (body, head) literal sets; ``--no-head-not`` moves
    each ``not L`` of a head into the body as ``not not L``."""
    out = set()
    for body_pairs, head_pairs in choices:
        for bpick in product(*body_pairs):
            for hpick in product(*head_pairs):
                body, head = set(bpick), set()
                for lit in hpick:
                    if no_head_not and lit.startswith("not "):
                        body.add("not " + lit)
                    else:
                        head.add(lit)
                out.add((frozenset(body), frozenset(head)))
    return out


def build_rewrite(b: Builder) -> None:
    rng, tiny = b.rng, b.tiny
    for k in ((2,) if tiny else (3, 4, 5)):
        prog, choices = distribution_program(rng, k, 2, f"k{k}")
        path = b.file("".join(show_statement(f) + "\n" for f in prog))
        for no_head_not in (False, True):
            flag = ["--no-head-not"] if no_head_not else []
            for command in ("regular", "export"):
                b.add(f"{command}_k{k}", [command, *flag, path],
                      distribution_check, command, choices, no_head_not)
    names = names_for(6, "u")
    for _ in range(1 if tiny else 2):
        prog = [(">", sweep_formula(rng, names, 3), sweep_formula(rng, names, 2))
                for _ in range(20 if tiny else 300)]
        path = b.file("".join(show_statement(f) + "\n" for f in prog))
        b.add("regular_300", ["regular", path], program_check, "regular", prog)
        b.add("regular_300", ["regular", "--rule-trace", path],
              program_check, "regular", prog, True)
        b.add("export_300", ["export", path], program_check, "export", prog)
    names = names_for(5, "v")
    for i in range(4 if tiny else 24):
        f = ("~", sized_formula(rng, names, 12 if tiny else 120, 8 if tiny else 80))
        traced, n5 = i % 2 == 1, i % 6 == 5
        argv = ["nnf"] + ["--rule-trace"] * traced + ["--mode", "n5"] * n5
        b.add("nnf_n5" if n5 else "nnf", argv + [show(f)], expect_nnf, f, n5, traced)
    b.add("guard_negative", ["nnf", "--max-atoms", "-1", "~(p & q)"],
          expect_any, expect_exact(0, ["~p | ~q"]), expect_error(2))
    b.add("syntax_error", ["nnf", "p | | q"], expect_error, 2)
    # 3000 nested ~ around p: an even count, so the normal form is p
    b.add("nesting_probe", ["nnf", "~" * 3000 + "p"],
          expect_any, expect_exact(0, ["p"]), expect_error(2), known_failure=True)


BUILDERS = {"solve": build_solve, "verdict": build_verdict, "rewrite": build_rewrite}


def build(workload: str, seed: int, directory: str, root: str, tiny: bool = False) -> List[Task]:
    """Write the inputs of ``workload`` for ``seed`` and return its task list.

    The list is shuffled with the seed, so families do not run in blocks.
    ``tiny`` shrinks every family, for the self-tests.
    """
    os.makedirs(directory, exist_ok=True)
    b = Builder(workload, seed, directory, root, tiny)
    BUILDERS[workload](b)
    b.rng.shuffle(b.tasks)
    return b.tasks
