#!/usr/bin/env python3
"""Self-tests of the benchmark: reference, generated inputs, tiny runs, tracing.

    python3 bench/selftest.py

Prints one PASS line per test and exits with 1 on the first failure.
"""

from __future__ import annotations

import filecmp
import shutil
import sys
import traceback

import gen
import ref
import run
import tracing

# The paper's X5 tables over the values (-2, -1, 0, 1, 2); rows are the
# first operand.  N5 differs from X5 only in the implication cell (1, -2).
VALUES = (-2, -1, 0, 1, 2)
X5_AND = [[min(a, b) for b in VALUES] for a in VALUES]
X5_OR = [[max(a, b) for b in VALUES] for a in VALUES]
X5_IMPL = [
    [2, 2, 2, 2, 2],
    [2, 2, 2, 2, 2],
    [2, 2, 2, 2, 2],
    [-2, -1, 0, 2, 2],
    [-2, -1, 0, 1, 2],
]
X5_XNEG = [2, 1, 0, -1, -2]
X5_DNEG = [2, 2, 2, -2, -2]
N5_DNEG = [2, 2, 2, -1, -2]


class Failed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def _value(f, values: dict, n5=False) -> int:
    """Value of ``f`` at the point where the atoms take ``values``."""
    space = ref.Space(values)
    point = 0
    for a in space.atoms:
        point = point * 5 + ref.FIVE_STATES.index(values[a])
    return space.value_at(space.eval(f, n5), point)


def test_tables():
    p, q = ("a", "p"), ("a", "q")
    for i, a in enumerate(VALUES):
        expect(_value(("~", p), {"p": a}) == X5_XNEG[i], f"~ at {a}")
        expect(_value(("n", p), {"p": a}) == X5_DNEG[i], f"not at {a}")
        expect(_value(("n", p), {"p": a}, n5=True) == N5_DNEG[i], f"N5 not at {a}")
        for j, b in enumerate(VALUES):
            point = {"p": a, "q": b}
            expect(_value(("&", p, q), point) == X5_AND[i][j], f"& at {a},{b}")
            expect(_value(("|", p, q), point) == X5_OR[i][j], f"| at {a},{b}")
            expect(_value((">", p, q), point) == X5_IMPL[i][j], f"-> at {a},{b}")
            n5 = -1 if (a, b) == (1, -2) else X5_IMPL[i][j]
            expect(_value((">", p, q), point, n5=True) == n5, f"N5 -> at {a},{b}")


def test_known_answers():
    for n in (1, 2, 3):
        prog = ref.parse_statements(gen.choice_program(n))
        expect(ref.solve_outcome(prog) == (0, gen.choice_answer_sets(n)), f"choice {n}")
    expect(ref.solve_outcome(ref.parse_statements("~ not p -> p.")) == (0, ["{}", "{p}"]),
           "~ not p -> p has answer sets {} and {p}")
    expect(ref.solve_outcome(ref.parse_statements("not not p.")) == (1, []),
           "not not p has no answer set")
    birds = ref.parse_statements("not (bird & ~flies) -> ~(bird & ~flies).")
    expect(ref.solve_outcome(birds) == (0, ["{flies}", "{~bird}"]), "birds sample")
    expect(ref.valid_outcome(ref.parse_formula("not not p -> p"))
           == (1, ["not valid", "witness: p=1 : 1"]), "first counter-model of not not p -> p")
    expect(ref.valid_outcome(ref.parse_formula("p -> p")) == (0, ["valid"]), "p -> p is valid")
    expect(ref.equiv_outcome("subst", ref.parse_formula("~not p"),
                             ref.parse_formula("not not p"))[0] == 0, "~not p = not not p")
    expect(ref.equiv_outcome("weak", ref.parse_formula("~(p -> q)"),
                             ref.parse_formula("not not p & ~q"))[0] == 0,
           "~(p -> q) is weakly equivalent to not not p & ~q")
    expect(ref.equiv_outcome("subst", ref.parse_formula("~(p -> q)"),
                             ref.parse_formula("not not p & ~q"))[0] == 1,
           "... but not substitution-equivalent")
    expect(ref.context_outcome(ref.parse_formula("p -> p"), ref.parse_formula("not not p -> p"))
           == (0, ["witness: p=1", "satisfies: left", "context:", "p -> p.",
                   "equilibrium models with left: {}",
                   "equilibrium models with right: {}, {p}"]), "context of p -> p")


def test_rejects_planted_errors():
    good = gen.choice_answer_sets(3)
    check = gen.expect_exact(0, good)
    expect(check(0, "\n".join(good) + "\n", "") is None, "correct answer sets accepted")
    expect(check(0, "\n".join(good[:-1]) + "\n", "") is not None, "dropped answer set")
    swapped = [good[1], good[0]] + good[2:]
    expect(check(0, "\n".join(swapped) + "\n", "") is not None, "answer sets out of order")
    expect(check(1, "\n".join(good) + "\n", "") is not None, "wrong exit code")

    f = ref.parse_formula("not not p -> p")
    code, lines = ref.valid_outcome(f)
    check = gen.expect_outcome((code, lines))
    expect(check(1, "\n".join(lines) + "\n", "") is None, "correct witness accepted")
    later = ["not valid", "witness: p=-1 : 2"]
    expect(check(1, "\n".join(later) + "\n", "") is not None, "later witness")

    check = gen.expect_error(3)
    expect(check(3, "", "error: signature too large\n") is None, "guard error accepted")
    expect(check(3, "{p}\n", "error: x\n") is not None, "error with output")

    prog, choices = gen.distribution_program(gen.random.Random(0), 2, 1, "t")
    want = gen.distribution_expected(choices, False)
    expect(len(want) == 16, "rules x 4^k regular rules")
    lines = [_print_rule(b, h) for b, h in sorted(want, key=sorted)]
    check = gen.expect_regular_rules(want, False, False)
    expect(check(0, "\n".join(lines) + "\n", "") is None, "regular rules accepted")
    expect(check(0, "\n".join(lines[:-1]) + "\n", "") is not None, "dropped regular rule")
    expect(check(0, "\n".join(lines + ["(a | b) -> c."]) + "\n", "") is not None,
           "non-regular rule")

    src = ref.parse_formula("~(p & (q | not r))")
    check = gen.expect_nnf(src, False, False)
    expect(check(0, "~p | ~q & not not r\n", "") is None, "correct normal form accepted")
    expect(check(0, "~p | ~q & not r\n", "") is not None, "inequivalent normal form")
    expect(check(0, "~(p & (q | not r))\n", "") is not None, "not a normal form")


def _print_rule(body, head) -> str:
    b = " & ".join(sorted(body)) or "top"
    h = " | ".join(sorted(head)) or "bot"
    return f"{h}." if b == "top" else f"{b} -> {h}."


def test_seeded_inputs():
    base = run.OUT / "selftest"
    try:
        for workload in gen.WORKLOADS:
            dirs = [base / f"{workload}-{i}" for i in range(3)]
            lists = [gen.build(workload, seed, str(d), str(run.ROOT))
                     for seed, d in zip((5, 5, 6), dirs)]
            argv = [[[a.replace(str(d), "DIR") for a in t.argv] for t in tasks]
                    for tasks, d in zip(lists, dirs)]
            files = sorted(p.name for p in dirs[0].iterdir())
            same = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
            expect(argv[0] == argv[1] and not same[1] and not same[2],
                   f"{workload}: the same seed gives identical inputs")
            other = filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)
            expect(argv[0] != argv[2] or other[1],
                   f"{workload}: another seed changes the random part")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _tiny_pass(workload, recorder=None):
    workdir = run.OUT / f"selftest-{workload}"
    try:
        eqlx = run._import_eqlx()
        tasks = gen.build(workload, 3, str(workdir), str(run.ROOT), tiny=True)
        eqlx.to_nnf(eqlx.TOP)
        outcomes = run.Outcomes(tasks)
        if recorder is not None:
            recorder.install()
        try:
            run.run_pass(eqlx.cli, tasks, outcomes, [], recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tasks, outcomes.verdict()


def test_tiny_runs():
    for workload in gen.WORKLOADS:
        tasks, (correct, attempted, failed) = _tiny_pass(workload)
        known = sum(t.known_failure for t in tasks)
        expect(correct, f"{workload}: every output matches the reference")
        expect(known == 1 and failed == known and attempted == len(tasks),
               f"{workload}: failed {failed} of {attempted}, known failures {known}")


def test_tracing():
    names = None
    for workload in gen.WORKLOADS:
        recorder = tracing.Recorder()
        tasks, _ = _tiny_pass(workload, recorder)
        own = recorder.self_times()
        expect(min(own) > -1e-6, f"{workload}: self times are not negative")
        metrics = recorder.layer_metrics({i: t.argv[0] for i, t in enumerate(tasks)}, 0.01, 0.1)
        names = names or set(metrics)
        expect(set(metrics) == names, "every workload reports the same metrics")
        spans = {s[tracing.NAME] for s in recorder.spans}
        expect("cli.main" in spans, f"{workload}: cli spans recorded")
        if workload == "solve":
            expect(metrics["reduct.calls"][0] > 0 and metrics["solver.engine_calls"][0] > 0,
                   "solve reaches the reducts and the engines")
            expect(metrics["solver.guard_trips"][0] == 2, "solve trips the guard twice")
            expect(metrics["semantics.value5_calls"][0] == 0, "solve does not call value5")
        if workload == "verdict":
            expect(metrics["semantics.value5_calls"][0] > 0, "verdict calls value5")
            solved = sum(t.family.startswith("context") for t in tasks)
            expect(metrics["cli.resolve_calls"][0] == 2 * solved,
                   "two re-solves per context task that passes the guard")
            expect(metrics["reduct.calls"][0] == 0, "verdict makes no reduct calls")
        if workload == "rewrite":
            expect(metrics["transform.rules_out_per_in"][0] > 1, "regularization splits rules")
            expect(metrics["solver.candidates"][0] == 0, "rewrite enumerates nothing")
    expect(names == set(run_metric_names()), "metric names match BENCHMARK.json")


def run_metric_names():
    import json
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


TESTS = [test_tables, test_known_answers, test_rejects_planted_errors, test_seeded_inputs,
         test_tiny_runs, test_tracing]


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    for test in TESTS:
        try:
            test()
        except Failed as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        except Exception:
            traceback.print_exc()
            print(f"FAIL {test.__name__}: raised")
            return 1
        print(f"PASS {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
