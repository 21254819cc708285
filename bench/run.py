#!/usr/bin/env python3
"""Benchmark of the eqlx command line: one workload, one seed, one result.

    python3 bench/run.py --workload solve|verdict|rewrite|all --seed N \
        --seconds S --trace 0|1

The load is a closed loop with one caller: this process calls
``eqlx.cli.main(argv)`` in-process, one command at a time, with no threads
and the default ``--parallel 1``.  Inputs are generated from the seed (see
``gen.py``) and written under ``bench/out``; eqlx receives only those files
and strings.  After the timed commands, every exit code and output is
checked against ``ref.py``, which does not use eqlx.

``--trace 0`` repeats whole passes over the task list until ``--seconds``
of command time have been measured and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see ``tracing.py``); its spans go to ``bench/out``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--workload all`` runs each workload in its own process and
prints one row per workload.

A shared machine changes speed by tens of percent within minutes.  So a
fixed piece of pure-Python work, the speed probe, runs between commands,
and each command's time is scaled by ``REFERENCE_PROBE_S`` over the mean of
the probes just before and just after it.  Times are therefore seconds on a
machine where the probe takes ``REFERENCE_PROBE_S``.  The probe does not
touch eqlx, so a change to eqlx moves scaled time as it moves raw time; the
raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import gen  # noqa: E402

SETUP_PROBES = 7
REFERENCE_PROBE_S = 0.0025
END_TO_END_UNITS = {
    "tasks_per_s": "1/s", "task_ms_p50": "ms", "task_ms_p90": "ms",
    "failed_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_eqlx():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import eqlx
    import eqlx.cli
    if Path(eqlx.__file__).resolve().parent != (src / "eqlx").resolve():
        raise ImportError(f"imported eqlx from {eqlx.__file__}, not from {src}")
    return eqlx


def _workdir(workload: str, seed: int) -> Path:
    return OUT / f"inputs-{workload}-{seed}-{os.getpid()}"


def speed_probe() -> float:
    """Seconds for fixed pure-Python work of eqlx's kind: tuples, dicts, sets, str."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    keys = frozenset(counts)
    sum(len(str(k)) for k in keys)
    return time.perf_counter() - t0


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * REFERENCE_PROBE_S * 2.0 / (probe_before + probe_after)


# ---------------------------------------------------------------------------
# Set-up


def setup_probe(workload: str, seed: int) -> int:
    """Time what a fresh process pays before its first command; print seconds."""
    workdir = _workdir(workload, seed)
    try:
        speed_probe()
        before = speed_probe()
        t0 = time.perf_counter()
        eqlx = _import_eqlx()
        gen.build(workload, seed, str(workdir), str(ROOT))
        eqlx.verify_rewrite_rules()
        elapsed = time.perf_counter() - t0
        print(f"{scaled(elapsed, before, speed_probe()):.9f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)], capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Running tasks


class Outcomes:
    """Collects each task's distinct outcomes, then checks them.

    A task fails on a wrong exit code, a wrong output or an escaped
    exception.  Known failures (the nesting probes) count as failures but do
    not make the run incorrect when they fail by an escaped exception.
    Checking waits until the timed commands are done, so the reference's
    memory does not show in the peak of the process.
    """

    def __init__(self, tasks):
        self.tasks = tasks
        self.seen = [Counter() for _ in tasks]

    def record(self, idx: int, code, out: str, err: str, exc) -> None:
        self.seen[idx][(code, out, err, type(exc).__name__ if exc else None)] += 1

    def verdict(self):
        """(correct, attempted, failed); prints each failing task once to stderr."""
        gen.prepare_checks(self.tasks)
        correct, attempted, failed = True, 0, 0
        for task, seen in zip(self.tasks, self.seen):
            for (code, out, err, exc), times in seen.items():
                attempted += times
                if exc is not None:
                    reason, expected = f"escaped {exc}", task.known_failure
                else:
                    reason, expected = task.check(code, out, err), False
                if reason is None:
                    continue
                failed += times
                correct &= expected
                kind = "known failure" if expected else "FAILED"
                shown = " ".join(a if len(a) < 60 else a[:57] + "..." for a in task.argv)
                print(f"bench: {kind} [{task.family}] eqlx {shown}: {reason}", file=sys.stderr)
        return correct, attempted, failed


def run_task(cli, argv):
    """Call ``eqlx.cli.main`` once; returns (seconds, exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception as error:  # an escaped exception is a failed task
            exc = error
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue(), exc


def run_pass(cli, tasks, outcomes, durations, recorder=None) -> float:
    """One pass over the task list.

    Appends (raw seconds, scaled seconds) per command to ``durations`` and
    returns the pass's scaled command time.
    """
    total = 0.0
    before = speed_probe()
    for idx, task in enumerate(tasks):
        if recorder is not None:
            recorder.task = idx
        elapsed, code, out, err, exc = run_task(cli, task.argv)
        after = speed_probe()
        durations.append((elapsed, scaled(elapsed, before, after)))
        total += durations[-1][1]
        before = after
        outcomes.record(idx, code, out, err, exc)
    return total


def prepare(workload: str, seed: int, workdir: Path):
    eqlx = _import_eqlx()
    tasks = gen.build(workload, seed, str(workdir), str(ROOT))
    eqlx.to_nnf(eqlx.TOP)  # runs the rewriters' one-time table check, paid in set-up
    return eqlx, tasks


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    workdir = _workdir(workload, seed)
    try:
        eqlx, tasks = prepare(workload, seed, workdir)
        outcomes = Outcomes(tasks)
        durations = []
        while sum(raw for raw, _ in durations) < seconds:
            run_pass(eqlx.cli, tasks, outcomes, durations)
        passes = len(durations) // len(tasks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, attempted, failed = outcomes.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = _timings([r for r, _ in durations], passes)
    print(f"{workload:8s} passes={passes} unscaled: "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    metrics = {
        **_timings([s for _, s in durations], passes),
        "failed_share": failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(correct, attempted, failed,
                   {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def _timings(seconds: list, passes: int) -> dict:
    """Throughput and quantiles of command times, in pass-major order.

    ``tasks_per_s`` divides the task count by the sum over tasks of each
    task's median time across passes, so a burst of slowness in one pass
    does not count; the quantiles are over every command run.
    """
    per_task = [statistics.median(seconds[i::len(seconds) // passes])
                for i in range(len(seconds) // passes)]
    ms = sorted(s * 1000.0 for s in seconds)
    return {
        "tasks_per_s": len(per_task) / sum(per_task),
        "task_ms_p50": statistics.median(ms),
        "task_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def traced(workload: str, seed: int) -> dict:
    import tracing

    workdir = _workdir(workload, seed)
    try:
        eqlx, tasks = prepare(workload, seed, workdir)
        verify_times = []
        for _ in range(5):
            t0 = time.perf_counter()
            eqlx.verify_rewrite_rules()
            verify_times.append(time.perf_counter() - t0)
        outcomes = Outcomes(tasks)
        plain = run_pass(eqlx.cli, tasks, outcomes, [])
        recorder = tracing.Recorder()
        recorder.install()
        try:
            with_spans = run_pass(eqlx.cli, tasks, outcomes, [], recorder)
        finally:
            recorder.uninstall()
        correct, attempted, failed = outcomes.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorder.write(str(OUT / f"trace-{workload}-{seed}.tsv"))
    commands = {i: t.argv[0] for i, t in enumerate(tasks)}
    metrics = recorder.layer_metrics(commands, statistics.median(verify_times),
                                     with_spans / plain - 1.0)
    return _result(correct, attempted, failed, metrics)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def row(workload: str, result: dict) -> str:
    cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    return (f"{workload:8s} correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}  " + "  ".join(cells))


def run_all(args) -> int:
    """Each workload in its own process, one row each; the JSON sums them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT,
            timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return _fail(f"workload {workload} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(row(workload, result))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            total["metrics"][f"{workload}.{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for needed in [ROOT / "src" / "eqlx" / "__init__.py"] + [
            ROOT / "samples" / name for name in gen.SAMPLES]:
        if not needed.is_file():
            return _fail(f"{needed.relative_to(ROOT)} is missing; run from an eqlx checkout")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(row(args.workload, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
