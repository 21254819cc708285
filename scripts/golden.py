#!/usr/bin/env python3
"""Golden outputs of the eqlx command line: exit code and digests of stdout
and stderr for a fixed list of commands.

    PYTHONPATH=src python scripts/golden.py --write   # rewrites tests/golden/digests.tsv
    PYTHONPATH=src python scripts/golden.py           # reports the lines that differ

The commands are every task that ``bench/gen.py`` builds for the workloads
``solve``, ``verdict`` and ``rewrite`` at seeds 1-3, with a digest of each
input file it writes; seven commands on each file of ``samples/``; ``tables``
in each mode, ``eval`` of fixed formulas at two interpretations in each mode,
and three interpretations that ``eval`` refuses; the options of the other
commands on the samples and on fixed formulas (``--via``, ``--signature``,
``--json``, ``--max-atoms``, ``--rule-trace``, the modes, ``--no-head-not``
and ``--ferraris``); and the ``--help`` of ``eqlx`` and of each subcommand.
Each runs in this process through ``eqlx.cli.main``.  The generated inputs
go under a temporary directory, and that directory and the repository root
are masked in the argv and in the outputs, so the file reads the same on any
machine.

argparse wraps its help to ``COLUMNS`` (set to 80 here) and words its help
and usage errors differently across Python versions, so the header records
the Python minor version and a line that argparse printed is kept apart:
``tests/test_golden.py`` compares its digests only under that version.

The file is tab-separated, one command or input per line: group, kind
(``run``, ``argparse`` or ``input``), argv as JSON (for an input, its path),
exit code (``-`` for an input), then the sha256 of stdout (for an input, of
its text) and of stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from eqlx import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "digests.tsv"
TMP, REPO = "$TMP", "$ROOT"

BENCH = [(workload, seed) for workload in ("solve", "verdict", "rewrite") for seed in (1, 2, 3)]
SAMPLE_COMMANDS = (["solve"], ["solve", "--json"], ["regular"], ["export"],
                   ["export", "--no-head-not"], ["reduct", "--wrt", "{p}"],
                   ["reduct", "--ferraris", "--wrt", "{p}"])
EVAL_FORMULAS = ("p", "p -> q", "not ~q", "~(p & not q)", "p | ~q", "~(p -> not q)")
EVAL_MODELS = (["--model", "{p, ~q}"], ["--model", "{p}", "--here", "{}"])
EVAL_MODES = ([], ["--mode", "n5"], ["--mode", "classical"], ["--json"])
EVAL_TABLES = ([["tables", *mode, *json] for mode in ([], ["--mode", "n5"])
                for json in ([], ["--json"])]
               + [["eval", f, *model, *mode] for f in EVAL_FORMULAS
                  for model in EVAL_MODELS for mode in EVAL_MODES]
               + [["eval", "p", "--model", "{p, ~p}"],
                  ["eval", "p", "--model", "{p}", "--here", "{q}"],
                  ["eval", "p", "--model", "{top}"]])


def _sample(name: str) -> str:
    return str(ROOT / "samples" / f"{name}.x5")


FLAGS = ([["solve", "--via", via, _sample("birds")] for via in ("reduct", "x5", "ferraris")]
         + [["solve", "--via", "reduct", _sample("nested_theory")],
            ["solve", "--signature", "q, r", _sample("defaults")],
            ["solve", "--signature", "q", "--json", _sample("closed_world")],
            ["valid", "p | not p", "--signature", "q"],
            ["valid", "p -> p", "--signature", "q, r", "--json"],
            ["equiv", "weak", "not not p", "p", "--signature", "q"],
            ["equiv", "subst", "p", "p & (q | not q)", "--signature", "r"],
            ["context", "not not p", "p", "--signature", "q"],
            ["context", "p | ~p", "not ~p", "--signature", "q", "--json"],
            ["valid", "p | not p", "--json"],
            ["valid", "p -> q", "--json"],
            ["equiv", "weak", "~(p & q)", "~p | ~q", "--json"],
            ["equiv", "weak", "not not p", "p", "--json"],
            ["equiv", "subst", "~ not p", "p", "--json"],
            ["equiv", "subst", "not (p & q)", "not p | not q", "--json"],
            ["context", "not not p", "p", "--json"],
            ["nnf", "~(p -> not q) & ~~r", "--json"],
            ["nnf", "~(p <-> q)", "--mode", "n5", "--json"],
            ["regular", _sample("birds"), "--json"],
            ["regular", _sample("defaults"), "--no-head-not", "--json"],
            ["export", _sample("birds"), "--json"],
            ["reduct", "--wrt", "{p}", _sample("defaults"), "--json"],
            ["reduct", "--ferraris", "--wrt", "{bird, ~flies}", _sample("birds"), "--json"],
            ["reduct", "--ferraris", "--wrt", "{~p, q}", _sample("line_mode"), "--json"],
            ["valid", "p | ~q", "--max-atoms", "1"],
            ["solve", "--max-atoms", "1", _sample("nested_theory")],
            ["valid", "p", "--max-atoms", "-1"],
            ["nnf", "~(p -> not q) | ~(p & ~q)", "--mode", "n5", "--rule-trace"],
            ["nnf", "~(not p <-> ~q)", "--rule-trace"],
            ["regular", _sample("birds"), "--no-head-not", "--rule-trace"],
            ["regular", _sample("defaults"), "--no-head-not", "--rule-trace"]]
         + [["reduct", "--ferraris", "--wrt", wrt, _sample("line_mode")]
            for wrt in ("{p}", "{p, q}", "{~p, q}")])


def python_minor() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def _bench_gen():
    """``bench/gen.py``, imported as it is (it imports ``bench/ref.py``)."""
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import gen
    finally:
        sys.path.remove(bench)
    return gen


def bench_inputs(workload: str, seed: int, tmp: Path) -> list:
    """Writes the inputs of one bench workload and seed under ``tmp``; the
    paths of the inputs and its tasks' argvs, in order."""
    directory = tmp / f"{workload}-{seed}"
    tasks = _bench_gen().build(workload, seed, str(directory), str(ROOT))
    return sorted(directory.iterdir()), [t.argv for t in tasks]


def mask(text: str, tmp: Path) -> str:
    return text.replace(str(tmp), TMP).replace(str(ROOT), REPO)


def unmask(text: str, tmp: Path) -> str:
    return text.replace(TMP, str(tmp)).replace(REPO, str(ROOT))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list) -> tuple:
    """``eqlx.cli.main(argv)`` in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def by_argparse(argv: list, err: str) -> bool:
    """Whether argparse printed the output: a help text or a usage error."""
    return "--help" in argv or err.startswith("usage:")


def groups(tmp: Path) -> list:
    """(group, input paths, argvs) of each group of lines, in file order;
    writes the bench inputs under ``tmp``."""
    out = [(f"bench-{workload}-{seed}", *bench_inputs(workload, seed, tmp))
           for workload, seed in BENCH]
    samples = sorted((ROOT / "samples").iterdir())
    out.append(("samples", [], [[*command, str(sample)]
                                for sample in samples for command in SAMPLE_COMMANDS]))
    out.append(("eval-tables", [], EVAL_TABLES))
    out.append(("flags", [], FLAGS))
    out.append(("help", [], [[*command, "--help"]
                             for command in [[]] + [[name] for name, *_ in cli._COMMANDS]]))
    return out


def rows(tmp: Path) -> list:
    """The golden lines, each a list of its six fields; argparse reads
    ``COLUMNS``, which should be 80."""
    out = []
    for group, paths, argvs in groups(tmp):
        out += [[group, "input", mask(str(path), tmp), "-", digest(path.read_text("utf-8")), "-"]
                for path in paths]
        for argv in argvs:
            code, stdout, stderr = run(argv)
            kind = "argparse" if by_argparse(argv, stderr) else "run"
            out.append([group, kind, json.dumps([mask(a, tmp) for a in argv]), str(code),
                        digest(mask(stdout, tmp)), digest(mask(stderr, tmp))])
    return out


def header() -> list:
    return [f"# python {python_minor()}",
            "# group\tkind\targv or path\texit\tsha256 stdout or text\tsha256 stderr"]


def read(path: Path = GOLDEN) -> tuple:
    """The Python minor version the file was written under, and its lines."""
    lines = path.read_text("utf-8").splitlines()
    version = lines[0].split()[-1]
    return version, [line.split("\t") for line in lines if not line.startswith("#")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        fresh = rows(Path(tmp).resolve())
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("\n".join(header() + ["\t".join(r) for r in fresh]) + "\n", "utf-8")
        print(f"wrote {len(fresh)} lines to {GOLDEN.relative_to(ROOT)}")
        return 0
    version, golden = read()
    differ = [(old, new) for old, new in zip(golden, fresh) if old != new
              and not (old[1] == "argparse" and version != python_minor())]
    for old, new in differ:
        print(f"differs: {old[2]}\n  golden {old[3:]}\n  now    {new[3:]}")
    if len(golden) != len(fresh):
        print(f"{len(golden)} golden lines, {len(fresh)} now")
    print(f"{len(fresh) - len(differ)} of {len(golden)} lines match")
    return 1 if differ or len(golden) != len(fresh) else 0


if __name__ == "__main__":
    sys.exit(main())
