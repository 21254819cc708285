"""The command line against its golden outputs, ``tests/golden/digests.tsv``:
every line's command, run in this process through ``eqlx.cli.main``, exits
with the recorded code and prints stdout and stderr with the recorded
digests.  ``scripts/golden.py --write`` rewrites the file; it documents the
format.  A line that argparse printed is compared only under the Python
minor version the file was written with, since argparse words its help and
usage errors differently across versions."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

VERSION, LINES = golden.read()
GROUPS = list(dict.fromkeys(line[0] for line in LINES))


def test_the_file_covers_every_command():
    assert GROUPS == [f"bench-{w}-{s}" for w, s in golden.BENCH] + [
        "samples", "eval-tables", "flags", "help"]
    runs = [line for line in LINES if line[1] != "input"]
    assert len(runs) == 591 + 5 * len(golden.SAMPLE_COMMANDS) + 55 + 37 + 11
    assert {line[1] for line in runs if line[0] == "help"} == {"argparse"}


@pytest.mark.parametrize("group", GROUPS)
def test_golden_outputs(group, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lines = [line for line in LINES if line[0] == group]
    runs = [line for line in lines if line[1] != "input"]
    if group.startswith("bench-"):
        _, workload, seed = group.split("-")
        paths, argvs = golden.bench_inputs(workload, int(seed), tmp_path)
        # the generator writes the same inputs and lists the same commands
        assert [[golden.mask(str(p), tmp_path), golden.digest(p.read_text("utf-8"))]
                for p in paths] == [[line[2], line[4]] for line in lines if line[1] == "input"]
        assert [[golden.mask(a, tmp_path) for a in argv] for argv in argvs] == \
            [json.loads(line[2]) for line in runs]
    differ = []
    for _, kind, argv, *expected in runs:
        code, out, err = golden.run([golden.unmask(a, tmp_path) for a in json.loads(argv)])
        got = [str(code), golden.digest(golden.mask(out, tmp_path)),
               golden.digest(golden.mask(err, tmp_path))]
        if kind == "argparse" and VERSION != golden.python_minor():
            got, expected = got[:1], expected[:1]
        if got != expected:
            differ.append(argv)
    assert differ == []
