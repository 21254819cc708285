import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def _sweep(atoms):
    done = _script("engine_agreement_sweep.py", "--count", "200", "--atoms", str(atoms))
    assert done.returncode == 0, done.stderr
    assert "all 200 programs agree on every engine" in done.stdout


def test_engine_agreement_sweep():
    _sweep(3)


def test_engine_agreement_sweep_five_atoms():
    _sweep(5)


def test_engine_agreement_sweep_six_atoms():
    _sweep(6)


def test_mode_divergence_report():
    done = _script("mode_divergence_report.py")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "formula: p -> q\n"
        "  p=1, q=-2: x5=-2  n5=-1\n"
        "1 of 25 interpretations differ\n"
        "x5 normal form: p -> q\n"
        "n5 normal form: p -> q\n"
        "weakly equivalent to its x5 normal form: True\n"
        "substitution-equivalent to its x5 normal form: True\n")


def test_mode_divergence_report_errors():
    done = _script("mode_divergence_report.py", "p &")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: line 1, column 4: unexpected token 'end of input'\n"
    done = _script("mode_divergence_report.py", " & ".join(f"a{i}" for i in range(13)))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: signature has 13 atoms, guard allows 12\n"


def test_mode_divergence_report_deep_formula():
    done = _script("mode_divergence_report.py", " & ".join(["p"] * 3000))
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: formula nests too deeply to evaluate\n"


def test_every_traced_binding_resolves():
    # bench/run.py --trace 1 installs a wrapper at each (module, attribute) of
    # bench/tracing.py's WRAPS and fails on a binding that is gone
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    missing = [(module, name) for module, name, *_ in tracing.WRAPS
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
