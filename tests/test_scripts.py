import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sweep(atoms):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "engine_agreement_sweep.py"),
         "--count", "200", "--atoms", str(atoms)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "all 200 programs agree on every engine" in done.stdout


def test_engine_agreement_sweep():
    _sweep(3)


def test_engine_agreement_sweep_five_atoms():
    _sweep(5)
