"""Smoke runs of the demos that call the log-Gamma evaluator and the decay
ladder, and, in the slow lane (-m slow), of the Sobolev floor demo, the one
caller whose output window K grows along its T-ladder: each runs as a
script against the package under src/ and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "gamma_and_stirling.py", "exponential_decay.py",
    pytest.param("sobolev_floor.py", marks=pytest.mark.slow)])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
