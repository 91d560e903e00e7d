"""The demo scripts run to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "interaction_length_study":
        # The exact lengths cross near alpha = 1.115 at n0/N = 0.1, well below the shorthand's 2.977.
        assert "exact crossover:     alpha* = 1.115 at n0/N = 0.1" in proc.stdout


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4
