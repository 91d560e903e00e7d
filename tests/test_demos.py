"""The demo scripts print their recorded output, and the README's Python examples run, against ``src``.

Each demo's stdout is recorded in ``tests/demo_output/<demo>.txt``.  A change that moves a
printed physics result on purpose records it again, from the repository root:

    for d in demos/*.py; do PYTHONPATH=src python3 "$d" > "tests/demo_output/$(basename "$d" .py).txt"; done
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = ROOT / "tests" / "demo_output"

# Lines that print solver roundoff, not physics, held by label under a floor instead of as
# text, so that an ODE solver upgrade that moves their digits does not trip them.  At
# rtol = 1e-12 they print 1.78e-11 (relative) and 2.37e-09, 4.55e-09 (absolute, on counts of
# about 1000 and 2100); the floors sit 50 to 400 times above them and far below any physics.
NOISE_FLOORS = {
    "worst relative deviation over a full cycle": 1e-9,
    "conserved electron number drift": 1e-6,
    "conserved excitation-count drift": 1e-6,
}


def _run_python(argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _held(text):
    """The lines of ``text``, each noise line's value replaced by whether it is under its floor."""
    lines = []
    for line in text.splitlines():
        label, _, value = line.rpartition(":")
        floor = NOISE_FLOORS.get(label.strip())
        lines.append(line if floor is None else f"{label}: {'under' if float(value) <= floor else 'over'} {floor:.0e}")
    return lines


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = _run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert _held(proc.stdout) == _held((RECORDED / f"{demo.stem}.txt").read_text())


def test_all_four_demos_are_collected():
    assert len(DEMOS) == 4
    assert sorted(RECORDED.glob("*.txt")) == [RECORDED / f"{d.stem}.txt" for d in DEMOS]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        proc = _run_python(["-c", block])
        assert proc.returncode == 0, (block, proc.stderr)
