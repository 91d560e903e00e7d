"""The benchmark's recorded outputs, read the way Tier-1 holds a change to them.

``perfbench/`` records every output of its nominal scenario (seed 0) under
``perfbench/reference/``.  The tests read its inputs, references and bar
through ``bench_module``, and hold a table to a reference through
``assert_matches_reference``, so a refactor proves it kept every recorded
output by passing the suite.
"""

import importlib.util
import sys
from functools import cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


@cache
def bench_module(name):
    """Load ``perfbench/<name>.py`` by path, once; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"qfel_bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def assert_matches_reference(name, got, want):
    """Every recorded column of table ``name`` within ``REFERENCE_BAR`` of its scale.

    The scale is the column's largest magnitude; for ``energy`` it is at
    least 1, the scale of the benchmark's conservation gate.  The benchmark's
    own bar scales energy by its own maximum, which is bitwise-tight on the
    collective variants whose exact energy is 0, and stays the benchmark's
    job; this bar holds on any BLAS build.
    """
    bar = bench_module("check").REFERENCE_BAR
    assert sorted(got) == sorted(want), name
    for column, ref in want.items():
        scale = float(np.max(np.abs(ref)))
        if column == "energy":
            scale = max(1.0, scale)
        assert np.shape(got[column]) == ref.shape, (name, column)
        dev = np.max(np.abs(got[column] - ref))
        assert dev <= bar * scale, f"{name}::{column} is {dev:.2e} off its reference, bar {bar * scale:.2e}"
