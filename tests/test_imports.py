"""Package import cost: SciPy's heavy submodules load only when a route needs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfel

DEFERRED = ("scipy.integrate", "scipy.special", "scipy.optimize")

_PROBE = f"""
import json, sys
import numpy as np
import qfel, qfel.cli
from qfel import FelParams, HighGainModel, integrate_semiclassical, propagate_dicke

def loaded():
    return {{name: name in sys.modules for name in {DEFERRED!r}}}

stages = {{"import": loaded()}}
p = FelParams(alpha=0.25, nu=2, n0=10.0, N=50, context="high")
propagate_dicke(HighGainModel(params=p, variant="dicke_only"), 1.0, 3, method="chebyshev")
stages["chebyshev"] = loaded()
integrate_semiclassical(p, 1.0, 3)
stages["mean_field"] = loaded()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def stages():
    src = str(Path(qfel.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_none_of_the_deferred_modules(stages):
    assert not any(stages["import"].values())


def test_chebyshev_route_loads_scipy_special_only(stages):
    assert stages["chebyshev"] == {"scipy.integrate": False, "scipy.special": True, "scipy.optimize": False}


def test_mean_field_route_loads_scipy_integrate(stages):
    assert stages["mean_field"]["scipy.integrate"]
    assert stages["mean_field"]["scipy.optimize"]
