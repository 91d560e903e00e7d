"""Package import cost, and the package names the benchmark tracer wraps.

SciPy's heavy submodules, and ``mmap``, load only when a route needs them.
"""

import inspect
import json

import pytest

import qfel
from recorded import bench_module, run_python

DEFERRED = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg", "scipy.linalg.cython_lapack", "mmap")

_PROBE = f"""
import json, sys
import numpy as np
import qfel, qfel.cli
from qfel import (
    FelParams, HighGainModel, LadderState, LowGainModel, analytic_n_first, integrate_semiclassical, propagate,
    propagate_dicke,
)

def loaded():
    flags = {{name: name in sys.modules for name in {DEFERRED!r}}}
    flags["scipy"] = any(name.split(".")[0] == "scipy" for name in sys.modules)
    flags["concurrent.futures"] = "concurrent.futures" in sys.modules
    return flags

p = FelParams(alpha=0.25, nu=2, n0=10.0, N=50, context="high")
p1 = FelParams(alpha=0.25, nu=1, n0=10.0, N=50, context="high")
low = FelParams(alpha=0.25, nu=1, context="low")
routes = {{
    "chebyshev": lambda: qfel.highgain._propagate_dicke(
        HighGainModel(params=p, variant="dicke_only"), 1.0, 3, qfel.highgain._chebyshev_blocks
    ),
    "low_gain": lambda: propagate(LowGainModel(params=low, variant="effective"), LadderState.initial(low), 1.0, 3),
    "eigh": lambda: propagate_dicke(HighGainModel(params=p, variant="dicke_only"), 1.0, 3),
    "mean_field": lambda: integrate_semiclassical(p, 1.0, 3),
    "closed_form": lambda: analytic_n_first(np.linspace(0.0, 1.0, 3), p1),
}}
stages = {{"import": loaded()}}
for route in sys.argv[1:]:
    routes[route]()
    stages[route] = loaded()
print(json.dumps(stages))
"""


def _probe(*routes):
    """Deferred-module flags after a fresh ``import qfel`` and after each route, in order."""
    proc = run_python(["-c", _PROBE, *routes], timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def stages():
    # The mean-field route runs last, since scipy.integrate loads scipy.linalg
    # too.  The low-gain route, the closed form and the Chebyshev route run
    # before it, so each stage's "scipy" flag shows what that route loaded.
    # The eigh route gets its own interpreter, so that the "scipy" flag shows
    # it loads no SciPy module at all.
    return {
        **_probe("low_gain", "closed_form", "chebyshev", "mean_field"),
        "eigh": _probe("eigh")["eigh"],
    }


def _loaded(flags):
    return {name for name in DEFERRED if flags[name]}


def test_import_loads_none_of_the_deferred_modules(stages):
    # Nor any other scipy module: ``loaded`` flags that as "scipy".
    assert not any(stages["import"].values())


def test_cli_import_loads_no_thread_pool(stages):
    # ``qfel sweep`` runs its grid points in one serial loop.
    assert not stages["import"]["concurrent.futures"]


def test_low_gain_propagation_loads_none_of_the_deferred_modules(stages):
    assert _loaded(stages["low_gain"]) == set()


def test_chebyshev_route_loads_no_scipy_module(stages):
    # Its Bessel coefficients come from highgain.jv's recurrence, in NumPy alone.
    assert _loaded(stages["chebyshev"]) == set()
    assert not stages["chebyshev"]["scipy"]


def test_closed_form_loads_no_deferred_and_no_scipy_module(stages):
    # K and cn come from qfel.specfun's arithmetic-geometric mean, in NumPy alone.
    assert _loaded(stages["closed_form"]) == set()
    assert not stages["closed_form"]["scipy"]


def test_eigh_route_loads_mmap_and_no_scipy_module(stages):
    # The eigensolver calls dstemr from NumPy's own OpenBLAS into an mmap.
    assert _loaded(stages["eigh"]) == {"mmap"}
    assert not stages["eigh"]["scipy"]


def test_mean_field_route_loads_scipy_integrate(stages):
    assert stages["mean_field"]["scipy.integrate"]
    assert stages["mean_field"]["scipy.optimize"]


def test_package_exports_each_modules_public_names_once():
    # ``qfel.__all__`` is built from the modules' own lists: every name they
    # declare public, and only those, resolves on the package to its object.
    modules = (qfel.core, qfel.specfun, qfel.lowgain, qfel.highgain)
    declared = ["__version__", *(name for module in modules for name in module.__all__)]
    assert len(set(declared)) == len(declared)
    assert sorted(qfel.__all__) == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(qfel, name) is getattr(module, name), name


def test_traced_run_counts_each_layer_and_restores_every_name(tmp_path):
    # A traced benchmark run rebinds every ``tracing.TARGETS`` name and
    # ``BandedHermitianOperator.dense``; a deleted or renamed target would
    # make ``Tracer.install`` fail.  Each counter must see its call once, the
    # argument hooks read ``model``, ``state``, ``sample_count`` and ``argv``
    # from each bound call by name, and ``uninstall`` must put every original
    # back.  perfbench/workloads.py reads each cached validate trace back
    # through ``ctx.collective_trace(*key)``; a signature change there would
    # fail every benchmark validate op while the rest of Tier-1 stayed green.
    import qfel.cli
    import qfel.validate
    from qfel import FelParams, HighGainModel, LadderState, LowGainModel

    tracing = bench_module("tracing")
    for name, (module, attr) in tracing.TARGETS.items():
        assert callable(getattr(getattr(qfel, module), attr, None)), name
    assert len(qfel.validate.CHECKS) == 9
    signature = inspect.signature(qfel.validate.ValidationContext().collective_trace)
    for key, _check in bench_module("workloads").VALIDATE_TRACES:
        signature.bind(*key)

    originals = {name: getattr(getattr(qfel, module), attr) for name, (module, attr) in tracing.TARGETS.items()}
    dense = qfel.core.BandedHermitianOperator.dense
    low = FelParams(alpha=0.25, nu=2, context="low")
    state = LadderState.initial(low)
    high = FelParams(alpha=0.25, nu=1, n0=10.0, N=50, context="high")
    out = tmp_path / "fig4.csv"
    tracer = tracing.Tracer("tier1")
    tracer.install(qfel)
    try:
        qfel.lowgain.propagate(LowGainModel(params=low, variant="effective"), state, 5.0, 11)
        qfel.highgain.propagate_dicke(HighGainModel(params=high, variant="third_order"), 1.0, 5)
        assert qfel.cli.main(["fig4", "--samples", "5", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["core.dense_calls"] == (1, "count")
    assert metrics["lowgain.propagate_calls"] == (1, "count")
    assert metrics["highgain.eigh_tridiagonal_calls"] == (1, "count")
    assert metrics["highgain.eigvec_bytes"] == (51**2 * 8, "bytes")
    assert metrics["lowgain.level_samples"] == (state.amplitudes.size * 11, "count")
    assert metrics["highgain.level_samples"] == (51 * 5, "count")
    assert metrics["cli.calls"] == (1, "count")
    assert metrics["cli.csv_bytes"] == (out.stat().st_size, "bytes")
    for name, (module, attr) in tracing.TARGETS.items():
        assert getattr(getattr(qfel, module), attr) is originals[name], name
    assert qfel.core.BandedHermitianOperator.dense is dense
