"""Package import cost, and the package names the benchmark tracer wraps.

qfel runs on NumPy alone, and ``mmap`` and the thread pool load only where a
route needs them.
"""

import inspect
import json

import pytest

import qfel
from recorded import bench_module, run_python

LAZY = ("mmap", "concurrent.futures")

_PROBE = f"""
import json, sys
sys.modules["scipy"] = None  # from here on, any import of SciPy raises ImportError
import numpy as np
import qfel, qfel.cli, qfel.validate
from qfel import (
    FelParams, HighGainModel, LadderState, LowGainModel, analytic_n_first, integrate_semiclassical, propagate,
    propagate_dicke,
)

p = FelParams(alpha=0.25, nu=2, n0=10.0, N=50, context="high")
p1 = FelParams(alpha=0.25, nu=1, n0=10.0, N=50, context="high")
low = FelParams(alpha=0.25, nu=1, context="low")
ctx = qfel.validate.ValidationContext()
routes = {{
    "low_gain": lambda: propagate(LowGainModel(params=low, variant="effective"), LadderState.initial(low), 1.0, 3),
    "closed_form": lambda: analytic_n_first(np.linspace(0.0, 1.0, 3), p1),
    "chebyshev": lambda: qfel.highgain._propagate_dicke(
        HighGainModel(params=p, variant="dicke_only"), 1.0, 3, qfel.highgain._chebyshev_blocks
    ),
    "mean_field": lambda: integrate_semiclassical(p, 1.0, 3),
    "mean_field_oracle": lambda: qfel.validate.check_mean_field_oracle(ctx),
    "eigh": lambda: propagate_dicke(HighGainModel(params=p, variant="dicke_only"), 1.0, 3),
    "dense_oracle": lambda: qfel.validate.check_dense_oracle_equivalence(ctx),
    "fig4": lambda: qfel.cli.main(["fig4", "--samples", "5", "--out", sys.argv[1]]) == 0 or sys.exit("fig4 failed"),
}}

def lazy():
    return {{name: name in sys.modules for name in {LAZY!r}}}

stages = {{"import": lazy()}}
for stage, route in routes.items():
    route()
    stages[stage] = lazy()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def numpy_only(tmp_path_factory):
    """One fresh interpreter in which SciPy cannot load, running every route and both oracle checks."""
    return run_python(["-c", _PROBE, str(tmp_path_factory.mktemp("probe") / "fig4.csv")], timeout=120)


def _stages(probe):
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.strip().splitlines()[-1])


def test_every_route_and_both_oracle_checks_run_without_scipy(numpy_only):
    assert list(_stages(numpy_only)) == [
        "import", "low_gain", "closed_form", "chebyshev", "mean_field", "mean_field_oracle", "eigh", "dense_oracle",
        "fig4",
    ]


def test_import_loads_no_mmap_and_no_thread_pool(numpy_only):
    # ``qfel sweep`` runs its grid points in one serial loop, and no thread pool loads later either.
    stages = _stages(numpy_only)
    assert not any(stages["import"].values())
    assert not any(flags["concurrent.futures"] for flags in stages.values())


def test_only_the_eigh_route_loads_mmap(numpy_only):
    # The eigensolver calls dstemr from NumPy's own OpenBLAS into an mmap; the routes before it need none.
    stages = _stages(numpy_only)
    assert [name for name, flags in stages.items() if flags["mmap"]] == ["eigh", "dense_oracle", "fig4"]


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
