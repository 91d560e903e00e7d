"""qfel benchmark: one run of one workload, end-to-end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload validate|collective-scan|ladder-campaign
                             --seed N --seconds S --trace 0|1

The run imports ``qfel`` from ``src/`` of the checkout.  It first times
``import qfel, qfel.cli`` in ``SETUP_SAMPLES`` fresh interpreters (set-up),
then runs passes of the workload in this process, one after another, until
``--seconds`` have passed (at least one pass), checks every output and
prints each metric by name and unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median import
time), ``wall_s`` (median pass time, outputs written, check excluded),
``peak_rss_mb`` (``ru_maxrss`` of this process) and ``pass_rate``
(1 - failed/attempted; ``error_rate`` is printed beside it).
``--trace 1`` skips the set-up timings, runs one traced pass and reports the
per-layer metrics listed in ``README.md``; its spans are written to
``perfbench/.runs/``.

Without ``src/qfel`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

#: Fresh interpreters that time ``import qfel, qfel.cli`` per run.
SETUP_SAMPLES = 3
_SETUP_PROBE = (
    "import time; t = time.perf_counter(); import qfel, qfel.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run one qfel benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _setup_times(env: dict[str, str]) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _blas_threads() -> dict[str, int]:
    """Thread counts of the OpenBLAS builds bundled with NumPy and SciPy."""
    counts = {}
    for package in ("numpy", "scipy"):
        libs = Path(importlib.import_module(package).__file__).parent.parent / f"{package}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    counts[package] = int(getattr(handle, symbol)())
                    break
    return counts


def _environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qfel" / "__init__.py").is_file():
        print(f"perfbench: no qfel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from check import check_pass, load_reference
    from tracing import Tracer, import_breakdown
    from workloads import NOMINAL_SEED, WORKLOADS

    env = _child_env()
    setup = [] if args.trace else _setup_times(env)
    qfel = importlib.import_module("qfel")
    for module in ("cli", "core", "highgain", "lowgain", "specfun", "validate"):
        importlib.import_module(f"qfel.{module}")

    make_inputs, run_pass = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    nominal = args.workload == "validate" or args.seed == NOMINAL_SEED
    reference = load_reference(args.workload) if nominal else None
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = RUNS / f"{tag}-{os.getpid()}"
    outdir.mkdir()
    try:
        if args.trace:
            tracer = Tracer(run_id=f"{tag}-{os.getpid()}")
            cpu = time.process_time()
            tracer.install(qfel)
            try:
                passes = [run_pass(qfel, inputs, outdir)]
            finally:
                tracer.uninstall()
            cpu = time.process_time() - cpu
        else:
            passes = []
            started = time.perf_counter()
            while not passes or time.perf_counter() - started < args.seconds:
                passes.append(run_pass(qfel, inputs, outdir))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failures, worst = [], 0.0
    for result in passes:
        found, share = check_pass(result, reference)
        failures += found
        worst = max(worst, share)
    attempted = sum(len(result.ops) for result in passes)
    failed = len(failures)

    if args.trace:
        wall = passes[0].wall_s
        metrics = tracer.metrics()
        metrics.update(import_breakdown(sys.executable, env))
        metrics.update({
            "proc.cpu_s": (cpu, "s"),
            "proc.cpu_util": (cpu / wall, "ratio"),
            "trace.overhead_frac": (tracer.own_s / (wall - tracer.own_s), "fraction"),
            "check.max_rel_dev": (worst, "fraction"),
        })
        tracer.write_spans(RUNS / f"spans-{tag}.csv")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(r.wall_s for r in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_rate": (1.0 - failed / attempted, "fraction"),
        }

    stamp = _environment(args)
    stamp.update(passes=len(passes), setup_samples_s=setup, pass_walls_s=[r.wall_s for r in passes])
    for message in failures[:20]:
        print(f"FAILED {message}")
    if not args.trace:
        print(f"error_rate {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("env " + json.dumps(stamp))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (RUNS / f"result-{tag}.json").write_text(json.dumps({**result, "env": stamp}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
