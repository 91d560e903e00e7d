"""The three benchmark workloads: inputs from a seed, one timed pass, outputs.

A pass runs a workload's operations once, sequentially, in this process (a
closed loop with a single client).  The clock covers the operations and the
output files they write; turning those outputs into tables for the checker
happens after the clock stops.

Seed 0 is the nominal scenario whose outputs are recorded under
``reference/``.  Any other seed jitters alpha, n0/N and, where it does not
set the memory peak, N by up to ``JITTER`` around the nominal values.  The
program then sees other inputs, while every operation stays inside the
domain where it must succeed.  The program is always reached through
module attributes (``qfel.cli.main``, ``qfel.highgain.propagate_dicke``,
...), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Seed whose inputs are the nominal scenario the references were recorded at.
NOMINAL_SEED = 0
#: Largest relative jitter a non-nominal seed applies to alpha, N and n0/N.
JITTER = 0.03

# collective-scan: electron counts, seed fraction n0/N, samples per trace, and
# per resonance the coupling alpha, the span in L/L_g and the model variants.
SCAN_N = (1000, 2000, 3000)
SCAN_SEED_FRACTION = 0.1
SCAN_SAMPLES = 2001
SCAN_RESONANCES = (
    (1, 0.5, 7.0, ("first_order", "third_order")),
    (2, 0.25, 45.0, ("dicke_only", "full_second_order")),
)

# ladder-campaign: figure couplings, the collective scenario of fig4 and the
# high-gain sweep, and the (lo, hi, count) grids of the two sweeps.
CAMPAIGN_FIG_ALPHAS = (0.15, 0.25, 0.35)
CAMPAIGN_ELECTRONS = 10_000
CAMPAIGN_SEED_FRACTION = 0.1
CAMPAIGN_LOW_ALPHAS = (0.1, 0.5, 80)
CAMPAIGN_LOW_RESONANCES = (1, 2, 3)
CAMPAIGN_LOW_VARIANTS = ("full_hamiltonian", "effective")
CAMPAIGN_HIGH_ALPHAS = (0.1, 0.9, 20)
CAMPAIGN_HIGH_N0_FRACTIONS = (0.05, 0.5, 10)
CAMPAIGN_HIGH_RESONANCES = (1, 2)

# validate: the collective traces ``qfel validate`` caches, as
# ``ValidationContext.collective_trace`` keys, and the check each one feeds.
VALIDATE_TRACES = (
    ((1, "third_order", 0.5), "first-resonance collective dynamics"),
    ((2, "dicke_only", 0.25), "second-resonance collective dynamics"),
    ((2, "full_second_order", 0.25), "second-resonance collective dynamics"),
)
#: ``qfel validate`` exits 1 because two of its checks fail by design.
VALIDATE_EXIT_CODE = 1


@dataclass
class Op:
    """One attempted operation and the outputs it is judged by.

    ``tables`` names the output tables the op produced or consumed; ``row``
    restricts the op to one row of its table (a sweep grid point), and
    ``finite`` lists the columns that must hold finite numbers there.
    ``error`` is set when the op raised or exited unexpectedly; ``verdict``
    holds a validation check's PASS/FAIL.
    """

    name: str
    tables: tuple[str, ...] = ()
    row: int | None = None
    finite: tuple[str, ...] = ()
    error: str | None = None
    verdict: str | None = None


@dataclass
class Pass:
    """Outputs of one pass of a workload, ready for the checker."""

    wall_s: float
    ops: list[Op]
    tables: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator | None:
    return None if seed == NOMINAL_SEED else np.random.default_rng(seed % 2**64)


def _jitter(rng: np.random.Generator | None, value: float) -> float:
    if rng is None:
        return float(value)
    return float(value * (1.0 + JITTER * rng.uniform(-1.0, 1.0)))


def _grid(rng: np.random.Generator | None, lo: float, hi: float, count: int) -> list[float]:
    return [float(v) for v in np.linspace(_jitter(rng, lo), _jitter(rng, hi), count)]


def _error_text(err: BaseException) -> str:
    return f"{type(err).__name__}: {err}".replace("\n", " ")


def _call_cli(qfel, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run one ``qfel`` CLI call; return (exit code, stdout, error text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = qfel.cli.main(argv)
    except Exception as err:  # noqa: BLE001 - an op that raises is a failed op
        return None, out.getvalue(), _error_text(err)
    return code, out.getvalue(), None


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a qfel CSV: the ``error`` column as text, the rest as floats."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    table: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        table[name] = np.array(cells, dtype=str) if name == "error" else np.array(cells, dtype=float)
    return table


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# validate


def validate_inputs(seed: int) -> dict:
    """``qfel validate`` is one fixed scenario: the seed does not apply."""
    return {}


def validate_pass(qfel, inputs: dict, outdir: Path) -> Pass:
    start = time.perf_counter()
    code, text, error = _call_cli(qfel, ["validate"])
    wall = time.perf_counter() - start
    if error is None and code != VALIDATE_EXIT_CODE:
        error = f"exit code {code}, expected {VALIDATE_EXIT_CODE}"

    tables, feeds = {}, {}
    ctx = qfel.validate.shared_context()
    for key, check in VALIDATE_TRACES:
        name = "trace_nu{}_{}".format(*key[:2])
        feeds.setdefault(check, []).append(name)
        if error is None:
            trace = ctx.collective_trace(*key)
            tables[name] = {"L_over_Lg": trace.x, **trace.columns}
    # The next pass recomputes the heavy runs, as a fresh process would.
    qfel.validate.shared_context.cache_clear()

    ops = []
    for line in text.splitlines():
        if line.startswith("[") and "] " in line:
            status, _, rest = line.partition("] ")
            name = rest.partition(": ")[0]
            used = tuple(t for t in feeds.get(name, ()) if t in tables)
            finite = ("n", "norm", "energy") if used else ()
            ops.append(Op(name, used, finite=finite, error=error, verdict=status[1:]))
    for k in range(len(ops), len(qfel.validate.CHECKS)):
        ops.append(Op(f"check #{k + 1}", error=error or "no verdict line"))
    return Pass(wall, ops, tables)


# ---------------------------------------------------------------------------
# collective-scan


def scan_inputs(seed: int) -> list[dict]:
    """One propagation op per (N, variant): N, n0 = (n0/N) N, alpha, span.

    N is not jittered: the peak RSS of a pass depends on N through the C
    allocator (eigenvector matrices above 32 MiB, N >= 2048, are returned to
    the system when freed, smaller ones are kept), so jittered sizes make
    ``peak_rss_mb`` jump between seeds.  The seeds jitter alpha and n0/N.
    """
    rng = _rng(seed)
    ops = []
    for electrons in SCAN_N:
        n0 = _jitter(rng, SCAN_SEED_FRACTION) * electrons
        for nu, alpha, span, variants in SCAN_RESONANCES:
            alpha = _jitter(rng, alpha)
            for variant in variants:
                ops.append(
                    {"name": f"N{electrons}_{variant}", "nu": nu, "variant": variant,
                     "alpha": alpha, "n0": n0, "electrons": electrons, "span": span}
                )
    return ops


def scan_pass(qfel, inputs: list[dict], outdir: Path) -> Pass:
    ops, tables = [], {}
    start = time.perf_counter()
    for spec in inputs:
        op = Op(spec["name"], (spec["name"],), finite=("n", "norm", "energy", "n_analytic"))
        try:
            params = qfel.core.FelParams(
                alpha=spec["alpha"], nu=spec["nu"], n0=spec["n0"], N=spec["electrons"], context="high"
            )
            model = qfel.highgain.HighGainModel(params=params, variant=spec["variant"])
            trace = qfel.highgain.propagate_dicke(model, spec["span"], SCAN_SAMPLES)
            if spec["nu"] == 1:
                order = 1 if spec["variant"] == "first_order" else 3
                analytic = qfel.highgain.analytic_n_first(trace.x, params, order=order)
            else:
                analytic = qfel.highgain.analytic_n_second(trace.x, params)
            peak = qfel.core.first_maximum(trace.x, trace.column("n"))
            peak_analytic = qfel.core.first_maximum(trace.x, analytic)
            tables[spec["name"]] = {
                "L_over_Lg": trace.x,
                **trace.columns,
                "n_analytic": np.asarray(analytic),
                "peak_position": np.array([peak.position, peak_analytic.position]),
                "peak_amplitude": np.array([peak.amplitude, peak_analytic.amplitude]),
            }
        except Exception as err:  # noqa: BLE001 - an op that raises is a failed op
            op.error = _error_text(err)
        ops.append(op)
    wall = time.perf_counter() - start
    return Pass(wall, ops, tables)


# ---------------------------------------------------------------------------
# ladder-campaign


def campaign_inputs(seed: int) -> list[dict]:
    """CLI calls: fig2 and fig4 at three alphas, two low sweeps, one high sweep.

    A sweep call carries its grid size and the columns its regime fills, so
    each grid point can be judged as an op of its own.
    """
    rng = _rng(seed)
    calls = []
    for k, alpha in enumerate(CAMPAIGN_FIG_ALPHAS):
        calls.append({"name": f"fig2_{k}", "argv": ["fig2", "--alpha", repr(_jitter(rng, alpha))]})
    for k, alpha in enumerate(CAMPAIGN_FIG_ALPHAS):
        electrons = int(round(_jitter(rng, CAMPAIGN_ELECTRONS)))
        n0 = _jitter(rng, CAMPAIGN_SEED_FRACTION) * electrons
        argv = ["fig4", "--alpha", repr(_jitter(rng, alpha)), "--electrons", str(electrons), "--n0", repr(n0)]
        calls.append({"name": f"fig4_{k}", "argv": argv})
    alphas = _grid(rng, *CAMPAIGN_LOW_ALPHAS)
    for variant in CAMPAIGN_LOW_VARIANTS:
        argv = ["sweep", "--regime", "low", "--alpha", _floats(alphas),
                "--resonance", ",".join(map(str, CAMPAIGN_LOW_RESONANCES)), "--variant", variant]
        calls.append({"name": f"sweep_low_{variant}", "argv": argv,
                      "points": len(alphas) * len(CAMPAIGN_LOW_RESONANCES),
                      "filled": ("fitted_frequency", "max_amplitude", "max_position")})
    electrons = int(round(_jitter(rng, CAMPAIGN_ELECTRONS)))
    alphas = _grid(rng, *CAMPAIGN_HIGH_ALPHAS)
    n0s = [f * electrons for f in _grid(rng, *CAMPAIGN_HIGH_N0_FRACTIONS)]
    argv = ["sweep", "--regime", "high", "--alpha", _floats(alphas), "--n0", _floats(n0s),
            "--resonance", ",".join(map(str, CAMPAIGN_HIGH_RESONANCES)), "--electrons", str(electrons)]
    calls.append({"name": "sweep_high", "argv": argv,
                  "points": len(alphas) * len(n0s) * len(CAMPAIGN_HIGH_RESONANCES),
                  "filled": ("max_amplitude", "max_position", "length_ratio_shorthand", "length_ratio_exact")})
    return calls


def campaign_pass(qfel, inputs: list[dict], outdir: Path) -> Pass:
    results = []
    start = time.perf_counter()
    for call in inputs:
        path = outdir / f"{call['name']}.csv"
        code, _, error = _call_cli(qfel, [*call["argv"], "--out", str(path)])
        if error is None and code != 0:
            error = f"exit code {code}, expected 0"
        results.append((call, path, error))
    wall = time.perf_counter() - start

    ops, tables = [], {}
    for call, path, error in results:
        name, points = call["name"], call.get("points")
        table = None
        if error is None:
            try:
                table = tables[name] = _read_csv(path)
            except (OSError, ValueError, IndexError) as err:
                error = f"unreadable output: {_error_text(err)}"
        if points is None:  # a figure: the call owns the whole table
            ops.append(Op(name, (name,) if table else (), finite=tuple(table or ()), error=error))
            continue
        rows = 0 if table is None else table["error"].size
        if error is None and rows != points:
            error = f"{rows} rows, expected {points}"
        ops.append(Op(name, error=error))
        for row in range(points):
            ok = row < rows
            ops.append(Op(f"{name}[{row}]", (name,) if ok else (), row if ok else None,
                          call["filled"], None if ok else error or "missing row"))
    return Pass(wall, ops, tables)


WORKLOADS = {
    "validate": (validate_inputs, validate_pass),
    "collective-scan": (scan_inputs, scan_pass),
    "ladder-campaign": (campaign_inputs, campaign_pass),
}
