"""Scenario-driven command line: figure data as CSV, validation, sweeps.

Subcommands
-----------
``fig2``      per-electron gain of the first three resonances vs Rabi phase
``fig3``      collective photon growth, first (``--panel top``) or second
              (``--panel bottom``) resonance, closed forms next to numerics
``fig4``      closed-form photon growth of both resonances side by side
``validate``  runs every cross-route check and reports pass/fail per line
``sweep``     grid campaigns over alpha, n0, resonance with one row per point

Outputs are deterministic: the same scenario always produces byte-identical
CSV (one leading ``# key=value`` comment line recording the resolved
parameters, then a header line, then ``%.12g``-formatted rows).  Scenario
files hold the same keys as the flags, one ``key=value`` per line; flags win
over file values.  Exit codes: 0 success, 1 failed validation or runtime
error, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import validate as validation
from .core import FelParams, LadderState, first_maximum, sample_axis
from .highgain import (
    HighGainModel,
    analytic_n_first,
    analytic_n_second,
    lmax_exact,
    lmax_ratio,
    propagate_dicke,
)
from .lowgain import (
    LowGainModel,
    analytic_dn,
    fit_rabi_frequency,
    gain_frequency,
    propagate,
    ripple_period,
)

__all__ = [
    "ScenarioError",
    "main",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_sweep",
    "run_validate",
]


class ScenarioError(ValueError):
    """A scenario asks for an unsupported or ill-formed combination."""


def _fmt(value) -> str:
    """One CSV cell; floats at %.12g keep outputs byte-stable and diffable."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(out: Path | str, meta: dict, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items()), ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    out = Path(out)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    return out


# ---------------------------------------------------------------------------
# figure runners


def run_fig2(
    alpha: float = 0.25,
    end: float | None = None,
    samples: int = 4001,
    out: Path | str = "fig2.csv",
) -> Path:
    """Gain of the first three resonances vs Rabi phase, closed form and numeric.

    Columns: Omega_t, then the three closed-form dn/N curves, then the three
    full-propagation curves on the same axis.  The default span covers one
    full envelope period of the slowest (third) resonance.
    """
    all_params = [FelParams(alpha=alpha, nu=nu, context="low") for nu in (1, 2, 3)]
    end = 1.05 * np.pi * alpha / gain_frequency(3, alpha) if end is None else end
    omega_t = sample_axis(end, samples)
    tau_end = end / alpha

    columns: list[np.ndarray] = [omega_t]
    header = ["Omega_t"]
    meta = {"subcommand": "fig2", "alpha": alpha, "end": end, "samples": samples}
    for nu in (1, 2, 3):
        columns.append(np.asarray(analytic_dn(nu, alpha, omega_t)))
        header.append(f"dn_analytic_nu{nu}")
    for nu, params in zip((1, 2, 3), all_params):
        model = LowGainModel(params=params, variant="full_hamiltonian")
        trace = propagate(model, LadderState.initial(params), tau_end, samples)
        columns.append(trace.column("dn_per_N"))
        header.append(f"dn_numeric_nu{nu}")
        meta[f"levels_nu{nu}"] = params.ladder_halfwidth
    return _write_csv(out, meta, header, zip(*columns))


_FIG3_DEFAULTS = {
    "top": {"alpha": 0.5, "resonance": 1, "end": 7.0, "samples": 501, "out": "fig3_top.csv"},
    "bottom": {"alpha": 0.25, "resonance": 2, "end": 45.0, "samples": 601, "out": "fig3_bottom.csv"},
}


def run_fig3(
    panel: str | None = None,
    alpha: float | None = None,
    n0: float = 1000.0,
    electrons: int = 10_000,
    end: float | None = None,
    samples: int | None = None,
    out: Path | str | None = None,
) -> Path:
    """Collective photon growth against the matching closed forms.

    ``top``: first resonance — both analytic orders next to the third-order
    numeric model.  ``bottom``: second resonance — the mean-field closed form
    next to the pair-coupling-only and full numeric models.
    """
    if panel is None:
        raise ScenarioError("fig3 needs --panel top or --panel bottom")
    if panel not in _FIG3_DEFAULTS:
        raise ScenarioError(f"panel must be 'top' or 'bottom', got {panel!r}")
    d = _FIG3_DEFAULTS[panel]
    alpha = d["alpha"] if alpha is None else alpha
    end = d["end"] if end is None else end
    samples = d["samples"] if samples is None else samples
    out = d["out"] if out is None else out
    params = FelParams(alpha=alpha, nu=d["resonance"], n0=n0, N=electrons, context="high")
    ell = sample_axis(end, samples)
    meta = {
        "subcommand": "fig3",
        "panel": panel,
        "alpha": alpha,
        "n0": n0,
        "electrons": electrons,
        "end": end,
        "samples": samples,
    }
    # Closed forms first: they reject a seedless field before the N-electron solve.
    if panel == "top":
        header = ["L_over_Lg", "n_analytic_order3", "n_analytic_order1", "n_numeric_third_order"]
        columns = [ell, analytic_n_first(ell, params, order=3), analytic_n_first(ell, params, order=1)]
        variants = ("third_order",)
    else:
        header = ["L_over_Lg", "n_analytic", "n_numeric_dicke_only", "n_numeric_full_second_order"]
        columns = [ell, analytic_n_second(ell, params)]
        variants = ("dicke_only", "full_second_order")
    for variant in variants:
        model = HighGainModel(params=params, variant=variant)
        columns.append(propagate_dicke(model, end, samples).column("n"))
    return _write_csv(out, meta, header, zip(*columns))


def run_fig4(
    alpha: float = 0.25,
    n0: float | None = None,
    electrons: int = 10_000,
    end: float | None = None,
    samples: int = 1201,
    out: Path | str = "fig4.csv",
) -> Path:
    """Closed-form photon growth of both resonances on one axis.

    Shows the height/length trade-off: the second resonance tops out two
    photons per electron above the seed but needs a much longer interaction
    length.  The default span covers both first maxima.
    """
    n0 = 0.1 * electrons if n0 is None else n0
    p1 = FelParams(alpha=alpha, nu=1, n0=n0, N=electrons, context="high")
    p2 = FelParams(alpha=alpha, nu=2, n0=n0, N=electrons, context="high")
    if end is None:
        end = 1.2 * max(lmax_exact(p1, 1), lmax_exact(p2, 2))
    ell = sample_axis(end, samples)
    meta = {
        "subcommand": "fig4",
        "alpha": alpha,
        "n0": n0,
        "electrons": electrons,
        "end": end,
        "samples": samples,
    }
    header = ["L_over_Lg", "n_first_resonance", "n_second_resonance"]
    columns = [ell, analytic_n_first(ell, p1, order=3), analytic_n_second(ell, p2)]
    return _write_csv(out, meta, header, zip(*columns))


# ---------------------------------------------------------------------------
# validation


def run_validate() -> int:
    """Print one pass/fail line per check with measured values; 0 iff all pass."""
    results = validation.run_all()
    for result in results:
        print(result.line())
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# sweep campaigns

_SWEEP_HEADER = [
    "alpha",
    "n0",
    "electrons",
    "resonance",
    "fitted_frequency",
    "max_amplitude",
    "max_position",
    "length_ratio_shorthand",
    "length_ratio_exact",
    "error",
]


def _sweep_point_low(
    alpha: float, n0: float, nu: int, electrons: int, variant: str, end: float | None, samples: int
) -> list:
    row: list = [alpha, n0, electrons, nu, math.nan, math.nan, math.nan, math.nan, math.nan, ""]
    try:
        params = FelParams(alpha=alpha, nu=nu, context="low")
        model = LowGainModel(params=params, variant=variant)
        tau_end = 1.05 * np.pi / gain_frequency(nu, alpha) if end is None else end
        trace = propagate(model, LadderState.initial(params), tau_end, samples)
        window = ripple_period(params) if variant == "full_hamiltonian" else 0.0
        row[4] = fit_rabi_frequency(trace, smooth_window=window)
        peak = first_maximum(trace.x, trace.column("dn_per_N"))
        row[5] = peak.amplitude
        row[6] = peak.position
    except Exception as err:  # noqa: BLE001 - per-point failures land in the error column
        row[9] = _sanitize(err)
    return row


def _sweep_point_high(alpha: float, n0: float, nu: int, electrons: int) -> list:
    row: list = [alpha, n0, electrons, nu, math.nan, math.nan, math.nan, math.nan, math.nan, ""]
    try:
        params = FelParams(alpha=alpha, nu=nu, n0=n0, N=electrons, context="high")
    except Exception as err:  # noqa: BLE001
        row[9] = _sanitize(err)
        return row
    errors: list[str] = []
    # lmax_exact reads alpha, n0 and N only, so one FelParams serves every
    # resonance; each is computed once per row, so its error is written once.
    lengths: dict[int, float] = {}

    def exact(resonance: int) -> float:
        if resonance not in lengths:
            try:
                lengths[resonance] = lmax_exact(params, resonance)
            except Exception as err:  # noqa: BLE001
                errors.append(_sanitize(err))
                lengths[resonance] = math.nan
        return lengths[resonance]

    row[6] = exact(nu)
    if nu in (1, 2):
        # Closed-form ceiling of the first maximum, for the resonances lmax_exact accepts.
        row[5] = n0 + nu * electrons
    try:
        row[7] = lmax_ratio(alpha, params.seed_ratio)
    except Exception as err:  # noqa: BLE001
        errors.append(_sanitize(err))
    else:
        row[8] = exact(2) / exact(1)
    row[9] = "; ".join(errors)
    return row


def _sanitize(err: Exception) -> str:
    """Error-cell text: keep the CSV one-line and comma-free."""
    return str(err).replace(",", ";").replace("\n", " ")


def run_sweep(
    regime: str = "low",
    alpha: Sequence[float] = (0.1, 0.2, 0.3),
    n0: Sequence[float] | None = None,
    resonance: Sequence[int] | None = None,
    electrons: int | None = None,
    variant: str | None = None,
    end: float | None = None,
    samples: int | None = None,
    jobs: int = 1,
    out: Path | str = "sweep.csv",
) -> Path:
    """One row per (alpha, n0, resonance) grid point; failures stay in-row.

    Low regime: propagates the momentum ladder and fits the effective Rabi
    frequency plus the first gain maximum.  High regime: evaluates the
    closed-form maxima and the exact vs shorthand interaction-length ratio
    (no propagation, so wide grids stay cheap).  Points run concurrently with
    ``jobs`` > 1; rows are always emitted in grid order, so parallel output
    is identical to serial output.
    """
    if regime not in ("low", "high"):
        raise ScenarioError(f"regime must be 'low' or 'high', got {regime!r}")
    if jobs < 1:
        raise ScenarioError(f"jobs must be at least 1, got {jobs}")
    if regime == "low":
        if n0 is not None or electrons is not None:
            raise ScenarioError("the low-gain sweep follows one unseeded electron; --n0/--electrons do not apply")
        n0, electrons = (0.0,), 1
        resonance = (1, 2, 3) if resonance is None else resonance
        variant = "full_hamiltonian" if variant is None else variant
        if variant not in ("full_hamiltonian", "effective"):
            raise ScenarioError(
                f"low-gain sweep variant must be 'full_hamiltonian' or 'effective', got {variant!r}"
            )
        samples = 2001 if samples is None else samples
    else:
        n0 = (1000.0,) if n0 is None else n0
        resonance = (1, 2) if resonance is None else resonance
        electrons = 10_000 if electrons is None else electrons
        if variant is not None:
            raise ScenarioError("the high-gain sweep is closed-form only; --variant does not apply")
        if end is not None or samples is not None:
            raise ScenarioError("the high-gain sweep is closed-form only; --end/--samples do not apply")

    grid = [(a, seed, nu) for a in alpha for seed in n0 for nu in resonance]

    def point(args: tuple[float, float, int]) -> list:
        # Set again per point, beyond the one in ``main``: threads do not inherit it.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if regime == "low":
                return _sweep_point_low(*args, electrons, variant, end, samples)
            return _sweep_point_high(*args, electrons)

    if jobs > 1 and grid:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(point, grid))
    else:
        rows = [point(g) for g in grid]

    meta = {
        "subcommand": "sweep",
        "regime": regime,
        "alpha": ",".join(_fmt(a) for a in alpha),
        "n0": ",".join(_fmt(v) for v in n0),
        "resonance": ",".join(str(r) for r in resonance),
        "electrons": electrons,
    }
    if regime == "low":
        meta["variant"] = variant
        meta["end"] = "auto" if end is None else end
        meta["samples"] = samples
    return _write_csv(out, meta, _SWEEP_HEADER, rows)


# ---------------------------------------------------------------------------
# option plumbing: scenario files + flags, converted by one table


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ScenarioError(f"expected a number, got {text!r}") from err


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ScenarioError(f"expected an integer, got {text!r}") from err


def _parse_list(convert: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(convert(part) for part in text.split(",") if part != "")


def _parse_choice(*choices: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in choices:
            raise ScenarioError(f"expected one of {', '.join(choices)}; got {text!r}")
        return text

    return convert


#: Every flag's converter and help text; ``sweep`` reads ``alpha`` and ``n0`` as comma lists.
_FLAGS: dict[str, tuple[Callable[[str], object], str]] = {
    "alpha": (_parse_float, "quantum parameter (comma list for sweep)"),
    "n0": (_parse_float, "seed photon number (comma list for sweep)"),
    "electrons": (_parse_int, "number of electrons N"),
    "resonance": (_parse_list(_parse_int), "comma list of resonance orders"),
    "variant": (str, "model variant where a module offers several"),
    "end": (_parse_float, "span of the x axis (Omega*t for fig2, tau for the low-gain sweep, L/L_g otherwise)"),
    "samples": (_parse_int, "number of output samples"),
    "out": (str, "output CSV path"),
    "panel": (_parse_choice("top", "bottom"), "which figure panel: top or bottom"),
    "regime": (_parse_choice("low", "high"), "low (ladder) or high (collective closed forms)"),
    "jobs": (_parse_int, "concurrent grid points"),
}

#: Each subcommand's help text and flags, in help order; ``run_<name>`` runs it.
_COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "fig2": (
        "gain of the three lowest resonances vs Rabi phase (closed form + numeric)",
        ("alpha", "end", "samples", "out"),
    ),
    "fig3": (
        "collective photon growth vs closed forms, one resonance per panel",
        ("panel", "alpha", "n0", "electrons", "end", "samples", "out"),
    ),
    "fig4": (
        "closed-form photon growth of both resonances on one axis",
        ("alpha", "n0", "electrons", "end", "samples", "out"),
    ),
    "validate": ("run all cross-route checks and report pass/fail per line", ()),
    "sweep": (
        "grid campaign over alpha, n0, resonance; one CSV row per point",
        ("regime", "alpha", "n0", "resonance", "electrons", "variant", "end", "samples", "jobs", "out"),
    ),
}


def _read_scenario_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from err
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """Merge scenario-file values under flag values and convert both."""
    kinds = {key: _FLAGS[key][0] for key in _COMMANDS[args.command][1]}
    if args.command == "sweep":
        kinds.update(alpha=_parse_list(_parse_float), n0=_parse_list(_parse_float))
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        for key, value in _read_scenario_file(args.config).items():
            if key not in kinds:
                raise ScenarioError(
                    f"unknown scenario key {key!r} for {args.command} "
                    f"(known: {', '.join(sorted(kinds)) or 'none'})"
                )
            raw[key] = value
    for key in kinds:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            raw[key] = flag_value
    return {key: kinds[key](value) for key, value in raw.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfel",
        description="Quantum-regime free-electron-laser dynamics: figure data, validation, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario file of key=value lines; flags win")
        for key in flags:
            p.add_argument(f"--{key}", help=_FLAGS[key][1])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # argparse reads a value such as "-inf" or "-1e-3" as an unknown option, so
    # "--end -inf" goes on as "--end=-inf": every flag but --help takes one value.
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        last = tokens[-1] if tokens else ""
        awaits_value = last.startswith("--") and "=" not in last and last != "--help"
        if awaits_value and token.startswith("-") and not token.startswith("--"):
            tokens[-1] += f"={token}"
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        opts = _resolve_options(args)
        if args.command != "validate":
            # A value that overflows or turns NaN raises instead of reaching the CSV.
            # The runner is looked up now, so a rebound module global is honoured.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                path = globals()[f"run_{args.command}"](**opts)
    except ValueError as err:  # a ScenarioError, or a domain check of the library
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:  # e.g. --alpha 1e300 overflowing alpha**2
        print(f"error: the inputs leave floating-point range: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.command == "validate":
        # validate takes no values, so an error there is a fault: it keeps its traceback.
        return run_validate()
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
