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
import inspect
import math
import sys
from functools import cache, partial
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
)

__all__ = [
    "main",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_sweep",
    "run_validate",
]


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
    if panel == "top":
        resonance = 1
        alpha = 0.5 if alpha is None else alpha
        end = 7.0 if end is None else end
        samples = 501 if samples is None else samples
        out = "fig3_top.csv" if out is None else out
        header = ["L_over_Lg", "n_analytic_order3", "n_analytic_order1", "n_numeric_third_order"]
        closed_forms = (partial(analytic_n_first, order=3), partial(analytic_n_first, order=1))
        variants = ("third_order",)
    elif panel == "bottom":
        resonance = 2
        alpha = 0.25 if alpha is None else alpha
        end = 45.0 if end is None else end
        samples = 601 if samples is None else samples
        out = "fig3_bottom.csv" if out is None else out
        header = ["L_over_Lg", "n_analytic", "n_numeric_dicke_only", "n_numeric_full_second_order"]
        closed_forms = (analytic_n_second,)
        variants = ("dicke_only", "full_second_order")
    elif panel is None:
        raise ValueError("fig3 needs --panel top or --panel bottom")
    else:
        raise ValueError(f"panel must be 'top' or 'bottom', got {panel!r}")
    params = FelParams(alpha=alpha, nu=resonance, n0=n0, N=electrons, context="high")
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
    columns = [ell, *(closed_form(ell, params) for closed_form in closed_forms)]
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


def _sweep_row(alpha: float, n0: float, electrons: int, nu: int) -> list:
    """One sweep row before its point runs: the grid values, NaN results, an empty error cell."""
    return [alpha, n0, electrons, nu, math.nan, math.nan, math.nan, math.nan, math.nan, ""]


def _sweep_point_low(alpha: float, nu: int, variant: str, end: float | None, samples: int) -> list:
    row = _sweep_row(alpha, 0.0, 1, nu)
    try:
        params = FelParams(alpha=alpha, nu=nu, context="low")
        model = LowGainModel(params=params, variant=variant)
        tau_end = 1.05 * np.pi / gain_frequency(nu, alpha) if end is None else end
        trace = propagate(model, LadderState.initial(params), tau_end, samples)
        row[4] = fit_rabi_frequency(trace, model)
        peak = first_maximum(trace.x, trace.column("dn_per_N"))
        row[5] = peak.amplitude
        row[6] = peak.position
    except Exception as err:  # noqa: BLE001 - per-point failures land in the error column
        row[9] = _sanitize(err)
    return row


def _sweep_point_high(alpha: float, n0: float, nu: int, electrons: int) -> list:
    row = _sweep_row(alpha, n0, electrons, nu)
    try:
        params = FelParams(alpha=alpha, nu=nu, n0=n0, N=electrons, context="high")
        lmax_exact(params, 2)  # fails only at the closed forms' seed boundary, which ends the row
    except Exception as err:  # noqa: BLE001
        row[9] = _sanitize(err)
        return row
    errors: list[str] = []
    # lmax_exact reads alpha, n0 and N only, so one FelParams serves every
    # resonance; each value is computed once per row, so its error is written once.
    @cache
    def attempt(compute: Callable[..., float], *args) -> float:
        try:
            return compute(*args)
        except Exception as err:  # noqa: BLE001
            errors.append(_sanitize(err))
            return math.nan

    row[6] = attempt(lmax_exact, params, nu)
    if nu in (1, 2):
        # Closed-form ceiling of the first maximum, for the resonances lmax_exact accepts.
        row[5] = n0 + nu * electrons
    row[7] = attempt(lmax_ratio, params)
    row[8] = attempt(lmax_exact, params, 2) / attempt(lmax_exact, params, 1)
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
    out: Path | str = "sweep.csv",
) -> Path:
    """One row per (alpha, n0, resonance) grid point; failures stay in-row.

    Low regime: propagates the momentum ladder and fits the effective Rabi
    frequency plus the first gain maximum.  High regime: evaluates the
    closed-form maxima and the exact vs shorthand interaction-length ratio
    (no propagation, so wide grids stay cheap).
    """
    if regime == "low":
        if n0 is not None or electrons is not None:
            raise ValueError("the low-gain sweep follows one unseeded electron; --n0/--electrons do not apply")
        n0, electrons = (0.0,), 1
        resonance = (1, 2, 3) if resonance is None else resonance
        variant = "full_hamiltonian" if variant is None else variant
        if variant not in LowGainModel.VARIANTS:
            choices = " or ".join(map(repr, LowGainModel.VARIANTS))
            raise ValueError(f"low-gain sweep variant must be {choices}, got {variant!r}")
        samples = 2001 if samples is None else samples
        rows = [_sweep_point_low(a, nu, variant, end, samples) for a in alpha for nu in resonance]
        regime_meta = {"variant": variant, "end": "auto" if end is None else end, "samples": samples}
    elif regime == "high":
        n0 = (1000.0,) if n0 is None else n0
        resonance = (1, 2) if resonance is None else resonance
        electrons = 10_000 if electrons is None else electrons
        if variant is not None:
            raise ValueError("the high-gain sweep is closed-form only; --variant does not apply")
        if end is not None or samples is not None:
            raise ValueError("the high-gain sweep is closed-form only; --end/--samples do not apply")
        rows = [_sweep_point_high(a, seed, nu, electrons) for a in alpha for seed in n0 for nu in resonance]
        regime_meta = {}
    else:
        raise ValueError(f"regime must be 'low' or 'high', got {regime!r}")
    meta = {
        "subcommand": "sweep",
        "regime": regime,
        "alpha": ",".join(_fmt(a) for a in alpha),
        "n0": ",".join(_fmt(v) for v in n0),
        "resonance": ",".join(str(r) for r in resonance),
        "electrons": electrons,
        **regime_meta,
    }
    return _write_csv(out, meta, _SWEEP_HEADER, rows)


# ---------------------------------------------------------------------------
# option plumbing: scenario files + flags, converted by one table


def _parse_number(kind: type, noun: str, text: str) -> float | int:
    try:
        return kind(text)
    except ValueError as err:
        raise ValueError(f"expected {noun}, got {text!r}") from err


_parse_float = partial(_parse_number, float, "a number")
_parse_int = partial(_parse_number, int, "an integer")


def _parse_list(convert: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(convert(part) for part in text.split(",") if part != "")


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
    "panel": (str, "which figure panel: top or bottom"),
    "regime": (str, "low (ladder) or high (collective closed forms)"),
}

#: Each subcommand's help text; ``run_<name>`` runs it, and its parameters are the flags, in help order.
_COMMANDS: dict[str, str] = {
    "fig2": "gain of the three lowest resonances vs Rabi phase (closed form + numeric)",
    "fig3": "collective photon growth vs closed forms, one resonance per panel",
    "fig4": "closed-form photon growth of both resonances on one axis",
    "validate": "run all cross-route checks and report pass/fail per line",
    "sweep": "grid campaign over alpha, n0, resonance; one CSV row per point",
}


def _runner(command: str) -> Callable:
    """``run_<command>``, looked up at call time so that a rebound module global is honoured."""
    return globals()[f"run_{command}"]


def _read_scenario_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read scenario file: {err}") from err
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """Merge scenario-file values under flag values and convert both."""
    kinds = {key: _FLAGS[key][0] for key in inspect.signature(_runner(args.command)).parameters}
    if args.command == "sweep":
        kinds.update(alpha=_parse_list(_parse_float), n0=_parse_list(_parse_float))
    raw = _read_scenario_file(args.config) if args.config else {}
    for key in raw:
        if key not in kinds:
            raise ValueError(
                f"unknown scenario key {key!r} for {args.command} "
                f"(known: {', '.join(sorted(kinds)) or 'none'})"
            )
    for key in kinds:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return {key: kinds[key](value) for key, value in raw.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfel",
        description="Quantum-regime free-electron-laser dynamics: figure data, validation, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario file of key=value lines; flags win")
        for key in inspect.signature(_runner(name)).parameters:
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
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                path = _runner(args.command)(**opts)
    except (ValueError, MemoryError) as err:  # a bad scenario, a domain check, or a size too large
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:  # e.g. --alpha 1e300 overflowing alpha**2
        print(f"error: the inputs leave floating-point range: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.command == "validate":
        # validate takes no values, so an error there is a fault: it keeps its
        # traceback, unless the host lacks what a route calls.
        try:
            return run_validate()
        except OSError as err:  # e.g. no OpenBLAS bundled with NumPy for the eigh route
            print(f"error: {err}", file=sys.stderr)
            return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
