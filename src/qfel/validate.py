"""Cross-route validation suite.

Each check compares independent routes to the same physics — closed forms
against propagation, propagation against dense matrix-exponential oracles,
approximations against the exact expressions they shorten — at fixed
reference tolerances.  A check is its list of ``Gate``s, each a measured
value and the limit its magnitude must not exceed; ``run_all`` executes
every check and reports one pass/fail line listing every gate.  The
``qfel validate`` subcommand and the acceptance test suite are both thin
wrappers around it.

Heavy artifacts (the N = 10^4 collective runs, the figure-scale ladder
traces) are computed once per ``ValidationContext`` and shared across its
checks; the caches belong to the instance, so a fresh context recomputes
and a dropped one frees its traces.  ``shared_context`` is the process's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial

import numpy as np

from . import highgain
from .core import EDGE_BUFFER, FelParams, LadderState, Trace, first_maximum, sample_axis
from .highgain import (
    HighGainModel,
    analytic_n_first,
    analytic_n_second,
    build_dicke_tridiagonal,
    integrate_semiclassical,
    lmax_exact,
    lmax_ratio,
    propagate_dicke,
)
from .lowgain import (
    LowGainModel,
    analytic_populations_second,
    build_effective_hamiltonian,
    fit_rabi_frequency,
    gain_frequency,
    momentum_label_to_level,
    propagate,
    rotating_frame_hamiltonian,
)
from .specfun import elliptic_K, jacobi_cn

__all__ = ["Gate", "CheckResult", "ValidationContext", "run_all", "CHECKS"]

#: Reference scenario shared by the collective-regime figures.
FIG_N = 10_000
FIG_N0 = 1_000


@dataclass(frozen=True)
class Gate:
    """One sub-gate of a check: passes iff ``abs(value) <= limit``.

    A signed deviation keeps its sign in the report, and a NaN value fails.
    """

    label: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return bool(abs(self.value) <= self.limit)

    def __str__(self) -> str:
        return f"{self.label} {self.value:.3g} (tol {self.limit:.3g})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check: it passes iff every gate passes."""

    name: str
    gates: tuple[Gate, ...]

    @property
    def passed(self) -> bool:
        return all(gate.passed for gate in self.gates)

    @property
    def detail(self) -> str:
        return "; ".join(map(str, self.gates))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _low_params(nu: int, alpha: float = 0.25, m_scale: int = 1) -> FelParams:
    params = FelParams(alpha=alpha, nu=nu, context="low")
    return replace(params, M=m_scale * params.ladder_halfwidth)


_LOW_SAMPLES = {1: 4001, 2: 4001, 3: 8001}


#: The collective-regime figures' scenario, given alpha and nu: FIG_N electrons, FIG_N0 seed photons.
_collective_params = partial(FelParams, n0=FIG_N0, N=FIG_N, context="high")


def _low_full_trace(nu: int, m_scale: int = 1) -> Trace:
    params = _low_params(nu, m_scale=m_scale)
    tau_end = 1.05 * np.pi / gain_frequency(abs(nu), params.alpha)
    model = LowGainModel(params=params, variant="full_hamiltonian")
    return propagate(model, LadderState.initial(params), tau_end, _LOW_SAMPLES[abs(nu)])


def _collective_trace(nu: int, variant: str, alpha: float) -> Trace:
    span = 6.5 if nu == 1 else 45.0
    samples = 401 if nu == 1 else 451
    model = HighGainModel(params=_collective_params(alpha=alpha, nu=nu), variant=variant)
    return propagate_dicke(model, span, samples)


class ValidationContext:
    """Caches the expensive propagation runs shared between checks, per instance."""

    def __init__(self) -> None:
        self.low_full_trace = cache(_low_full_trace)
        self.collective_trace = cache(_collective_trace)


def check_low_gain_peaks(ctx: ValidationContext) -> CheckResult:
    """Peak per-electron gains and Rabi phases of the three resonances."""
    alpha = 0.25
    phase_tol = {1: 0.05, 2: 0.05, 3: 0.15}
    gates = []
    for nu in (1, 2, 3):
        trace = ctx.low_full_trace(nu)
        raw = first_maximum(trace.x, trace.column("dn_per_N"))
        freq = fit_rabi_frequency(trace, LowGainModel(params=_low_params(nu)))
        gates += [
            Gate(f"nu={nu} amp-{nu}", raw.amplitude - nu, 0.1),
            Gate(f"nu={nu} phase dev", freq / gain_frequency(nu, alpha) - 1.0, phase_tol[nu]),
        ]
    return CheckResult("low-gain peak gains", tuple(gates))


def populations_pointwise_deviation(alpha: float) -> float:
    """Worst |closed form - propagation| over the five second-resonance levels.

    The full Hamiltonian is propagated on the nu = 2 ladder (M = 10) over one
    envelope period pi/xi1, sampled at 3001 points.
    """
    params = _low_params(2, alpha)
    model = LowGainModel(params=params, variant="full_hamiltonian")
    trace = propagate(model, LadderState.initial(params), np.pi / gain_frequency(2, alpha), 3001)
    pops = analytic_populations_second(alpha, trace.x)
    rows = [momentum_label_to_level(2, 2 * k) + params.ladder_halfwidth - EDGE_BUFFER for k in pops]
    return float(np.max(np.abs(np.array(list(pops.values())) - trace.levels[rows])))


def check_second_resonance_populations(ctx: ValidationContext) -> CheckResult:
    """Closed-form second-resonance populations: sum rule and pointwise accuracy."""
    gates = []
    for alpha in (0.1, 0.25):
        tau = np.linspace(0.0, 2.0 * np.pi / gain_frequency(2, alpha), 4001)  # two envelope periods
        total = sum(analytic_populations_second(alpha, tau).values())
        gates.append(Gate(f"alpha={alpha} |sum-1|", float(np.max(np.abs(total - 1.0))), 5.0 * alpha**4))
    gates.append(Gate("alpha=0.25 pointwise vs propagation", populations_pointwise_deviation(0.25), 0.02))
    return CheckResult("second-resonance closed-form populations", tuple(gates))


def check_first_resonance_collective(ctx: ValidationContext) -> CheckResult:
    """Collective first-resonance run against the elliptic closed form."""
    params = _collective_params(alpha=0.5, nu=1)
    trace = ctx.collective_trace(1, "third_order", 0.5)
    peak = first_maximum(trace.x, trace.column("n"))
    target = FIG_N0 + FIG_N

    ell = trace.x
    order3 = analytic_n_first(ell, params, order=3)
    order1 = analytic_n_first(ell, params, order=1)
    p3 = first_maximum(ell, order3).position
    p1 = first_maximum(ell, order1).position
    predicted = (params.alpha**2 / 8.0) * (1.0 + 2.0 * params.seed_ratio)
    # A pure phase shift means the two curves coincide after rescaling ell.
    pure = float(np.max(np.abs(order3 - analytic_n_first((1.0 - predicted) * ell, params, 1))))
    return CheckResult("first-resonance collective dynamics", (
        Gate("amp dev", peak.amplitude / target - 1.0, 0.02),
        Gate("pos dev", peak.position / lmax_exact(params, 1) - 1.0, 0.02),
        Gate("order-1/3 shift dev", ((p3 - p1) / p3) / predicted - 1.0, 0.10),
        Gate("rescaling residual", pure, 1e-6 * target),
    ))


def check_second_resonance_collective(ctx: ValidationContext) -> CheckResult:
    """Collective second-resonance run against the mean-field closed form."""
    params = _collective_params(alpha=0.25, nu=2)
    dicke = ctx.collective_trace(2, "dicke_only", 0.25)
    full = ctx.collective_trace(2, "full_second_order", 0.25)
    peak_d = first_maximum(dicke.x, dicke.column("n"))
    peak_f = first_maximum(full.x, full.column("n"))
    ordered = peak_f.amplitude < peak_d.amplitude and peak_f.position > peak_d.position
    return CheckResult("second-resonance collective dynamics", (
        Gate("pos dev", peak_d.position / lmax_exact(params, 2) - 1.0, 0.03),
        Gate("amp dev", peak_d.amplitude / (FIG_N0 + 2 * FIG_N) - 1.0, 0.05),
        Gate(
            f"full model {peak_f.amplitude:.1f}@{peak_f.position:.2f} vs pair-coupling "
            f"{peak_d.amplitude:.1f}@{peak_d.position:.2f} not lower and later",
            0.0 if ordered else 1.0,
            0.0,
        ),
    ))


def check_mean_field_oracle(ctx: ValidationContext) -> CheckResult:
    """Integrated mean-field amplitudes against the closed form, with drifts."""
    params = _collective_params(alpha=0.25, nu=2)
    period = 2.0 * lmax_exact(params, 2)
    trace = integrate_semiclassical(params, period, 801)
    reference = analytic_n_second(trace.x, params)
    b0 = 2.0 * params.N + params.n0
    return CheckResult("mean-field integration oracle", (
        Gate("pointwise rel dev", float(np.max(np.abs(trace.column("n") - reference) / reference)), 1e-6),
        Gate("A drift", float(np.max(np.abs(trace.column("A") - params.N))) / params.N, 1e-8),
        Gate("B drift", float(np.max(np.abs(trace.column("B") - b0))) / b0, 1e-8),
    ))


#: Grid of (alpha, n0/N) on which the length-ratio shorthand is held to its band.
SHORTHAND_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)
SHORTHAND_SEED_RATIOS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def check_maximum_length_shorthand(ctx: ValidationContext) -> CheckResult:
    """Accuracy band of the logarithmic length-ratio shorthand, and its crossover."""
    worst = 1.0
    where = (0.0, 0.0)
    for alpha in SHORTHAND_ALPHAS:
        for r in SHORTHAND_SEED_RATIOS:
            params = FelParams(alpha=alpha, nu=2, n0=r * 1000.0, N=1000, context="high")
            exact = lmax_exact(params, 2) / lmax_exact(params, 1)
            approx = lmax_ratio(alpha, r)
            factor = max(approx / exact, exact / approx)
            if factor > worst:
                worst, where = factor, (alpha, r)
    crossover = lmax_ratio(1.0, 0.1)  # ratio scales as 1/alpha, so this is alpha*
    return CheckResult("maximum-length shorthand accuracy", (
        Gate(f"worst factor at alpha={where[0]} n0/N={where[1]}", worst, 2.5),
        Gate(f"unit-ratio crossover alpha {crossover:.3f} vs 3 rel dev", crossover / 3.0 - 1.0, 0.10),
    ))


def check_special_functions(ctx: ValidationContext) -> CheckResult:
    """Elliptic integral and cn identities at reference tolerances."""
    agm_ref = 1.854074677301372  # AGM iteration of 1 and sqrt(1/2), converged
    ks = [0.0, 0.3, 0.7, 0.95346, 0.999]
    u = np.linspace(-10.0, 10.0, 501)
    per = 0.0
    for k in ks[1:]:
        bigk = elliptic_K(k)
        uu = np.linspace(-8.0 * bigk, 8.0 * bigk, 401)
        per = max(per, float(np.max(np.abs(jacobi_cn(uu + 4.0 * bigk, k) - jacobi_cn(uu, k)))))
    return CheckResult("special functions", (
        Gate("K(0)-pi/2", elliptic_K(0.0) - np.pi / 2, 0.0),
        Gate("K(1/sqrt2)-AGM", elliptic_K(1.0 / np.sqrt(2.0)) - agm_ref, 1e-12),
        Gate("cn(0,k)-1", max(abs(jacobi_cn(0.0, k) - 1.0) for k in ks), 1e-12),
        Gate("cn(u,0)-cos u", float(np.max(np.abs(jacobi_cn(u, 0.0) - np.cos(u)))), 1e-12),
        Gate("cn(K,k)", max(abs(jacobi_cn(elliptic_K(k), k)) for k in ks[1:]), 1e-10),
        Gate("cn period 4K", per, 1e-9),
    ))


def expm(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential, from ``scipy.linalg``, imported on the first call.

    Only the oracle checks need it; the name stays a module global so their
    calls resolve (and can be counted) here.
    """
    from scipy.linalg import expm as exponential

    return exponential(a)


def _expm_populations(h: np.ndarray, start: int, times) -> np.ndarray:
    """Populations |exp(-i h t) e_start|^2, one dense matrix exponential per time t."""
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[start] = 1.0
    return np.array([np.abs(expm(-1j * h * t) @ psi0) ** 2 for t in times])


def check_dense_oracle_equivalence(ctx: ValidationContext) -> CheckResult:
    """Every propagation route against a dense matrix-exponential oracle."""
    worst_low = 0.0
    for nu in (1, 2, 3):
        params = FelParams(alpha=0.25, nu=nu, M=10, context="low")
        # The oscillating-coupling propagator factorizes as
        # exp(+i H0 tau) exp(-i (H0 + V) tau), with H0 the kinetic diagonal and
        # V the static coupling; populations do not see the diagonal factor,
        # so the full Hamiltonian's oracle is its static rotating frame.
        # Both oracles sample rows of the trace's axis, tau = 0, 1, ..., 8.
        full, effective = LowGainModel(params=params), LowGainModel(params=params, variant="effective")
        routes = (
            (full, rotating_frame_hamiltonian(full), slice(1, None)),
            (effective, build_effective_hamiltonian(effective), [3, 8]),
        )
        for model, op, rows in routes:
            trace = propagate(model, LadderState.initial(params), 8.0, 9)
            oracle = _expm_populations(op.dense(), params.ladder_halfwidth, trace.x[rows])[:, EDGE_BUFFER:-EDGE_BUFFER]
            worst_low = max(worst_low, float(np.max(np.abs(trace.levels.T[rows] - oracle))))

    worst_high = 0.0
    for nu, variant in ((1, "third_order"), (1, "first_order"), (2, "dicke_only"), (2, "full_second_order")):
        params = FelParams(alpha=0.4, nu=nu, n0=3, N=16, context="high")
        model = HighGainModel(params=params, variant=variant)
        oracle = _expm_populations(build_dicke_tridiagonal(model).dense(), 0, sample_axis(12.0, 7))
        for blocks in (highgain._eigh_blocks, highgain._chebyshev_blocks):
            trace = highgain._propagate_dicke(model, 12.0, 7, blocks, keep_levels=True)
            worst_high = max(worst_high, float(np.max(np.abs(trace.levels.T - oracle))))

    return CheckResult("dense-propagator oracle equivalence", (
        Gate("ladder routes max |dP|", worst_low, 1e-8),
        Gate("collective routes max |dP|", worst_high, 1e-8),
    ))


def _drifts(trace: Trace) -> tuple[float, float]:
    """A trace's max |norm - 1| and max |E - E(0)| over max(1, max |E|)."""
    e = trace.column("energy")
    scale = max(1.0, float(np.max(np.abs(e))))
    return float(np.max(np.abs(trace.column("norm") - 1.0))), float(np.max(np.abs(e - e[0]))) / scale


def check_conservation_suite(ctx: ValidationContext) -> CheckResult:
    """Norm, energy, truncation convergence, and mirror antisymmetry."""
    drifts: list[tuple[float, float]] = []
    trunc_dev = 0.0
    mirror_dev = 0.0
    for nu in (1, 2, 3):
        base = ctx.low_full_trace(nu)
        drifts.append(_drifts(base))

        wide = ctx.low_full_trace(nu, m_scale=2)
        trunc_dev = max(
            trunc_dev,
            float(np.max(np.abs(base.column("dn_per_N") - wide.column("dn_per_N")))),
        )

        mirrored = ctx.low_full_trace(-nu)
        mirror_dev = max(
            mirror_dev,
            float(np.max(np.abs(mirrored.column("dn_per_N") + base.column("dn_per_N")))),
        )

        params = _low_params(nu)
        eff = LowGainModel(params=params, variant="effective")
        drifts.append(_drifts(propagate(eff, LadderState.initial(params), 60.0, 601)))

    for nu, variant, alpha in ((1, "third_order", 0.5), (2, "dicke_only", 0.25), (2, "full_second_order", 0.25)):
        drifts.append(_drifts(ctx.collective_trace(nu, variant, alpha)))
    norm_drift, energy_drift = (max(0.0, *column) for column in zip(*drifts))

    return CheckResult("conservation suite", (
        Gate("norm drift", norm_drift, 1e-8),
        Gate("energy drift", energy_drift, 1e-8),
        Gate("M->2M dev", trunc_dev, 1e-8),
        Gate("mirror dev", mirror_dev, 1e-8),
    ))


CHECKS = (
    check_low_gain_peaks,
    check_second_resonance_populations,
    check_first_resonance_collective,
    check_second_resonance_collective,
    check_mean_field_oracle,
    check_maximum_length_shorthand,
    check_special_functions,
    check_dense_oracle_equivalence,
    check_conservation_suite,
)


@lru_cache(maxsize=1)
def shared_context() -> ValidationContext:
    """Process-wide context so tests and the CLI reuse the heavy runs."""
    return ValidationContext()


def run_all() -> list[CheckResult]:
    """Execute every validation check in order on the shared context and return the results."""
    ctx = shared_context()
    return [check(ctx) for check in CHECKS]
