"""Cross-route validation suite.

Each check compares independent routes to the same physics — closed forms
against propagation, propagation against dense matrix-exponential oracles,
approximations against the exact expressions they shorten — at fixed
reference tolerances.  ``run_all`` executes every check and reports one
pass/fail line with the measured values; the ``qfel validate`` subcommand
and the acceptance test suite are both thin wrappers around it.

Heavy artifacts (the N = 10^4 collective runs, the figure-scale ladder
traces) are computed once per process and shared across checks through
``ValidationContext``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .core import FelParams, LadderState, Trace, first_maximum
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
    gain_frequency,
    momentum_label_to_level,
    propagate,
    ripple_period,
    rotating_frame_hamiltonian,
)
from .specfun import elliptic_K, jacobi_cn

__all__ = ["CheckResult", "ValidationContext", "run_all", "CHECKS"]

#: Reference scenario shared by the collective-regime figures.
FIG_N = 10_000
FIG_N0 = 1_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _low_params(nu: int, alpha: float = 0.25, m_scale: int = 1) -> FelParams:
    m = m_scale * (abs(nu) + 8)
    return FelParams(alpha=alpha, nu=nu, M=m, context="low")


_LOW_SAMPLES = {1: 4001, 2: 4001, 3: 8001}


class ValidationContext:
    """Caches the expensive propagation runs shared between checks."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def low_full_trace(self, nu: int, m_scale: int = 1) -> Trace:
        key = ("low_full", nu, m_scale)
        if key not in self._cache:
            params = _low_params(nu, m_scale=m_scale)
            tau_end = 1.05 * np.pi / gain_frequency(abs(nu), params.alpha)
            model = LowGainModel(params=params, variant="full_hamiltonian")
            self._cache[key] = propagate(
                model, LadderState.initial(params), tau_end, _LOW_SAMPLES[abs(nu)]
            )
        return self._cache[key]

    def collective_trace(self, nu: int, variant: str, alpha: float) -> Trace:
        key = ("collective", nu, variant, alpha)
        if key not in self._cache:
            params = FelParams(alpha=alpha, nu=nu, n0=FIG_N0, N=FIG_N, context="high")
            span = 6.5 if nu == 1 else 45.0
            samples = 401 if nu == 1 else 451
            model = HighGainModel(params=params, variant=variant)
            self._cache[key] = propagate_dicke(model, span, samples)
        return self._cache[key]


def check_low_gain_peaks(ctx: ValidationContext) -> CheckResult:
    """Peak per-electron gains and Rabi phases of the three resonances."""
    alpha = 0.25
    amp_tol = 0.1
    phase_tol = {1: 0.05, 2: 0.05, 3: 0.15}
    parts = []
    ok = True
    for nu in (1, 2, 3):
        trace = ctx.low_full_trace(nu)
        window = ripple_period(_low_params(nu))
        raw = first_maximum(trace.x, trace.column("dn_per_N"))
        smooth = first_maximum(trace.x, trace.column("dn_per_N"), smooth_window=window)
        freq = np.pi / (2.0 * smooth.position)
        expected = gain_frequency(nu, alpha)
        amp_ok = abs(raw.amplitude - nu) <= amp_tol
        ph_dev = freq / expected - 1.0
        ph_ok = abs(ph_dev) <= phase_tol[nu]
        ok &= amp_ok and ph_ok
        parts.append(
            f"nu={nu} amp {raw.amplitude:.4f} (target {nu}+-{amp_tol}), "
            f"phase dev {100 * ph_dev:+.2f}% (tol {100 * phase_tol[nu]:.0f}%)"
        )
    return CheckResult("low-gain peak gains", bool(ok), "; ".join(parts))


def populations_pointwise_deviation(alpha: float) -> float:
    """Worst |closed form - propagation| over the five second-resonance levels.

    The full Hamiltonian is propagated on the nu = 2 ladder (M = 10) over one
    envelope period pi/xi1, sampled at 3001 points.
    """
    xi1 = alpha**2 * (1.0 - 16.0 * alpha**2 / 9.0)
    params = _low_params(2, alpha)
    model = LowGainModel(params=params, variant="full_hamiltonian")
    trace = propagate(model, LadderState.initial(params), np.pi / xi1, 3001)
    pops = analytic_populations_second(alpha, trace.x)
    worst = 0.0
    for k, analytic in pops.items():
        numeric = trace.column(f"P[{momentum_label_to_level(2, 2 * k)}]")
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    return worst


def check_second_resonance_populations(ctx: ValidationContext) -> CheckResult:
    """Closed-form second-resonance populations: sum rule and pointwise accuracy."""
    parts = []
    ok = True
    for alpha in (0.1, 0.25):
        xi1 = alpha**2 * (1.0 - 16.0 * alpha**2 / 9.0)
        tau = np.linspace(0.0, 2.0 * np.pi / xi1, 4001)  # two envelope periods
        pops = analytic_populations_second(alpha, tau)
        total = sum(pops.values())
        sum_dev = float(np.max(np.abs(total - 1.0)))
        bound = 5.0 * alpha**4
        ok &= sum_dev <= bound
        parts.append(f"alpha={alpha} |sum-1| {sum_dev:.2e} (bound {bound:.2e})")

    worst = populations_pointwise_deviation(0.25)
    ptw_ok = worst <= 0.02
    ok &= ptw_ok
    parts.append(f"alpha=0.25 pointwise vs propagation {worst:.4f} (tol 0.02)")
    return CheckResult("second-resonance closed-form populations", bool(ok), "; ".join(parts))


def check_first_resonance_collective(ctx: ValidationContext) -> CheckResult:
    """Collective first-resonance run against the elliptic closed form."""
    params = FelParams(alpha=0.5, nu=1, n0=FIG_N0, N=FIG_N, context="high")
    trace = ctx.collective_trace(1, "third_order", 0.5)
    peak = first_maximum(trace.x, trace.column("n"))
    target = FIG_N0 + FIG_N
    amp_dev = peak.amplitude / target - 1.0
    pos_dev = peak.position / lmax_exact(params, 1) - 1.0
    ok = abs(amp_dev) <= 0.02 and abs(pos_dev) <= 0.02

    ell = trace.x
    order3 = analytic_n_first(ell, params, order=3)
    order1 = analytic_n_first(ell, params, order=1)
    p3 = first_maximum(ell, order3).position
    p1 = first_maximum(ell, order1).position
    shift = (p3 - p1) / p3
    predicted = (params.alpha**2 / 8.0) * (1.0 + 2.0 * params.seed_ratio)
    shift_dev = shift / predicted - 1.0
    shift_ok = abs(shift_dev) <= 0.10
    # A pure phase shift means the two curves coincide after rescaling ell.
    corr = 1.0 - predicted
    pure = float(np.max(np.abs(order3 - analytic_n_first(corr * ell, params, 1))))
    pure_ok = pure <= 1e-6 * target
    ok = ok and shift_ok and pure_ok
    detail = (
        f"amp dev {100 * amp_dev:+.2f}% (tol 2%), pos dev {100 * pos_dev:+.2f}% (tol 2%), "
        f"order-1/3 shift dev {100 * shift_dev:+.2f}% (tol 10%), rescaling residual {pure:.2e}"
    )
    return CheckResult("first-resonance collective dynamics", bool(ok), detail)


def check_second_resonance_collective(ctx: ValidationContext) -> CheckResult:
    """Collective second-resonance run against the mean-field closed form."""
    params = FelParams(alpha=0.25, nu=2, n0=FIG_N0, N=FIG_N, context="high")
    dicke = ctx.collective_trace(2, "dicke_only", 0.25)
    full = ctx.collective_trace(2, "full_second_order", 0.25)
    peak_d = first_maximum(dicke.x, dicke.column("n"))
    peak_f = first_maximum(full.x, full.column("n"))
    target = FIG_N0 + 2 * FIG_N
    pos_dev = peak_d.position / lmax_exact(params, 2) - 1.0
    amp_dev = peak_d.amplitude / target - 1.0
    ordering = peak_f.amplitude < peak_d.amplitude and peak_f.position > peak_d.position
    ok = abs(pos_dev) <= 0.03 and abs(amp_dev) <= 0.05 and ordering
    detail = (
        f"pos dev {100 * pos_dev:+.2f}% (tol 3%), amp dev {100 * amp_dev:+.2f}% (tol 5%), "
        f"full model {peak_f.amplitude:.1f}@{peak_f.position:.2f} vs "
        f"pair-coupling {peak_d.amplitude:.1f}@{peak_d.position:.2f} "
        f"(must be lower and later: {'yes' if ordering else 'NO'})"
    )
    return CheckResult("second-resonance collective dynamics", bool(ok), detail)


def check_mean_field_oracle(ctx: ValidationContext) -> CheckResult:
    """Integrated mean-field amplitudes against the closed form, with drifts."""
    params = FelParams(alpha=0.25, nu=2, n0=FIG_N0, N=FIG_N, context="high")
    period = 2.0 * lmax_exact(params, 2)
    trace = integrate_semiclassical(params, period, 801)
    reference = analytic_n_second(trace.x, params)
    rel = float(np.max(np.abs(trace.column("n") - reference) / reference))
    drift_a = float(np.max(np.abs(trace.column("A") - params.N))) / params.N
    b0 = 2.0 * params.N + params.n0
    drift_b = float(np.max(np.abs(trace.column("B") - b0))) / b0
    ok = rel <= 1e-6 and drift_a <= 1e-8 and drift_b <= 1e-8
    detail = (
        f"pointwise rel dev {rel:.2e} (tol 1e-6), conserved-quantity drift "
        f"A {drift_a:.2e}, B {drift_b:.2e} (tol 1e-8)"
    )
    return CheckResult("mean-field integration oracle", bool(ok), detail)


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
    band_ok = worst <= 2.5

    crossover = lmax_ratio(1.0, 0.1)  # ratio scales as 1/alpha, so this is alpha*
    cross_dev = crossover / 3.0 - 1.0
    cross_ok = abs(cross_dev) <= 0.10
    ok = band_ok and cross_ok
    detail = (
        f"worst factor {worst:.2f} at alpha={where[0]}, n0/N={where[1]} (tol 2.5); "
        f"unit-ratio crossover alpha {crossover:.3f} vs 3 ({100 * cross_dev:+.1f}%, tol 10%)"
    )
    return CheckResult("maximum-length shorthand accuracy", bool(ok), detail)


def check_special_functions(ctx: ValidationContext) -> CheckResult:
    """Elliptic integral and cn identities at reference tolerances."""
    results = []
    k0 = elliptic_K(0.0) == np.pi / 2
    results.append(("K(0)=pi/2 exact", k0, 0.0))
    agm_ref = 1.854074677301372  # AGM iteration of 1 and sqrt(1/2), converged
    dev = abs(elliptic_K(1.0 / np.sqrt(2.0)) - agm_ref)
    results.append(("K(1/sqrt2)", dev <= 1e-12, dev))

    ks = [0.0, 0.3, 0.7, 0.95346, 0.999]
    origin = max(abs(jacobi_cn(0.0, k) - 1.0) for k in ks)
    results.append(("cn(0,k)=1", origin <= 1e-12, origin))
    u = np.linspace(-10.0, 10.0, 501)
    circ = float(np.max(np.abs(jacobi_cn(u, 0.0) - np.cos(u))))
    results.append(("cn(u,0)=cos u", circ <= 1e-12, circ))
    quarter = max(abs(jacobi_cn(elliptic_K(k), k)) for k in ks[1:])
    results.append(("cn(K,k)=0", quarter <= 1e-10, quarter))
    per = 0.0
    for k in ks[1:]:
        bigk = elliptic_K(k)
        uu = np.linspace(-8.0 * bigk, 8.0 * bigk, 401)
        per = max(per, float(np.max(np.abs(jacobi_cn(uu + 4.0 * bigk, k) - jacobi_cn(uu, k)))))
    results.append(("cn period 4K", per <= 1e-9, per))

    ok = all(r[1] for r in results)
    detail = "; ".join(f"{name} {'ok' if good else 'FAIL'} ({val:.1e})" for name, good, val in results)
    return CheckResult("special functions", bool(ok), detail)


def _expm_populations(h: np.ndarray, start: int, times) -> np.ndarray:
    """Populations |exp(-i h t) e_start|^2, one dense matrix exponential per time t."""
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[start] = 1.0
    return np.array([np.abs(expm(-1j * h * t) @ psi0) ** 2 for t in times])


def check_dense_oracle_equivalence(ctx: ValidationContext) -> CheckResult:
    """Every propagation route against a dense matrix-exponential oracle."""
    taus = np.linspace(0.0, 8.0, 9)[1:]
    mus = np.arange(-10, 11)
    interior = mus[np.abs(mus) <= 8]
    worst_low = 0.0
    for nu in (1, 2, 3):
        params = FelParams(alpha=0.25, nu=nu, M=10, context="low")
        # The oscillating-coupling propagator factorizes as
        # exp(+i H0 tau) exp(-i (H0 + V) tau), with H0 the kinetic diagonal and
        # V the static coupling; populations do not see the diagonal factor,
        # so the full Hamiltonian's oracle is its static rotating frame.
        routes = (
            ("full_hamiltonian", rotating_frame_hamiltonian(params), taus),
            ("effective", build_effective_hamiltonian(params), (3.0, 8.0)),
        )
        for variant, op, times in routes:
            oracle = _expm_populations(op.dense(), 10, times)
            model = LowGainModel(params=params, variant=variant)
            for ref, tau in zip(oracle, times):
                trace = propagate(model, LadderState.initial(params), tau, 3)
                for mu in interior:
                    worst_low = max(worst_low, abs(trace.column(f"P[{mu}]")[-1] - ref[mu + 10]))

    worst_high = 0.0
    for nu, variant in ((1, "third_order"), (1, "first_order"), (2, "dicke_only"), (2, "full_second_order")):
        params = FelParams(alpha=0.4, nu=nu, n0=3, N=16, context="high")
        model = HighGainModel(params=params, variant=variant)
        h = build_dicke_tridiagonal(model).dense()
        for method in ("eigh", "chebyshev"):
            trace = propagate_dicke(model, 12.0, 7, method=method, keep_probabilities=True)
            probs = np.array([trace.column(f"P[{mu}]") for mu in range(17)]).T
            oracle = _expm_populations(h, 0, trace.x)
            worst_high = max(worst_high, float(np.max(np.abs(probs - oracle))))

    ok = worst_low <= 1e-8 and worst_high <= 1e-8
    detail = (
        f"ladder routes max |dP| {worst_low:.1e}, collective routes max |dP| "
        f"{worst_high:.1e} (tol 1e-8)"
    )
    return CheckResult("dense-propagator oracle equivalence", bool(ok), detail)


def check_conservation_suite(ctx: ValidationContext) -> CheckResult:
    """Norm, energy, truncation convergence, and mirror antisymmetry."""
    norm_drift = 0.0
    energy_drift = 0.0
    trunc_dev = 0.0
    mirror_dev = 0.0
    for nu in (1, 2, 3):
        base = ctx.low_full_trace(nu)
        norm_drift = max(norm_drift, float(np.max(np.abs(base.column("norm") - 1.0))))
        e = base.column("energy")
        energy_drift = max(energy_drift, float(np.max(np.abs(e - e[0]))))

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
        trace = propagate(eff, LadderState.initial(params), 60.0, 601)
        norm_drift = max(norm_drift, float(np.max(np.abs(trace.column("norm") - 1.0))))
        e = trace.column("energy")
        energy_drift = max(energy_drift, float(np.max(np.abs(e - e[0]))))

    for nu, variant, alpha in ((1, "third_order", 0.5), (2, "dicke_only", 0.25), (2, "full_second_order", 0.25)):
        trace = ctx.collective_trace(nu, variant, alpha)
        norm_drift = max(norm_drift, float(np.max(np.abs(trace.column("norm") - 1.0))))
        e = trace.column("energy")
        scale = max(1.0, float(np.max(np.abs(e))))
        energy_drift = max(energy_drift, float(np.max(np.abs(e - e[0]))) / scale)

    ok = norm_drift <= 1e-8 and energy_drift <= 1e-8 and trunc_dev <= 1e-8 and mirror_dev <= 1e-8
    detail = (
        f"norm drift {norm_drift:.1e}, energy drift {energy_drift:.1e}, "
        f"M->2M dev {trunc_dev:.1e}, mirror dev {mirror_dev:.1e} (tol 1e-8 each)"
    )
    return CheckResult("conservation suite", bool(ok), detail)


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


def run_all(ctx: ValidationContext | None = None) -> list[CheckResult]:
    """Execute every validation check in order and return the results."""
    ctx = ctx or shared_context()
    return [check(ctx) for check in CHECKS]
