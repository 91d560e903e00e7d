"""Low-gain regime: one electron on the momentum ladder in a fixed classical field.

The electron starts in the momentum eigenstate p = nu*q/2 and exchanges
recoil quanta q with the field.  Three routes to the same physics live here
and are tested against each other:

* the full interaction-picture Hamiltonian H(tau) — nearest-neighbour
  couplings of equal magnitude ``alpha_n`` whose phases rotate at the
  detuning of each transition (only the resonant pair is stationary) —
  propagated through its static, real rotating frame;
* static effective Hamiltonians per resonance — the resonant manifold plus
  the level shifts and higher-order couplings induced by the off-resonant
  ladder, tabulated to third order (first and third resonance) or fourth
  order (second resonance);
* closed-form expressions — the per-electron gain ``dn/N`` for nu = 1, 2, 3
  and the explicit level populations of the second and third resonance.

Observables exclude a buffer of levels at the truncation edge so that ladder
truncation can never contaminate them; doubling the half-width M must leave
every reported number unchanged at the 1e-8 level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict

import numpy as np

from .core import (
    EDGE_BUFFER,
    BandedHermitianOperator,
    FelParams,
    LadderState,
    Trace,
    _is_integer,
    _positive_bracket,
    boxcar_smooth,
    first_maximum,
    sample_axis,
)

__all__ = [
    "LowGainModel",
    "build_full_hamiltonian",
    "rotating_frame_hamiltonian",
    "build_effective_hamiltonian",
    "propagate",
    "gain_frequency",
    "analytic_dn",
    "analytic_populations_second",
    "analytic_populations_third",
    "momentum_label_to_level",
    "ripple_period",
    "fit_rabi_frequency",
]

#: Samples per block of ``propagate``, so its temporaries span one block and
#: only the returned trace spans every sample.  A lone last sample joins the
#: block before it (257 samples): NumPy takes a one-column product and its
#: axis-0 sums in another order, which would move output bits.
_BLOCK = 256


@dataclass(frozen=True)
class LowGainModel:
    """A low-gain scenario, and the one place that decides its run.

    ``variant`` is one of ``VARIANTS``, the one list of them; ``"effective"``
    covers nu = 1, 2, 3 only.
    """

    VARIANTS: ClassVar[tuple[str, ...]] = ("full_hamiltonian", "effective")
    params: FelParams
    variant: str = "full_hamiltonian"

    def __post_init__(self) -> None:
        if self.params.context != "low":
            raise ValueError("LowGainModel requires params in the low-gain context")
        if self.variant not in self.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "effective" and self.params.nu not in (1, 2, 3):
            raise ValueError(f"no effective model for resonance nu = {self.params.nu}; supported: 1, 2, 3")


def build_full_hamiltonian(model: LowGainModel, tau: float) -> np.ndarray:
    """Interaction-picture H(tau) of the model's params, as a dense complex matrix.

    Every nearest-neighbour entry (mu, mu+1) is ``alpha * exp(1j * (nu - 2*mu
    - 1) * tau)``: the transition from +nu*q/2 to +nu*q/2 - q is detuned by
    that amount, and exactly the pair symmetric about zero momentum is
    stationary.  A negative ``nu`` builds the mirrored scenario (initial
    momentum reflected).  ``propagate`` never needs this matrix; it uses the
    static ``rotating_frame_hamiltonian`` instead.
    """
    params = model.params
    m = params.ladder_halfwidth
    mus = np.arange(-m, m)  # row index of each (mu, mu+1) entry
    coupling = params.alpha * np.exp(1j * (params.nu - 2 * mus - 1) * tau)
    return np.diag(coupling, 1) + np.diag(coupling.conj(), -1)


def rotating_frame_hamiltonian(model: LowGainModel) -> BandedHermitianOperator:
    """Static frame equivalent of the full Hamiltonian of the model's params.

    Undoing the interaction-picture phases turns the oscillating couplings
    into a constant nearest-neighbour coupling ``alpha`` plus the kinetic
    diagonal (nu/2 - mu)^2.  The transformation between the two frames is
    diagonal, so level populations — and with them every observable reported
    here — are identical, while propagation becomes a single exact
    eigendecomposition instead of time stepping.
    """
    params = model.params
    m = params.ladder_halfwidth
    size = 2 * m + 1
    mus = np.arange(-m, m + 1)
    diag = (params.nu / 2.0 - mus) ** 2
    band1 = np.full(size - 1, params.alpha)
    return BandedHermitianOperator(size=size, bands={0: diag, 1: band1})


def build_effective_hamiltonian(model: LowGainModel) -> BandedHermitianOperator:
    """Static effective Hamiltonian of the model's resonance.

    One table per resonance, at the order of its asymptotic expansion: third
    order for nu = 1 and 3, fourth order for nu = 2 (whose expansion has no
    odd terms).  Level indices are ladder indices (level mu holds momentum
    nu*q/2 - mu*q).  The infinite level-shift sums are truncated at the
    ladder bounds; the excluded tails only touch levels inside the reporting
    buffer.
    """
    if model.variant != "effective":
        raise ValueError(f"build_effective_hamiltonian needs an effective model, got {model.variant!r}")
    params = model.params
    nu, alpha, m = params.nu, params.alpha, params.ladder_halfwidth
    size = 2 * m + 1
    bands = {0: np.zeros(size)}

    def add(i: int, j: int, val: float) -> None:
        d, lo = abs(j - i), min(i, j)
        bands.setdefault(d, np.zeros(size - d))[lo + m] += val

    if nu in (1, 3):
        # The kinetic energies (3/2 - mu)^2 of nu = 3 are those of nu = 1 at
        # mu - 1, so the nu = 3 table is the nu = 1 table one level up.
        s = (nu - 1) // 2
        add(s, 1 + s, alpha)
        add(s, s, -0.5 * alpha**2)
        add(1 + s, 1 + s, -0.5 * alpha**2)
        for mu in range(-m - s, m - s + 1):
            if mu not in (0, 1):
                add(mu + s, mu + s, alpha**2 / (2.0 * mu * (mu - 1)))
        add(s, 1 + s, -0.25 * alpha**3)
        add(s - 1, 2 + s, 0.25 * alpha**3)
    elif nu == 2:
        add(0, 2, alpha**2)
        for mu in range(-m, m + 1):
            add(mu, mu, 2.0 * alpha**2 / ((2 * mu - 3) * (2 * mu - 1)))
        add(0, 2, -(16.0 / 9.0) * alpha**4)
        add(-1, 3, alpha**4 / 36.0)
        for mu in range(-m, m):  # each pair (mu, mu + 1) inside the ladder
            half = mu - 0.5
            shift = alpha**4 / (8.0 * half**3 * (half**2 - 1.0) ** 2)
            add(mu + 1, mu + 1, -shift)
            add(mu, mu, shift)
            if mu != 0:
                pair = alpha**4 / (64.0 * mu * (mu**2 - 0.25) ** 2)
                add(mu + 1, mu + 1, pair)
                add(mu, mu, pair)
    return BandedHermitianOperator(size=size, bands=bands)


def propagate(
    model: LowGainModel,
    state: LadderState,
    tau_end: float,
    sample_count: int = 1001,
) -> Trace:
    """Evolve a ladder state and record populations and the per-electron gain.

    Both variants reduce to one real-symmetric eigendecomposition: the
    effective models are static by construction, and the full Hamiltonian is
    propagated in its static rotating frame (an exact, population-preserving
    equivalence — no time-stepping error enters).  Norm and frame energy are
    recorded so conservation can be audited; levels within the edge buffer
    are excluded from the reported populations and from dn.

    Returns a Trace over tau with columns ``dn_per_N``, ``norm``, ``energy``,
    and ``levels`` rows mu = -(M - EDGE_BUFFER) ... M - EDGE_BUFFER.
    """
    if model.variant == "full_hamiltonian":
        op = rotating_frame_hamiltonian(model)
    else:
        op = build_effective_hamiltonian(model)
    h = op.dense()
    if state.amplitudes.size != op.size:
        raise ValueError("state size does not match the model's ladder")
    taus = sample_axis(tau_end, sample_count)
    w, v = np.linalg.eigh(h)
    c0 = v.T @ state.amplitudes
    m = model.params.ladder_halfwidth
    mus = np.arange(-m, m + 1)
    interior = np.abs(mus) <= m - EDGE_BUFFER
    dn, norm, energy = np.empty((3, sample_count))
    levels = np.empty((np.count_nonzero(interior), sample_count))
    edges = [*range(0, sample_count - 1, _BLOCK), sample_count]
    for start, stop in zip(edges, edges[1:]):
        sl = slice(start, stop)
        phases = np.exp(-1j * np.outer(w, taus[sl])) * c0[:, None]
        psi = v @ phases  # (size, samples of the block)
        if start == 0:
            psi[:, 0] = state.amplitudes  # the tau = 0 propagator is the identity, exactly
        probs = np.abs(psi) ** 2
        levels[:, sl] = probs[interior]
        dn[sl] = (mus[interior, None] * levels[:, sl]).sum(axis=0)
        norm[sl] = probs.sum(axis=0)
        energy[sl] = np.einsum("is,ij,js->s", psi.conj(), h, psi).real
    return Trace(x=taus, columns={"dn_per_N": dn, "norm": norm, "energy": energy}, levels=levels)


def gain_frequency(nu: int, alpha: float) -> float:
    """Envelope frequency Omega_nu of dn/N in tau: the one home of each resonance's rate.

    The first maximum of the gain sits at tau = pi / (2 * gain_frequency);
    scaling with resonance order follows alpha**nu up to the bracketed
    corrections, and ``analytic_dn`` reads its rate from here.  The first-
    and second-resonance brackets 1 - alpha^2 / 4 and 1 - 16 alpha^2 / 9 are
    perturbative in alpha; once alpha^2 / 4 >= 1 or 16 alpha^2 / 9 >= 1 a
    bracket stops being positive and the expansion has left its domain of
    validity, which is rejected rather than returned as a zero or negative
    frequency.  This is also the one check of alpha for every low-gain
    closed form: it must be positive and finite.
    """
    if not (alpha > 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not _is_integer(nu) or nu not in (1, 2, 3):  # True and 2.0 compare equal to resonances
        raise ValueError(f"closed forms cover nu in {{1, 2, 3}}, got {nu}")
    if nu == 1:
        return alpha * _positive_bracket(
            1.0 - alpha**2 / 4.0, "first-resonance frequency breaks down: alpha^2 / 4 >= 1"
        )
    if nu == 2:
        return alpha**2 * _positive_bracket(
            1.0 - 16.0 * alpha**2 / 9.0, "second-resonance frequency breaks down: 16 alpha^2 / 9 >= 1"
        )
    return alpha**3 / 4.0


def analytic_dn(nu: int, alpha: float, phase: np.ndarray | float) -> np.ndarray | float:
    """Closed-form per-electron gain dn/N = nu sin^2(Omega_nu tau) versus Rabi phase Omega*t.

    Omega_nu is ``gain_frequency(nu, alpha)`` and tau = phase / alpha:

    nu = 1: sin^2[Omega*t (1 - alpha^2/4)]            (amplitude 1)
    nu = 2: 2 sin^2[alpha Omega*t (1 - 16 alpha^2/9)] (amplitude 2)
    nu = 3: 3 sin^2[(alpha^2/4) Omega*t]              (amplitude 3)

    The nu = 1 and nu = 2 brackets are refused once they are <= 0, and any
    other nu is refused, by ``gain_frequency``.
    """
    phase = np.asarray(phase, dtype=float)
    out = nu * np.sin(phase * (gain_frequency(nu, alpha) / alpha)) ** 2
    return float(out) if np.ndim(phase) == 0 else out


def analytic_populations_second(alpha: float, tau: np.ndarray | float) -> Dict[int, np.ndarray]:
    """Closed-form second-resonance populations, keyed by momentum in units of q.

    Returns {+2: P_2q, +1: P_q, 0: P_0, -1: P_-q, -2: P_-2q} exactly as the
    asymptotic expansion gives them (amplitudes kept to second order in
    alpha, frequencies to fourth).  Their sum is identically 1.  Pointwise
    deviation from full propagation over one envelope period falls as
    alpha**4 (~0.0034 at alpha = 0.1, ~0.10 at alpha = 0.25): nu = 2 has no
    odd amplitude terms, so the first dropped amplitude term is O(alpha**4),
    and the first dropped frequency term, O(alpha**6), builds an O(alpha**4)
    phase error over tau ~ pi/alpha**2.  The envelope frequency xi1 is
    ``gain_frequency(2, alpha)``, which checks alpha and refuses alpha >= 0.75.
    See ``momentum_label_to_level`` for the ladder-index correspondence.
    """
    tau = np.asarray(tau, dtype=float)
    xi1 = gain_frequency(2, alpha)
    a2 = alpha * alpha
    xi2 = (a2 * a2 / 36.0) * np.sqrt(1.0 + (124.0 / 125.0) ** 2)
    xi3 = 3.0 - (8.0 * a2 / 15.0) * (1.0 - 16.0 * a2 / 5.0)
    xi4 = 1.0 + (8.0 * a2 / 3.0) * (1.0 - 7.0 * (8.0 * alpha / 15.0) ** 2)

    c1, s1 = np.cos(xi1 * tau), np.sin(xi1 * tau)
    c2, s2 = np.cos(xi2 * tau), np.sin(xi2 * tau)
    c3 = np.cos(xi3 * tau)
    c4, s4 = np.cos(xi4 * tau), np.sin(xi4 * tau)

    p_2q = (a2 / 9.0) * (c1**2 + c2**2 - 2.0 * c1 * c2 * c3)
    p_q = c1**2 + 2.0 * a2 * c1 * (-(10.0 / 9.0) * c1 + c4 + (1.0 / 9.0) * c2 * c3)
    p_0 = 2.0 * a2 * (1.0 - np.cos((xi1 + xi4) * tau))
    p_mq = s1**2 + 2.0 * a2 * s1 * (-(10.0 / 9.0) * s1 - s4 + (1.0 / 9.0) * s2 * c3)
    p_m2q = (a2 / 9.0) * (s1**2 + s2**2 - 2.0 * s1 * s2 * c3)
    return {2: p_2q, 1: p_q, 0: p_0, -1: p_mq, -2: p_m2q}


def analytic_populations_third(alpha: float, tau: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form third-resonance pair (P at +3q/2, P at -3q/2).

    Amplitude corrections are neglected in this pair, so the two values sum
    to exactly 1 and the transfer is a pure Rabi cycle at alpha**3/4.
    """
    tau = np.asarray(tau, dtype=float)
    phase = gain_frequency(3, alpha) * tau
    return np.cos(phase) ** 2, np.sin(phase) ** 2


def momentum_label_to_level(nu: int, k2: int) -> int:
    """Ladder index mu of the level with momentum (k2/2)*q, given resonance nu.

    Level mu holds momentum nu*q/2 - mu*q, so mu = (nu - k2) / 2 where k2
    counts the momentum in half-recoil units (k2 = 2 means +q, k2 = -3 means
    -3q/2, ...).  Rejects non-integers and labels off the ladder's parity.
    """
    if not (_is_integer(nu) and _is_integer(k2)) or (nu - k2) % 2 != 0:
        raise ValueError(f"momentum {k2}/2 q is not on the nu = {nu} ladder")
    return (nu - k2) // 2


def ripple_period(params: FelParams) -> float:
    """Period (in tau) of the slowest off-resonant coupling phase.

    The couplings of ``build_full_hamiltonian`` rotate at nu - 2*mu - 1,
    whose smallest nonzero magnitude is 2 for odd nu and 1 for even nu, so
    the period is pi or 2*pi.  ``fit_rabi_frequency`` smooths a
    full-Hamiltonian trace over one such period: that removes the fast
    oscillations without biasing the envelope.
    """
    return np.pi if params.nu % 2 else 2.0 * np.pi


def fit_rabi_frequency(trace: Trace, model: LowGainModel) -> float:
    """Effective oscillation frequency from the first maximum of the model's gain trace.

    For a gain of the form sin^2(omega * x) the first maximum sits at
    omega * x = pi/2, so the estimator is pi / (2 * x_max).  A
    full-Hamiltonian trace carries fast off-resonant ripple on top of the
    envelope and is first smoothed over one ``ripple_period``; an effective
    model's trace has none and is fitted as it stands.  Raises if the trace
    contains no interior maximum.
    """
    window = ripple_period(model.params) if model.variant == "full_hamiltonian" else 0.0
    ext = first_maximum(*boxcar_smooth(trace.x, trace.column("dn_per_N"), window))
    return float(np.pi / (2.0 * ext.position))
