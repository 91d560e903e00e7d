"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own solution paths:
SciPy's dense matrix exponential instead of banded eigendecompositions and
``qfel.validate.expm``, generic ODE integration of the interaction-picture
H(tau) instead of the static-frame equivalence, and of the mean-field
equations instead of ``integrate_semiclassical``'s Taylor steps, and K, cn
and the detuned mean-field form of the first resonance straight from
``scipy.special`` (Cephes: K from polynomials in 1 - m, cn from its own
Landen code and, near m = 1, a series) instead of ``qfel.specfun``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import ellipj, ellipk

from qfel.core import BandedHermitianOperator, FelParams


def expm_populations(op: BandedHermitianOperator, psi0: np.ndarray, taus) -> np.ndarray:
    """|psi(tau)|^2 for a static operator via scipy's dense expm, per tau."""
    h = op.dense()
    out = np.empty((len(taus), op.size))
    for i, tau in enumerate(taus):
        out[i] = np.abs(expm(-1j * h * float(tau)) @ psi0) ** 2
    return out


def scipy_elliptic_K(k: float) -> float:
    """K of modulus k from SciPy's ``ellipk``, which takes the parameter m = k*k."""
    return float(ellipk(k * k))


def scipy_jacobi_cn(u, k: float) -> np.ndarray:
    """cn(u, k) from SciPy's ``ellipj`` at u - 2Kq in [-K, K], times (-1)^q.

    For m = k*k >= 1 - 1e-10 ``ellipj`` sums a series in 1 - m (A&S 16.15) that is not
    periodic and overflows at large u, so it is only read on the central half-period.
    """
    u, half_period = np.asarray(u, dtype=float), 2.0 * ellipk(k * k)
    q = np.round(u / half_period)
    return ellipj(u - half_period * q, k * k)[1] * (1.0 - 2.0 * (q % 2.0))


def ode_populations(
    hamiltonian: Callable[[float], np.ndarray], psi0: np.ndarray, taus, rtol: float = 1e-12
) -> np.ndarray:
    """|psi(tau)|^2 by direct integration of i dpsi/dtau = H(tau) psi.

    ``hamiltonian`` maps tau to the dense matrix H(tau), so oscillating
    couplings work; this is the only route here that never materializes a
    propagator, so it is independent of both the package's static-frame trick
    and the expm oracle.
    """
    size = psi0.size

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        psi = y[:size] + 1j * y[size:]
        dpsi = -1j * (hamiltonian(tau) @ psi)
        return np.concatenate([dpsi.real, dpsi.imag])

    y0 = np.concatenate([psi0.real.astype(float), psi0.imag.astype(float)])
    sol = solve_ivp(
        rhs,
        (0.0, float(taus[-1])),
        y0,
        t_eval=np.asarray(taus, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    psi = sol.y[:size] + 1j * sol.y[size:]
    return (np.abs(psi) ** 2).T


def mean_field_populations(params: FelParams, ells) -> dict[str, np.ndarray]:
    """The columns n, A, B of ``integrate_semiclassical`` from SciPy's DOP853 at rtol 1e-12."""
    g = params.alpha / params.N

    def rhs(_ell: float, y: np.ndarray) -> np.ndarray:
        a, b0, b2 = y
        da = -1j * g * np.conj(a) * b0 * np.conj(b2)
        return np.array([da, -0.5j * g * a * a * b2, -0.5j * g * np.conj(a) * np.conj(a) * b0])

    y0 = np.array([np.sqrt(params.n0), np.sqrt(params.N), 0.0], dtype=complex)
    sol = solve_ivp(rhs, (0.0, ells[-1]), y0, t_eval=ells, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    n, n_elec0, n_elec2 = np.abs(sol.y) ** 2
    return {"n": n, "A": n_elec0 + n_elec2, "B": 2.0 * n_elec0 + n}


def detuned_n_first(ell, params: FelParams, detuned: bool = True):
    """Mean-field photon number of ``third_order`` at finite N, and its first maximum.

    The model couples mu to mu + 1 by C sqrt(mu (n0 + mu)) sqrt(1 - (mu - 1)/N) / 2, with the
    bracket C = 1 - (alpha^2/8)(1 + 2 (n0 + 1)/N), and its mu-linear diagonal
    -(alpha/4)(n0 + mu (1 + 1/N)) is a detuning delta = (alpha/4)(1 + 1/N) per photon.  Energy
    is conserved from the seed mu = 0, so (dmu/dell)^2 = mu g(mu) with
    g(mu) = C^2 (n0 + mu)(1 - (mu - 1)/N) - delta^2 mu = (C^2/N)(mu_max - mu)(mu - mu_neg),
    mu_neg < 0 < mu_max.  A cubic with three real roots gives (A&S 17.4)
    n = n0 + mu_max cn^2(lam ell - K(m), m), m = mu_max / (mu_max - mu_neg),
    lam = sqrt(C^2 (mu_max - mu_neg) / N) / 2, which peaks at n0 + mu_max, ell = K(m) / lam.
    With delta = 0 and N -> infinity it is ``analytic_n_first(order=3)``.

    Returns (n at ell, first-maximum position, first-maximum amplitude).
    """
    alpha, n0, N = params.alpha, params.n0, params.N
    c2 = (1.0 - (alpha**2 / 8.0) * (1.0 + 2.0 * (n0 + 1.0) / N)) ** 2
    delta = (alpha / 4.0) * (1.0 + 1.0 / N) if detuned else 0.0
    # g(mu) = -(C^2/N) mu^2 + b mu + C^2 n0 (1 + 1/N); mu_neg from the roots' product.
    b = c2 * (1.0 + (1.0 - n0) / N) - delta**2
    mu_max = N * (b + np.sqrt(b * b + 4.0 * c2 * c2 * n0 * (1.0 + 1.0 / N) / N)) / (2.0 * c2)
    mu_neg = -N * n0 * (1.0 + 1.0 / N) / mu_max
    m = mu_max / (mu_max - mu_neg)
    lam, bigk = 0.5 * np.sqrt(c2 * (mu_max - mu_neg) / N), ellipk(m)
    _, cn, _, _ = ellipj(lam * np.asarray(ell, dtype=float) - bigk, m)
    return n0 + mu_max * cn**2, float(bigk / lam), n0 + mu_max
