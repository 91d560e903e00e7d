"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own solution paths:
dense matrix exponentials instead of banded eigendecompositions, and generic
ODE integration of the interaction-picture H(tau) instead of the
static-frame equivalence.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from qfel.core import BandedHermitianOperator


def expm_populations(op: BandedHermitianOperator, psi0: np.ndarray, taus) -> np.ndarray:
    """|psi(tau)|^2 for a static operator via scipy's dense expm, per tau."""
    h = op.dense()
    out = np.empty((len(taus), op.size))
    for i, tau in enumerate(taus):
        out[i] = np.abs(expm(-1j * h * float(tau)) @ psi0) ** 2
    return out


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
