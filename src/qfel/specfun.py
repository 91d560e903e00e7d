"""Complete elliptic integral K and the Jacobi cn function.

Both are computed from scratch with arithmetic-geometric-mean (AGM)
constructions, so the package carries no external special-function
dependency.  Throughout this package ``k`` is the elliptic *modulus*, not the
parameter ``m = k**2`` — call sites that bridge to other libraries must
convert explicitly, because silently mixing the two conventions is the
classic failure mode of elliptic-function code.  Every entry point checks its
modulus by converting it to an ``EllipticModulus``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EllipticModulus", "elliptic_K", "jacobi_cn", "modulus_from_seed"]


class EllipticModulus(float):
    """An elliptic modulus, constrained to 0 <= k < 1.

    k = 1 is excluded because K(k) diverges there; the seeded photon-number
    solutions only ever produce k = (1 + n0/N)**-1/2 < 1 for n0 > 0.
    """

    def __new__(cls, k: float) -> "EllipticModulus":
        k = float(k)
        if not 0.0 <= k < 1.0:
            raise ValueError(f"modulus must lie in [0, 1), got {k}")
        return super().__new__(cls, k)


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k).

    Evaluated as pi / (2 * agm(1, k')) with k' = sqrt(1 - k^2); the AGM
    iteration converges quadratically, giving full double precision in a
    handful of steps.  K(0) = pi/2 exactly and K is monotone increasing,
    diverging as k -> 1 (rejected).
    """
    k = EllipticModulus(k)
    a, b = 1.0, float(np.sqrt(1.0 - k * k))
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


def _cn(u: np.ndarray | float, k: float) -> np.ndarray:
    """cn(u, k) via descending Landen transformation.

    The AGM scales c_n = a_{n-1} - a_n to zero; the amplitude phi is unwound
    from phi_N = 2^N a_N u back to phi_0 through
    sin(2*phi_{n-1} - phi_n) = (c_n/a_n) * sin(phi_n).
    Arguments are range-reduced modulo the full period 4K first, which keeps
    the recursion accurate for arbitrarily large |u|.
    """
    u = np.asarray(u, dtype=float)
    if k < 1e-12:
        # Circular limit: cn -> cos.
        return np.cos(u)
    bigk = elliptic_K(k)
    u = u - 4.0 * bigk * np.round(u / (4.0 * bigk))

    a_seq = [1.0]
    c_seq = [k]  # c_0 = k by convention; only c_1.. are used in the descent
    a, b = 1.0, float(np.sqrt(1.0 - k * k))
    while abs(a - b) > 1e-16 * a and len(a_seq) < 60:
        a, b = 0.5 * (a + b), float(np.sqrt(a * b))
        a_seq.append(a)
        c_seq.append(a_seq[-2] - a)
    n = len(a_seq) - 1

    phi = (2.0**n) * a_seq[n] * u
    for i in range(n, 0, -1):
        ratio = np.clip(c_seq[i] / a_seq[i] * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(ratio))
    return np.cos(phi)


def jacobi_cn(u: np.ndarray | float, k: float) -> np.ndarray | float:
    """Jacobi elliptic cn(u, k); accepts scalar or array u.

    Even in u, bounded by 1, periodic with period 4K(k), and reducing to
    cos(u) at k = 0.
    """
    k = EllipticModulus(k)
    scalar = np.isscalar(u) or np.ndim(u) == 0
    cn = _cn(u, k)
    return float(cn) if scalar else cn


def modulus_from_seed(n0: float, N: float) -> EllipticModulus:
    """Modulus (1 + n0/N)**-1/2 entering the first-resonance photon solution.

    A seedless field (n0 = 0) degenerates to k = 1, where the oscillation
    period diverges, so the closed forms built on this modulus need n0 > 0.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if not n0 > 0:
        raise ValueError(f"the modulus needs a seeded field: n0 > 0, got {n0}")
    return EllipticModulus((1.0 + n0 / N) ** -0.5)
