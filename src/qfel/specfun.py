"""Complete elliptic integral K and the Jacobi cn function, from ``scipy.special``.

``k`` is the elliptic *modulus* throughout this package.  SciPy takes the parameter
m = k**2, and mixing the two is the classic bug, so only this module squares k, after
``_modulus`` has checked it.  SciPy is imported on first call.
"""

import numpy as np

__all__ = ["elliptic_K", "jacobi_cn"]


def _modulus(k: float) -> float:
    """``k`` as a float in [0, 1): K diverges at k = 1, and a seed n0 > 0 gives k < 1."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {k}")
    return k


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = ``ellipk(k*k)``.

    K(0) = pi/2 exactly; K increases with k and diverges as k -> 1 (rejected).
    """
    from scipy.special import ellipk
    k = _modulus(k)
    return float(ellipk(k * k))


def jacobi_cn(u: np.ndarray | float, k: float) -> np.ndarray | float:
    """Jacobi elliptic cn(u, k) of scalar or array u: even, |cn| <= 1, period 4K, cos at k = 0.

    ``ellipj`` gets u - 2Kq in [-K, K] and the sign (-1)^q, as cn(u + 2K) = -cn(u), because
    for k*k >= 1 - 1e-10 it sums a series in 1 - k*k (A&S 16.15) that is not periodic.
    """
    from scipy.special import ellipj
    k = _modulus(k)
    u, half_period = np.asarray(u, dtype=float), 2.0 * elliptic_K(k)
    q = np.round(u / half_period)
    cn = ellipj(u - half_period * q, k * k)[1] * (1.0 - 2.0 * (q % 2.0))
    return float(cn) if u.ndim == 0 else cn
