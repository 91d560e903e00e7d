"""Complete elliptic integral K and the Jacobi cn function, by the arithmetic-geometric mean.

``k`` is the elliptic *modulus* throughout this package.  SciPy and the A&S tables take
the parameter m = k**2, and mixing the two is the classic bug, so only this module squares
k, after ``_modulus`` has checked it.  Both functions walk one AGM ladder: K is A&S 17.6
and cn is the descending Landen scheme of A&S 16.4, so the module needs NumPy alone.
"""

import numpy as np

__all__ = ["elliptic_K", "jacobi_cn"]

# c_n falls quadratically, so the ladder ends within 9 steps even at k = nextafter(1, 0).
# The cap turns a stopping rule that never holds into an error instead of a hang.
_LADDER_STEPS = 16


def _modulus(k: float) -> float:
    """``k`` as a float in [0, 1): K diverges at k = 1, and a seed n0 > 0 gives k < 1."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {k}")
    return k


def _ladder(k: float) -> list[tuple[float, float, float]]:
    """The AGM triples (a_n, b_n, c_n) from a_0 = 1, b_0 = sqrt(1 - k*k), c_0 = k (A&S 17.6).

    Each step takes a, b, c to (a + b)/2, sqrt(a b), (a - b)/2.  It stops at
    c_n <= 2**-53 a_n, which holds once a_n and b_n are within one ulp, so a_N is the AGM.
    b_0 starts from the rounded m = k*k, the parameter a table of K(m) is read at.
    """
    a, b, c = 1.0, float(np.sqrt(1.0 - k * k)), k
    ladder = [(a, b, c)]
    for _ in range(_LADDER_STEPS):
        if c <= 2.0**-53 * a:
            return ladder
        a, b, c = 0.5 * (a + b), float(np.sqrt(a * b)), 0.5 * (a - b)
        ladder.append((a, b, c))
    raise ArithmeticError(f"AGM ladder of modulus {k} did not end in {_LADDER_STEPS} steps")


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, K(k) = pi / (2 AGM(1, sqrt(1 - k*k))).

    K(0) = pi/2 exactly; K increases with k and diverges as k -> 1 (rejected).
    """
    return np.pi / (2.0 * _ladder(_modulus(k))[-1][0])


def jacobi_cn(u: np.ndarray | float, k: float) -> np.ndarray | float:
    """Jacobi elliptic cn(u, k) of scalar or array u: even, |cn| <= 1, period 4K, cos at k = 0.

    From phi_N = 2**N a_N u, each step down the ladder sets
    phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2, and cn = cos phi_0 (A&S 16.4).  The
    asin is taken as an atan2 whose cosine side, a_n sqrt(1 - (c_n/a_n)^2 sin^2 phi_n), is
    hypot(a_n cos phi_n, b_n sin phi_n) since a_n^2 - c_n^2 = b_n^2: near k = 1, where
    c_1/a_1 -> 1, the plain asin loses up to 1e-13.  u is first reduced to u - 2Kq in
    [-K, K], with the sign (-1)^q as cn(u + 2K) = -cn(u), so phi_N stays within
    2**(N-1) pi and carries no more roundoff than a u of one period.
    """
    ladder = _ladder(_modulus(k))
    a_last = ladder[-1][0]
    u, half_period = np.asarray(u, dtype=float), np.pi / a_last
    q = np.round(u / half_period)
    phi = 2.0 ** (len(ladder) - 1) * a_last * (u - half_period * q)
    for a, b, c in reversed(ladder[1:]):
        sin, cos = np.sin(phi), np.cos(phi)
        phi = 0.5 * (phi + np.arctan2(c * sin, np.hypot(a * cos, b * sin)))
    cn = np.cos(phi) * (1.0 - 2.0 * (q % 2.0))
    return float(cn) if u.ndim == 0 else cn
