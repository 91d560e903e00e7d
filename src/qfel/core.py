"""Shared parameter bookkeeping, the ladder state, real band matrices, and traces.

Everything in this package is dimensionless.  The electron lives on a discrete
momentum ladder with spacing q (the two-photon recoil): level mu holds momentum
p - mu*q, where p = nu*q/2 is the initial momentum selected by the resonance
index nu.  Time is measured in units of the inverse recoil frequency (tau),
Rabi phase as Omega*t = alpha*tau, and undulator length in gain lengths
(ell = L/L_g) with the conversion alpha_N * tau = ell / 2.

Two dynamical regimes share these parameters:

* low gain  -- a single electron in a fixed classical field; the quantum
  parameter is ``alpha = alpha_n`` (coupling times sqrt of the field's photon
  number over the recoil frequency);
* high gain -- N electrons coupled to a quantized mode; the quantum parameter
  is ``alpha = alpha_N`` (coupling times sqrt(N) over the recoil frequency).

The regime is always declared explicitly through ``FelParams.context`` and
never inferred from parameter values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, NamedTuple

import numpy as np

__all__ = [
    "FelParams",
    "LadderState",
    "BandedHermitianOperator",
    "Trace",
    "Extremum",
    "boxcar_smooth",
    "first_maximum",
    "sample_axis",
]

#: Levels this close to the truncation edge are excluded from reported
#: observables so that ladder-truncation artifacts cannot contaminate them.
EDGE_BUFFER = 2


def _is_integer(value: object) -> bool:
    """An integer count or index: ``bool`` is an ``Integral`` too, but not one of these."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FelParams:
    """Dimensionless parameters of one simulation scenario.

    Parameters
    ----------
    alpha:
        Quantum parameter.  In the low-gain context this is ``alpha_n``; in
        the high-gain context ``alpha_N``.  Must be positive and finite;
        values above 1 leave the quantum regime and trigger a warning, not an
        error.
    nu:
        Resonance index, an integer; the initial electron momentum is ``nu*q/2``.
        Positive in normal operation.  A negative value selects the mirrored
        initial momentum ``-|nu|*q/2`` (used by reflection checks).
    n0:
        Initial photon number of the seeded mode (high gain); finite and
        non-negative.
    N:
        Electron count (high gain); a positive integer.
    M:
        Ladder truncation half-width (low gain), an integer.  Defaults to
        ``|nu| + 8``; must be at least ``|nu| + 3`` so every coupling of the
        effective models fits inside the truncated ladder.
    context:
        ``"low"`` or ``"high"``; declares which regime ``alpha`` refers to.
    """

    alpha: float
    nu: int = 1
    n0: float = 0.0
    N: int = 1
    M: int | None = None
    context: str = "low"

    def __post_init__(self) -> None:
        if self.context not in ("low", "high"):
            raise ValueError(f"context must be 'low' or 'high', got {self.context!r}")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.alpha > 1:
            warnings.warn(
                f"alpha = {self.alpha} exceeds 1: outside the quantum regime",
                stacklevel=3,  # past the generated __init__, to its caller
            )
        if not _is_integer(self.nu) or self.nu == 0:
            raise ValueError(f"nu must be a nonzero integer, got {self.nu}")
        if not (self.n0 >= 0 and np.isfinite(self.n0)):
            raise ValueError(f"n0 must be non-negative and finite, got {self.n0}")
        if not _is_integer(self.N) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        if self.M is not None and not _is_integer(self.M):
            raise ValueError(f"M must be an integer, got {self.M}")
        m = self.ladder_halfwidth
        if m < abs(self.nu) + 3:
            raise ValueError(
                f"M = {m} too small: need M >= |nu| + 3 = {abs(self.nu) + 3}"
            )

    @property
    def ladder_halfwidth(self) -> int:
        """Truncation half-width M, defaulted to ``|nu| + 8``."""
        return self.M if self.M is not None else abs(self.nu) + 8

    @property
    def seed_ratio(self) -> float:
        """Seed strength n0/N (high-gain bookkeeping)."""
        return self.n0 / self.N


@dataclass
class LadderState:
    """Single-electron amplitudes over momentum levels p - mu*q, mu in [-M, M]."""

    amplitudes: np.ndarray  # complex, length 2*M + 1, index mu + M

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.size % 2 != 1:
            raise ValueError("amplitudes must be a 1-D array of odd length")

    @classmethod
    def initial(cls, params: FelParams) -> "LadderState":
        """Momentum eigenstate at the initial level mu = 0."""
        m = params.ladder_halfwidth
        amps = np.zeros(2 * m + 1, dtype=complex)
        amps[m] = 1.0
        return cls(amplitudes=amps)


@dataclass
class BandedHermitianOperator:
    """Real symmetric band matrix, stored by its diagonal and upper bands.

    ``bands[d][i]`` is the entry H[i, i+d] = H[i+d, i] for band distance
    ``d >= 0``.  Every Hamiltonian the package propagates is one: the
    rotating frame, the effective models and the collective tridiagonal.
    """

    size: int
    bands: Dict[int, np.ndarray]

    def __post_init__(self) -> None:
        # A new dict, so the caller's stays as given; a float band keeps its array.
        bands: Dict[int, np.ndarray] = {}
        for d, entries in self.bands.items():
            if np.iscomplexobj(entries):
                raise ValueError(f"band {d} must be real for a symmetric matrix")
            entries = np.asarray(entries, dtype=float)
            if d < 0 or entries.shape != (self.size - d,):
                raise ValueError(f"band {d} must have length size - d = {self.size - d}")
            bands[d] = entries
        self.bands = bands

    def dense(self) -> np.ndarray:
        """Materialize the full real symmetric matrix."""
        h = np.zeros((self.size, self.size))
        for d, entries in self.bands.items():
            idx = np.arange(self.size - d)
            h[idx, idx + d] += entries
            if d > 0:
                h[idx + d, idx] += entries
        return h


def _positive_bracket(bracket: float, breakdown: str) -> float:
    """A perturbative bracket of a closed form, refused with ``breakdown`` once it is <= 0."""
    if bracket <= 0.0:
        raise ValueError(breakdown)
    return bracket


def sample_axis(end: float, samples: int) -> np.ndarray:
    """``samples`` equally spaced abscissae from 0 to ``end``, both included.

    The one check of a span and a sample count: every figure runner and
    propagator takes its axis from here, so a span must be positive and
    finite and a sample count an integer of at least 2 everywhere.
    """
    if not (end > 0 and np.isfinite(end)):
        raise ValueError(f"end must be positive and finite, got {end}")
    if not _is_integer(samples) or samples < 2:
        raise ValueError(f"samples must be at least 2 (an integer), got {samples!r}")
    return np.linspace(0.0, end, samples)


@dataclass
class Trace:
    """Sampled observable series: one abscissa, named columns of equal length."""

    x: np.ndarray
    columns: Dict[str, np.ndarray]
    levels: np.ndarray | None = None  # populations: one row per level in ladder order, one column per sample

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("abscissa must be 1-D with at least two samples")
        if not np.all(np.diff(self.x) > 0):
            raise ValueError("abscissae must be strictly increasing")
        self.columns = dict(self.columns)  # a copy, so the caller's dict stays as given
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.shape != self.x.shape:
                raise ValueError(f"column {name!r} length differs from abscissa")
            self.columns[name] = col
        if self.levels is not None:
            self.levels = np.asarray(self.levels)
            if self.levels.shape[1:] != self.x.shape:
                raise ValueError("levels must hold one column per sample")

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def boxcar_smooth(x: np.ndarray, y: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Moving average of y over an x-window; returns the valid interior part.

    Used to suppress fast off-resonant ripple before locating slow-envelope
    extrema.  The returned abscissa is trimmed so every output sample averages
    a full window.
    """
    dx = float(np.mean(np.diff(x)))
    k = max(1, int(round(window / dx)))
    if k % 2 == 0:
        k += 1
    if k >= y.size:
        raise ValueError("smoothing window longer than the trace")
    kernel = np.full(k, 1.0 / k)
    ys = np.convolve(y, kernel, mode="valid")
    half = k // 2
    return x[half : x.size - half], ys


class Extremum(NamedTuple):
    """Location and height of a trace extremum."""

    position: float
    amplitude: float


def first_maximum(x: np.ndarray, y: np.ndarray) -> Extremum:
    """First maximum of a sampled oscillation, with parabolic refinement.

    The trace is expected to cover roughly one oscillation period so that the
    global maximum is the first one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i = int(np.argmax(y))
    if i == 0 or i == y.size - 1:
        raise ValueError("no interior maximum found within the trace")
    # Parabola through the three samples around the discrete maximum.
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0:
        return Extremum(float(x[i]), float(y1))
    shift = 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -1.0, 1.0))
    dx = x[i + 1] - x[i] if shift >= 0 else x[i] - x[i - 1]
    pos = float(x[i] + shift * dx)
    amp = float(y1 - 0.25 * (y0 - y2) * shift)
    return Extremum(pos, amp)
