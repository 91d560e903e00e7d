"""High-gain regime: N electrons collectively coupled to one quantized seeded mode.

The many-electron dynamics stays inside an (N+1)-dimensional collective
subspace: basis state mu has mu electrons transferred across the resonance
and ``n0 + s*mu`` photons in the mode (s = 1 photon per step on the first
resonance, s = 2 on the second).  The equation of motion is a real symmetric
tridiagonal system in the scaled undulator length ell = L/L_g,

    i dc_mu/dell = a(mu) c_{mu-1} + a(mu+1) c_{mu+1} + d(mu) c_mu,

whose coefficient formulas per resonance and model variant live in
``build_dicke_tridiagonal``.  Cross-checking routes:

* ``propagate_dicke`` — exact-in-time evolution of the tridiagonal system; an
  eigendecomposition or a Chebyshev series supplies the amplitudes;
* ``analytic_n_first`` / ``analytic_n_second`` — closed-form photon numbers
  (Jacobi-elliptic for the first resonance, trigonometric-semiclassical for
  the second);
* ``integrate_semiclassical`` — the mean-field amplitude equations of the
  second resonance, integrated numerically with their two conserved
  quantities monitored;
* ``lmax_exact`` / ``lmax_ratio`` — first-maximum positions, exact versus the
  logarithmic shorthand whose accuracy is measured rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

from .core import BandedHermitianOperator, FelParams, Trace, _is_integer, _positive_bracket, sample_axis
from .specfun import elliptic_K, jacobi_cn

__all__ = [
    "HighGainModel",
    "VARIANTS",
    "build_dicke_tridiagonal",
    "propagate_dicke",
    "analytic_n_first",
    "analytic_n_second",
    "short_time_n_second",
    "integrate_semiclassical",
    "lmax_ratio",
    "lmax_exact",
]

#: Model variants per resonance.  The *_order variants of the first resonance
#: keep or drop the alpha^2 coupling correction and the diagonal; the second
#: resonance either keeps only the pair-emission coupling (dicke_only) or adds
#: the full diagonal level shifts (full_second_order).
VARIANTS: Dict[int, tuple[str, ...]] = {
    1: ("first_order", "third_order"),
    2: ("dicke_only", "full_second_order"),
}

#: Bytes of the (N+1)^2 eigenvectors (the work tail after them is extra) up to
#: which ``propagate_dicke`` takes the eigh route (N <= 11584), else Chebyshev.
#: A constant, not the host's free memory, so every machine takes the same route.
EIGH_BYTES = 2**30

#: K-panel depth of OpenBLAS's double GEMM on its SkylakeX target
#: (DGEMM_DEFAULT_Q in OpenBLAS's param.h), the kernel NumPy's bundled
#: OpenBLAS runs on AVX-512 hosts.  ``_gemm_pieces`` cuts the eigenbasis
#: GEMM into one piece per panel.
_GEMM_PANEL = 384
#: Most output rows of one eigenbasis GEMM call.  OpenBLAS packs a call's
#: whole row range, a panel deep, into a buffer it never gives back
#: (384 x 10001 doubles, 29 MiB, at N = 10^4), so ``_row_chunks`` cuts the
#: rows into calls of at most this many.
_GEMM_ROWS = 1024
#: Output columns the same target blocks by at a full panel depth
#: (DGEMM_DEFAULT_P); at a shorter depth it takes proportionally more.
_GEMM_P = 192
#: Largest product, in multiply-adds, that the same target hands to its
#: small-matrix kernel, which sums the whole inner dimension in one run.
_GEMM_SMALL = 100**3

#: One block of amplitudes from a route: (samples, Re c, Im c, scratch), c of
#: shape (N+1, k) and scratch a flat float array of at least 3 (N+1) k elements
#: that the observable step may overwrite.
_Blocks = Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class HighGainModel:
    """A high-gain scenario: parameters plus resonance variant."""

    params: FelParams
    variant: str

    def __post_init__(self) -> None:
        if self.params.context != "high":
            raise ValueError("HighGainModel requires params in the high-gain context")
        nu = self.params.nu
        if nu not in VARIANTS:
            raise ValueError(f"collective models cover nu in {{1, 2}}, got {nu}")
        if self.variant not in VARIANTS[nu]:
            raise ValueError(
                f"resonance nu = {nu} supports variants {VARIANTS[nu]}, got {self.variant!r}"
            )


def build_dicke_tridiagonal(model: HighGainModel) -> BandedHermitianOperator:
    """(N+1) x (N+1) real symmetric tridiagonal operator: d(0..N) as band 0, a(1..N) as band 1."""
    p = model.params
    alpha, n0, N = p.alpha, p.n0, p.N
    mu_a = np.arange(1, N + 1, dtype=float)
    mu_d = np.arange(0, N + 1, dtype=float)
    if p.nu == 2:
        a = (
            0.5
            * alpha
            * np.sqrt((n0 + 2 * mu_a - 1) * (n0 + 2 * mu_a))
            * np.sqrt(mu_a / N)
            * np.sqrt(1.0 - (mu_a - 1) / N)
        )
        if model.variant == "dicke_only":
            d = np.zeros(N + 1)
        else:
            d = alpha * ((2.0 / 3.0) * mu_d * (1.0 - 1.0 / N) + n0 / 3.0 + 0.5)
    else:
        bracket = 1.0
        if model.variant == "third_order":
            bracket = 1.0 - (alpha**2 / 8.0) * (1.0 + 2.0 * (n0 + 1.0) / N)
        a = 0.5 * bracket * np.sqrt(mu_a * (n0 + mu_a)) * np.sqrt(1.0 - (mu_a - 1) / N)
        if model.variant == "first_order":
            d = np.zeros(N + 1)
        else:
            d = -(alpha / 4.0) * (n0 + mu_d * (1.0 + 1.0 / N))
    return BandedHermitianOperator(size=N + 1, bands={0: d, 1: a})


def jv(order, z):
    """Bessel function of the first kind J_order(z), from ``scipy.special``.

    ``scipy.special`` is imported on the first call rather than with the
    package, since only the Chebyshev route needs it.  The name stays a
    module global so the route's coefficient call resolves (and can be
    counted) here.
    """
    from scipy.special import jv as bessel_j

    return bessel_j(order, z)


_OPENBLAS = None


def _openblas():
    """The OpenBLAS that NumPy's wheel bundles (``numpy.libs/libscipy_openblas64_*``), opened once.

    ``import numpy`` has mapped it already, so opening it maps nothing new.
    It is the one place the package looks the library up; without it the
    eigh route cannot run, which is an ``OSError`` with a one-line message.
    """
    global _OPENBLAS
    if _OPENBLAS is None:
        import ctypes
        import glob
        import os

        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*")))
        if not found:
            raise OSError(f"the eigh route calls dstemr from NumPy's bundled OpenBLAS, and {libs} holds none")
        _OPENBLAS = ctypes.CDLL(found[0])
    return _OPENBLAS


def eigh_tridiagonal(d, e, spare=0):
    """Eigenvalues w and eigenvectors v of a real symmetric tridiagonal, from LAPACK ``dstemr``.

    It calls ``scipy_dstemr_64_`` (64-bit integers) in NumPy's bundled
    OpenBLAS with the work sizes and ``tryrac`` of
    ``scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")``, so w and
    v are SciPy's bit for bit while no SciPy module is loaded; d and e are
    copied, since ``dstemr`` overwrites them.  Returns (w, v, mapping): v is
    the F-ordered head of one private anonymous mapping whose last ``spare``
    doubles start on a page.  Its pages bypass the heap and go back to the OS
    once its last view goes.  The name stays a module global so the route's
    call resolves (and can be counted) here.
    """
    import ctypes
    import mmap

    n = d.size
    if np.shape(e) != (n - 1,):  # dstemr reads n - 1 of them
        raise ValueError(f"e must hold n - 1 = {n - 1} couplings, got shape {np.shape(e)}")
    # 21 arguments, then the lengths of the two one-character ones, as gfortran passes them.
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 21, ctypes.c_size_t, ctypes.c_size_t)
    dstemr = prototype(("scipy_dstemr_64_", _openblas()))
    head = -(-8 * n * n // mmap.PAGESIZE) * mmap.PAGESIZE
    mapping = mmap.mmap(-1, head + 8 * spare, flags=mmap.MAP_PRIVATE)  # shared pages outlive MADV_DONTNEED
    v = np.frombuffer(mapping, count=n * n).reshape(n, n, order="F")
    d, e = np.array(d, dtype=float), np.append(np.asarray(e, dtype=float), 0.0)  # e padded to n, as SciPy pads it
    w, isuppz, work, iwork = np.empty(n), np.empty(2 * n, np.int64), np.empty(18 * n), np.empty(10 * n, np.int64)
    size, index, found, tryrac, lwork, liwork, info = (ctypes.c_int64(k) for k in (n, 0, 0, 1, 18 * n, 10 * n, 0))
    bound, ref = ctypes.c_double(0.0), ctypes.byref  # RANGE = "A" reads neither the value nor the index bounds
    dstemr(
        b"V", b"A", ref(size), d.ctypes.data, e.ctypes.data, ref(bound), ref(bound), ref(index), ref(index),
        ref(found), w.ctypes.data, v.ctypes.data, ref(size), ref(size), isuppz.ctypes.data, ref(tryrac),
        work.ctypes.data, ref(lwork), iwork.ctypes.data, ref(liwork), ref(info), 1, 1,
    )
    if info.value:
        raise RuntimeError(f"tridiagonal eigensolver failed: stemr info = {info.value}")
    return w, v, mapping


def _row_chunks(n: int, width: int) -> list[tuple[int, int]]:
    """Output row ranges [lo, hi) of the eigenbasis GEMM calls: the fewest of at most ``_GEMM_ROWS`` rows.

    NumPy hands OpenBLAS the transposed product, so output rows are
    OpenBLAS's columns, which its kernel takes in groups that share no sums;
    cutting between groups moves no bit as long as no call goes to another
    kernel.  So the chunks start on multiples of 16 rows, whole groups, and
    are near-equal, which keeps the last one from being short enough for the
    small-matrix kernel.  A width above ``_GEMM_P`` that is not a multiple of
    8 is the exception: its edge columns are summed in an order set by how
    the threads split the rows, so that product stays one call.
    """
    if width > _GEMM_P and width % 8:
        return [(0, n)]
    count = -(-n // _GEMM_ROWS)
    size = -(-n // (16 * count)) * 16
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _gemm_pieces(support: np.ndarray, n: int, width: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of an n-deep, ``width``-wide GEMM input around ``support``.

    OpenBLAS sums the inner dimension in whole ``_GEMM_PANEL`` panels until
    fewer than two remain, then halves the rest; ``split`` is where that tail
    starts.  Each panel is summed from zero and added to the output in order,
    so one piece per panel that holds support rows, added in panel order,
    gives the full product bit for bit.  A piece is trimmed to the panel's
    first and last support row, except where trimming moves the bits: above
    ``_GEMM_P`` columns OpenBLAS blocks the columns by the inner depth, and
    a width that is not a multiple of 8 then sums its edge columns in
    another order, so those pieces keep the whole panel.  The tail's two
    halves are added to the output one by one, so a support that reaches the
    tail keeps a single piece from its first panel's edge to n.  A piece
    small enough for the small-matrix kernel in the shortest of the
    ``_row_chunks`` calls would be summed in one run, so it is widened inside
    its panel, and if a whole panel is that small the product keeps every row.
    """
    split = _GEMM_PANEL * max(0, (n - _GEMM_PANEL) // _GEMM_PANEL)
    rows = min(hi - lo for lo, hi in _row_chunks(n, width))
    need = _GEMM_SMALL // (rows * width) + 1
    if need > _GEMM_PANEL:
        return [(0, n)]
    edges = support // _GEMM_PANEL * _GEMM_PANEL
    if support[-1] >= split:
        return [(min(int(edges[0]), split), n)]
    if width > _GEMM_P and width % 8:
        return [(int(edge), int(edge) + _GEMM_PANEL) for edge in np.unique(edges)]
    pieces = []
    for edge in np.unique(edges):
        rows = support[edges == edge]
        hi = min(max(int(rows[-1]) + 1, int(rows[0]) + need), int(edge) + _GEMM_PANEL)
        pieces.append((min(int(rows[0]), hi - need), hi))
    return pieces


def _support_product(
    v: np.ndarray, support: np.ndarray, values: np.ndarray, out: np.ndarray, buffer: np.ndarray
) -> None:
    """out = v @ b, bit for bit, for b zero off the rows ``support`` and ``values`` on them.

    The product runs in the ``_gemm_pieces`` around the support, each cut
    into the ``_row_chunks`` of the C-ordered (n, width) ``out``: the first
    piece is written into ``out`` and each later one is added through
    ``buffer``, which holds one chunk, so no call allocates a product and
    OpenBLAS packs one chunk of rows at a time.
    """
    n, width = out.shape
    chunks = _row_chunks(n, width)
    for i, (lo, hi) in enumerate(_gemm_pieces(support, n, width)):
        first, last = np.searchsorted(support, (lo, hi))
        b = np.zeros((hi - lo, width))
        b[support[first:last] - lo] = values[first:last]
        for top, bottom in chunks:
            if i:
                piece = buffer[: (bottom - top) * width].reshape(bottom - top, width)
                np.matmul(v[top:bottom, lo:hi], b, out=piece)
                out[top:bottom] += piece
            else:
                np.matmul(v[top:bottom, lo:hi], b, out=out[top:bottom])


def _eigh_blocks(d: np.ndarray, a: np.ndarray, steps: np.ndarray) -> _Blocks:
    """Amplitudes from one eigendecomposition, exact in ell, 64 samples per block.

    The seed |0> weighs eigenvector j by u_j = v[0, j] (Golub-Welsch), and
    ``stemr`` returns an exact 0.0 for most u_j, so the phases
    exp(-i w_j ell) u_j are computed on the support rows only.  Re and Im of
    128 samples sit side by side in one real (K, 256) input, so one GEMM
    streams the eigenvector matrix where four (N+1, 64) products did.  That
    GEMM is ``_support_product``: pieces cut around the support, one per
    BLAS K-panel that holds support rows, in calls of at most ``_GEMM_ROWS``
    output rows, written into one C-ordered block.  The rows left out are
    exact zeros, so the sum equals the full product bit for bit on
    OpenBLAS's SkylakeX kernel, and on any other BLAS it is still exact up to
    summation order.  The result is handed out as 64-sample views of that
    block, the shapes the observable sums were recorded with; the next block
    overwrites them.

    ``eigh_tridiagonal`` writes the eigenvectors into one anonymous mapping
    whose tail holds the block, one row chunk of buffer and the observable
    scratch (448 columns and a chunk from 128 samples on).  Once the support
    is known, the eigenvector columns left of the first GEMM piece and right
    of the last, for both block widths, go back to the OS before the tail is
    touched, so the tail lifts the peak above the solve's only where fewer
    are unread.  The mapping is unmapped once the caller drops the last block.

    The sizes keep every output bit: a GEMM 512 columns wide, observable
    sums over 128 samples, or a piece that moves a panel edge all change
    the roundoff of the outputs; trimming zero rows inside a panel, or
    cutting the output rows, does not.
    """
    import mmap

    n, widths = d.size, {2 * min(128, steps.size), 2 * (steps.size % 128 or 128)}
    block = n * max(widths)
    chunk = max(hi - lo for width in widths for lo, hi in _row_chunks(n, width)) * max(widths)
    spare = block + chunk + 3 * n * min(64, steps.size)
    w, v, mapping = eigh_tridiagonal(d, a, spare)
    support = np.flatnonzero(v[0])
    w, u = w[support], v[0, support]
    pieces = [p for width in widths for p in _gemm_pieces(support, n, width)]
    left = 8 * n * min(p[0] for p in pieces) // mmap.PAGESIZE * mmap.PAGESIZE
    right = -(-8 * n * max(p[1] for p in pieces) // mmap.PAGESIZE) * mmap.PAGESIZE
    mapping.madvise(mmap.MADV_DONTNEED, 0, left)
    mapping.madvise(mmap.MADV_DONTNEED, right)  # up to the end: the tail is not touched yet
    work = np.frombuffer(mapping, offset=len(mapping) - 8 * spare)
    out, buffer, scratch = work[:block], work[block : block + chunk], work[block + chunk :]
    for start in range(0, steps.size, 128):
        t = steps[start : start + 128]
        k = t.size
        phase = np.exp(-1j * np.outer(w, t)) * u[:, None]
        c = out[: n * 2 * k].reshape(n, 2 * k)
        _support_product(v, support, np.hstack((phase.real, phase.imag)), c, buffer)
        for lo in range(0, k, 64):
            hi = min(lo + 64, k)
            yield slice(start + lo, start + hi), c[:, lo:hi], c[:, k + lo : k + hi], scratch


def _chebyshev_blocks(d: np.ndarray, a: np.ndarray, steps: np.ndarray) -> _Blocks:
    """Amplitudes from one Chebyshev series of exp(-i H dt), applied once per sample.

    The spectrum is mapped to [-1, 1] with the Gershgorin bounds; the
    expansion degree grows linearly with the spectral half-width times dt,
    with enough margin that the Bessel coefficients have decayed below
    double-precision roundoff.
    """
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(a)
    radius[1:] += np.abs(a)
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    dt = steps[1] - steps[0]
    z = half * dt
    degree = int(z + 25 + 12 * z ** (1.0 / 3.0))
    # Term k weighs exp(-i mid dt) (2 - delta_k0) (-i)^k J_k(z); (-i)^k is exact from its period.
    k = np.arange(degree + 1)
    weights = np.exp(-1j * mid * dt) * np.array([2.0, -2j, -2.0, 2j])[k % 4] * jv(k, z)
    weights[0] /= 2.0
    shifted = d - mid

    def matvec(v: np.ndarray) -> np.ndarray:
        out = shifted * v
        out[:-1] += a * v[1:]
        out[1:] += a * v[:-1]
        return out / half

    psi = np.zeros(d.size, dtype=complex)
    psi[0] = 1.0
    scratch = np.empty(3 * d.size)
    for i in range(1, steps.size):
        phi_prev, phi = psi, matvec(psi)
        psi = weights[0] * phi_prev + weights[1] * phi
        for weight in weights[2:]:
            phi_prev, phi = phi, 2.0 * matvec(phi) - phi_prev
            psi += weight * phi
        yield slice(i, i + 1), psi.real[:, None], psi.imag[:, None], scratch


def _block_observables(
    cr: np.ndarray,
    ci: np.ndarray,
    scratch: np.ndarray,
    mus: np.ndarray,
    a: np.ndarray,
    d: np.ndarray,
    n0: float,
    s: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n, norm and energy of one amplitude block, plus its level populations (a view of ``scratch``).

    Computes P = cr**2 + ci**2, sum P, n0 sum P + s sum mu P and
    P.T @ d + 2 (cr[:-1] cr[1:] + ci[:-1] ci[1:]).T @ a with the same ufuncs
    in the same order, but into three C-ordered (N+1, k) slices of the flat
    ``scratch`` rather than fresh temporaries.  Each slice has the layout a
    fresh temporary would have, so the axis-0 sums and the two GEMVs sum in
    the same order and every output bit is kept.
    """
    rows, k = cr.shape
    probs, tmp, pair = (scratch[i * rows * k : (i + 1) * rows * k].reshape(rows, k) for i in range(3))
    np.square(cr, out=probs)
    np.add(probs, np.square(ci, out=tmp), out=probs)
    norm = probs.sum(axis=0)
    n = n0 * norm + s * np.multiply(mus[:, None], probs, out=tmp).sum(axis=0)
    np.multiply(cr[:-1], cr[1:], out=pair[:-1])
    np.add(pair[:-1], np.multiply(ci[:-1], ci[1:], out=tmp[:-1]), out=pair[:-1])
    energy = probs.T @ d + 2.0 * (pair[:-1].T @ a)
    return n, norm, energy, probs


def propagate_dicke(model: HighGainModel, ell_end: float, sample_count: int = 801) -> Trace:
    """Photon number n(ell) from the seeded Fock state, with conservation audit.

    N alone picks the route, and no call can override it: one
    eigendecomposition, exact in ell, while its (N+1)^2 eigenvectors fit in
    ``EIGH_BYTES`` (up to N = 11584), else a Chebyshev series with O(N)
    memory.  Both must conserve norm and energy to 1e-8 over figure-length
    runs — that is the gate, not the route.

    Returns a Trace over ell = L/L_g with columns ``n``, ``norm``, ``energy``.
    """
    fits = 8 * (model.params.N + 1) ** 2 <= EIGH_BYTES
    return _propagate_dicke(model, ell_end, sample_count, _eigh_blocks if fits else _chebyshev_blocks)


def _propagate_dicke(model: HighGainModel, ell_end: float, sample_count: int, blocks, keep_levels=False) -> Trace:
    """``propagate_dicke``'s observables from the amplitudes of ``_eigh_blocks`` or ``_chebyshev_blocks``.

    With ``keep_levels`` the trace's ``levels`` holds every level's population,
    rows mu = 0 ... N: (N+1) x sample_count, for oracle cross-checks only.
    """
    p = model.params
    steps = sample_axis(ell_end, sample_count)
    bands = build_dicke_tridiagonal(model).bands
    d, a = bands[0], bands[1]
    if not (np.isfinite(d).all() and np.isfinite(a).all()):  # else stemr can fail or never return
        raise ValueError(f"n0 = {p.n0} and N = {p.N} put the collective couplings outside floating-point range")
    mus = np.arange(p.N + 1, dtype=float)
    n_out, norm_out, energy_out = np.empty((3, sample_count))
    prob_out = np.empty((p.N + 1, sample_count)) if keep_levels else None
    for sl, cr, ci, scratch in blocks(d, a, steps):
        n_out[sl], norm_out[sl], energy_out[sl], probs = _block_observables(
            cr, ci, scratch, mus, a, d, p.n0, p.nu
        )
        if prob_out is not None:
            prob_out[:, sl] = probs
    # The ell = 0 propagator is the identity; pin the seed row exactly, which
    # drops the eigenbasis round-trip noise and fills the row Chebyshev skips.
    norm_out[0] = 1.0
    n_out[0] = float(p.n0)
    energy_out[0] = float(d[0])
    if prob_out is not None:
        prob_out[:, 0] = 0.0
        prob_out[0, 0] = 1.0
    return Trace(x=steps, columns={"n": n_out, "norm": norm_out, "energy": energy_out}, levels=prob_out)


def _seed_ratio(params: FelParams) -> float:
    """n0/N, after the one check of a collective closed form's params: high-gain (alpha is alpha_N) and seeded."""
    if params.context != "high":
        raise ValueError(f"the collective closed forms need high-gain params, got context {params.context!r}")
    if not params.n0 > 0:  # at n0 = 0 the elliptic modulus is 1 and every length diverges
        raise ValueError(f"the collective closed forms need a seeded field: n0 > 0, got {params.n0}")
    r = float(params.seed_ratio)
    if not np.isfinite(r * (r + 2.0)):
        raise ValueError(f"n0 = {params.n0} is too large: (n0/N)(n0/N + 2) overflows")
    if not 1.0 + r > 1.0:  # else the modulus (1 + n0/N)^(-1/2) rounds to 1
        raise ValueError(f"n0 = {params.n0} is too small: 1 + n0/N rounds to 1")
    return r


def analytic_n_first(
    ell: np.ndarray | float, params: FelParams, order: int = 3
) -> np.ndarray | float:
    """Closed-form photon number of the first resonance (Jacobi-elliptic).

    n(ell) = n0 + N cn^2( sqrt(1+n0/N) (ell/2) C - K(k), k ) with modulus
    k = (1+n0/N)^{-1/2}; the order-3 phase factor is
    C = 1 - (alpha^2/8)(1 + 2 n0/N), dropped at order 1.  The curve rises
    from n0 to n0 + N and is periodic; ``_seed_ratio`` checks the params,
    and C <= 0 is refused as in ``lmax_exact``.
    """
    if not _is_integer(order) or order not in (1, 3):  # True and 3.0 compare equal to orders
        raise ValueError(f"order must be 1 or 3, got {order!r}")
    r = _seed_ratio(params)
    k = (1.0 + r) ** -0.5
    bigk = elliptic_K(k)
    corr = _first_resonance_phase_factor(params) if order == 3 else 1.0
    arg = np.sqrt(1.0 + r) * (np.asarray(ell, dtype=float) / 2.0) * corr - bigk
    cn = jacobi_cn(arg, k)
    return params.n0 + params.N * np.square(cn)


def analytic_n_second(ell: np.ndarray | float, params: FelParams) -> np.ndarray | float:
    """Closed-form photon number of the second resonance (mean-field).

    n(ell) = n0 (1 + n0/2N) / (cos^2 theta + n0/2N) with
    theta = sqrt((n0/N)(n0/N + 2)) * alpha * ell / 2; periodic between n0 and n0 + 2N.
    The ratio is taken before n0 multiplies it, so n0 (1 + n0/2N) cannot
    overflow for a seed that ``_seed_ratio`` passes.
    """
    r = _seed_ratio(params)
    x = params.n0 / (2.0 * params.N)
    theta = np.sqrt(r * (r + 2.0)) * params.alpha * np.asarray(ell, dtype=float) / 2.0
    return params.n0 * ((1.0 + x) / (np.cos(theta) ** 2 + x))


def short_time_n_second(ell: np.ndarray | float, params: FelParams) -> np.ndarray | float:
    """Quadratic start-up law of the seeded second resonance.

    n(ell) ~= n0 [1 + n0 (alpha*ell)^2 / (2N)]: the growth is algebraic, not
    exponential — a linear instability analysis cannot produce it.  Valid for
    ell well below the first-maximum length.
    """
    _seed_ratio(params)
    ell = np.asarray(ell, dtype=float)
    return params.n0 * (1.0 + params.n0 * (params.alpha * ell) ** 2 / (2.0 * params.N))


def integrate_semiclassical(
    params: FelParams, ell_end: float, sample_count: int = 801
) -> Trace:
    """Mean-field amplitude dynamics of the second resonance.

    Integrates the three coupled mode amplitudes (field a, unexcited
    electrons b0, recoiled electrons b2) from a = sqrt(n0), b0 = sqrt(N),
    b2 = 0.  Two combinations are conserved exactly by the dynamics and are
    recorded so integrator drift can be audited: A = |b0|^2 + |b2|^2 (= N)
    and B = 2|b0|^2 + n (= 2N + n0).  Aborts if the sum of the two electron
    populations exceeds N beyond integrator tolerance.

    Returns a Trace over ell with columns ``n``, ``A``, ``B``.
    """
    _seed_ratio(params)
    if params.nu != 2:
        raise ValueError("the mean-field route models the second resonance (nu = 2)")
    ells = sample_axis(ell_end, sample_count)
    alpha, N = params.alpha, params.N

    def rhs(_ell: float, y: np.ndarray) -> np.ndarray:
        a, b0, b2 = y
        da = -1j * (alpha / N) * np.conj(a) * b0 * np.conj(b2)
        db0 = -1j * (alpha / (2.0 * N)) * a * a * b2
        db2 = -1j * (alpha / (2.0 * N)) * np.conj(a) * np.conj(a) * b0
        return np.array([da, db0, db2])

    y0 = np.array([np.sqrt(params.n0), np.sqrt(N), 0.0], dtype=complex)
    # scipy.integrate takes longer to import than the rest of the package
    # together, and this is its only use.
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (0.0, ell_end),
        y0,
        t_eval=ells,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    a, b0, b2 = sol.y
    n = np.abs(a) ** 2
    n_elec0 = np.abs(b0) ** 2
    n_elec2 = np.abs(b2) ** 2
    tol = 1e-8 * N
    if np.max(n_elec0 + n_elec2) > N + tol:
        raise RuntimeError(
            f"electron-population constraint violated: max N0+N2 = {np.max(n_elec0 + n_elec2):.6e} vs N = {N}"
        )
    return Trace(x=ells, columns={"n": n, "A": n_elec0 + n_elec2, "B": 2.0 * n_elec0 + n})


def lmax_ratio(params: FelParams) -> float:
    """Logarithmic shorthand for L_max(second) / L_max(first): lmax_exact(params, 2) / ln(N/n0).

    ln(N/n0) = 2 ln sqrt(N/n0) stands in for the exact first-resonance length
    ``lmax_exact(params, 1)``, an elliptic integral, so the shorthand is only
    an order-of-magnitude guide whose accuracy is measured, not assumed.  It drops:

    * the ln 4 of K's logarithmic asymptote, K(k) = ln(4/k') + o(1) as
      k -> 1 (Abramowitz & Stegun 17.3.26), with k'^2 = (n0/N)/(1 + n0/N);
    * the sqrt(1 + n0/N) factor and the alpha^2 phase factor of the exact
      first-resonance length.

    Since the kept ln sqrt(N/n0) grows only logarithmically, approx/exact
    tends to 1 only logarithmically as n0/N -> 0 (at alpha = 0.01: 1.60 at
    n0/N = 1e-2, 1.15 at 1e-8).  Scales as 1/alpha.  ``lmax_exact`` checks
    the params; n0 >= N, where the logarithm vanishes or turns negative, is refused.
    """
    length = lmax_exact(params, 2)
    if not params.seed_ratio < 1.0:
        raise ValueError("the logarithmic form needs 0 < n0/N < 1")
    return float(length / (2.0 * np.log(np.sqrt(1.0 / params.seed_ratio))))


def _first_resonance_phase_factor(params: FelParams) -> float:
    """C = 1 - (alpha^2/8)(1 + 2 n0/N) of the first resonance, refused once it is <= 0."""
    return _positive_bracket(
        1.0 - (params.alpha**2 / 8.0) * (1.0 + 2.0 * params.seed_ratio),
        "first-resonance phase factor breaks down: alpha^2 (1 + 2 n0/N) >= 8",
    )


def lmax_exact(params: FelParams, resonance: int) -> float:
    """Exact first-maximum position (in gain lengths) of the analytic curves.

    resonance 1: 2 K(k) / (sqrt(1+n0/N) [1 - (alpha^2/8)(1 + 2 n0/N)]);
    resonance 2: pi / (alpha sqrt((n0/N)(n0/N + 2))).

    The first-resonance phase factor is perturbative in alpha; once
    alpha^2 (1 + 2 n0/N) >= 8 it stops being positive and the formula has
    left its domain of validity, which is rejected rather than returned as
    a negative length.
    """
    r = _seed_ratio(params)
    if not _is_integer(resonance) or resonance not in (1, 2):  # True and 2.0 compare equal to resonances
        raise ValueError(f"resonance must be 1 or 2, got {resonance}")
    if resonance == 1:
        k = (1.0 + r) ** -0.5
        corr = _first_resonance_phase_factor(params)
        return float(2.0 * elliptic_K(k) / (np.sqrt(1.0 + r) * corr))
    return float(np.pi / (params.alpha * np.sqrt(r * (r + 2.0))))
