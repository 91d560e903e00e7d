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
from functools import cache
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
#: rows into calls of at most this many: 384 x 256 doubles, 0.75 MiB, stay
#: resident.  The piece buffer of ``_eigh_blocks``' work mapping holds one
#: such chunk of a later piece's product.  A cap of 128 moves output bits.
_GEMM_ROWS = 256
#: Largest product, in multiply-adds, that the same target hands to its
#: small-matrix kernel, which sums the whole inner dimension in one run.
_GEMM_SMALL = 100**3
#: Largest z = half-width * dt of one Chebyshev step.  ``jv`` and the series
#: take ~z terms per step, so a longer step is refused, not run for hours.
_CHEBYSHEV_MAX_Z = 1e6

#: One block of amplitudes from a route: (samples, Re c, Im c, scratch), c of
#: shape (N+1, k) and scratch a flat float array of at least 3 (N+1) k elements,
#: apart from c, that the observable step may overwrite.
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


def jv(z):
    """J_0(z) ... J_K(z), the Bessel terms one Chebyshev step at z >= 0 keeps.

    K >= 1 (a step always applies T_0 and T_1) is the smallest index whose
    dropped tail 2 sum_{k>K} |J_k(z)| is <= 1e-16.  Miller's backward
    recurrence J_{k-1} = (2k/z) J_k - J_{k+1} (A&S 9.1.27, DLMF 3.6) runs down
    from J_{m+1} = 0, J_m = 1, at the first even m above M + 30 + 3 sqrt(M),
    M = int(z + 25 + 12 z^(1/3)) >= K; every value is scaled by 1e-250
    whenever one passes 1e250, and 1 = J_0 + 2 sum J_2k (A&S 9.1.46) sets the
    scale.  Below z = 1e-40, where one step's factor 2m/z could overflow past
    the rescaling, J_0 rounds to 1, J_1 = z/2 and every later term is below
    z^2.  The name stays a module global so the route's call is counted here.
    """
    z = float(z)
    if z < 1e-40:
        return np.array([1.0, z / 2.0])
    top = int(z + 25 + 12 * z ** (1.0 / 3.0))
    m = 2 * (int(top + 30 + 3 * np.sqrt(top)) // 2 + 1)
    values = [0.0, 1.0]  # J_{m+1}, J_m, then down to J_0
    for k in range(m, 0, -1):
        values.append(2.0 * k / z * values[-1] - values[-2])
        if abs(values[-1]) > 1e250:
            values = [value * 1e-250 for value in values]
    j = np.array(values[:0:-1])
    j /= j[0] + 2.0 * j[2::2].sum()
    tail = 2.0 * np.cumsum(np.abs(j[:0:-1]))[::-1]  # tail[k] = 2 sum_{i>k} |J_i|
    return j[: max(1, np.count_nonzero(tail > 1e-16)) + 1]


@cache
def _openblas():
    """The OpenBLAS that NumPy's wheel bundles (``numpy.libs/libscipy_openblas64_*``), opened once.

    ``import numpy`` has mapped it already, so opening it maps nothing new.
    It is the one place the package looks the library up; without it the
    eigh route cannot run, which is an ``OSError`` with a one-line message.
    """
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*")))
    if not found:
        raise OSError(f"the eigh route calls dstemr from NumPy's bundled OpenBLAS, and {libs} holds none")
    return ctypes.CDLL(found[0])


def eigh_tridiagonal(d, e):
    """Eigenvalues w and eigenvectors v of a real symmetric tridiagonal, from LAPACK ``dstemr``.

    It calls ``scipy_dstemr_64_`` (64-bit integers) in NumPy's bundled
    OpenBLAS with the work sizes and ``tryrac`` of
    ``scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")``, so w and
    v are SciPy's bit for bit while no SciPy module is loaded; d and e are
    copied, since ``dstemr`` overwrites them.  Returns (w, v, mapping): v is
    F-ordered over all 8 n^2 bytes of one private anonymous mapping, whose
    pages bypass the heap and go back to the OS once its last view goes.
    The name stays a module global so the route's call resolves (and can be
    counted) here.
    """
    import ctypes
    import mmap

    n = d.size
    if np.shape(e) != (n - 1,):  # dstemr reads n - 1 of them
        raise ValueError(f"e must hold n - 1 = {n - 1} couplings, got shape {np.shape(e)}")
    # 21 arguments, then the lengths of the two one-character ones, as gfortran passes them.
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 21, ctypes.c_size_t, ctypes.c_size_t)
    dstemr = prototype(("scipy_dstemr_64_", _openblas()))
    mapping = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)  # shared pages outlive MADV_DONTNEED
    v = np.frombuffer(mapping).reshape(n, n, order="F")
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


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """Output row ranges [lo, hi) of the eigenbasis GEMM calls: the fewest of at most ``_GEMM_ROWS`` rows.

    NumPy hands OpenBLAS the transposed product, so output rows are
    OpenBLAS's columns, which its kernel takes in groups that share no sums;
    cutting between groups moves no bit as long as no call goes to another
    kernel.  So the chunks start on multiples of 16 rows, whole groups: the
    ceil(n / 16) groups are dealt out as evenly as the count allows, the
    larger shares last.  The last chunk holds the one partial group, so no
    chunk is more than 16 rows shorter than another, nor short enough for
    the small-matrix kernel.
    """
    count = -(-n // _GEMM_ROWS)
    share, larger = divmod(-(-n // 16), count)
    edges = [16 * (share * i + max(0, i - count + larger)) for i in range(count)] + [n]
    return list(zip(edges[:-1], edges[1:]))


def _gemm_pieces(support: np.ndarray, n: int, width: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of an n-deep, ``width``-wide GEMM input around ``support``.

    OpenBLAS sums the inner dimension in whole ``_GEMM_PANEL`` panels until
    fewer than two remain, then halves the rest; ``split`` is where that tail
    starts.  Each panel is summed from zero and added to the output in order,
    so one piece per panel that holds support rows, added in panel order,
    gives the full product bit for bit.  A piece is trimmed to the panel's
    first and last support row.  The tail's two halves are added to the
    output one by one, so a support that reaches the tail keeps a single
    piece from its first panel's edge to n.  A piece small enough for the
    small-matrix kernel in the shortest of the ``_row_chunks`` calls would be
    summed in one run, so it is widened inside its panel, and if a whole
    panel is that small the product keeps every row.
    """
    split = _GEMM_PANEL * max(0, (n - _GEMM_PANEL) // _GEMM_PANEL)
    rows = min(hi - lo for lo, hi in _row_chunks(n))
    need = _GEMM_SMALL // (rows * width) + 1
    if need > _GEMM_PANEL:
        return [(0, n)]
    edges = support // _GEMM_PANEL * _GEMM_PANEL
    if support[-1] >= split:
        return [(min(int(edges[0]), split), n)]
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
    piece is written into ``out`` and each later one is added through the
    front of the flat ``buffer``, which holds one chunk.  Each piece's
    zero-padded input is built behind it, so ``buffer`` needs (longest
    chunk + longest piece) x width elements; no call allocates, and
    OpenBLAS packs one chunk of rows at a time.
    """
    n, width = out.shape
    chunks = _row_chunks(n)
    front = max(bottom - top for top, bottom in chunks) * width
    for i, (lo, hi) in enumerate(_gemm_pieces(support, n, width)):
        first, last = np.searchsorted(support, (lo, hi))
        b = buffer[front : front + (hi - lo) * width].reshape(hi - lo, width)
        b.fill(0.0)
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
    a block's k samples sit side by side in one real (K, 2k) input, so one
    GEMM streams the eigenvector matrix.  That GEMM is ``_support_product``:
    pieces cut around the support, one per BLAS K-panel that holds support
    rows, in calls of at most ``_GEMM_ROWS`` output rows, written into one
    C-ordered block.  The rows left out are exact zeros, so the sum equals
    the full product bit for bit on OpenBLAS's SkylakeX kernel, and on any
    other BLAS it is still exact up to summation order.  The result is
    handed out as 64-sample views of that block, the shapes the observable
    sums were recorded with; the next block overwrites them.

    Blocks hold 64 samples, and a last block of fewer than 16 joins the one
    before it, so a GEMM is 32-158 columns wide (narrower only in a call of
    fewer than 16 samples).  Below 192 columns (DGEMM_DEFAULT_P) the
    SkylakeX kernel's sums do not depend on its threads' row split.  From 12
    samples on, 112 * 2k * 384 > ``_GEMM_SMALL`` for row chunks of 112 rows
    or more, so ``_gemm_pieces`` keeps to the support's panels rather than
    the whole row range, and the columns outside them can be released.

    Once the support is known, the eigenvector columns left of the first
    GEMM piece and right of the last, for every block width, go back to the
    OS.  Every array sized by the support or the block is a view of a
    second anonymous mapping, in four regions sized for the widest block:
    the GEMM block, n x 2k; the piece buffer, one longest row chunk of a
    later piece's product and one longest piece's zero-padded input, each
    2k wide; the observable scratch, 3 n x 64; and the Re|Im input, K x 2k.
    Its Im half takes w ell, the Re half cos(w ell) u, and then the Im half
    sin(w ell) (-u) in place, all through ``out=``.  Both mappings are
    unmapped once the caller drops the last block, so no heap page of the
    call stays resident: with those arrays on the heap and 1024-row GEMM
    calls, six collective-scan sized calls grew resident size by
    4.2-5.0 MiB, against 1.3-1.9 MiB now.  Adding later pieces through a
    temporary in place of the buffer raised collective-scan's peak by
    0.25 MB, and plain observable expressions in place of the in-place
    scratch ran it 3 % slower.

    The sizes keep every output bit: a GEMM 512 columns wide, observable
    sums over 128 samples (which move validate's N = 10^4 traces) or over a
    whole 65-79-sample block, or a piece that moves a panel edge all change
    the roundoff of the outputs; trimming zero rows inside a panel, cutting
    the output rows, or 64- rather than 128-sample GEMM blocks does not.
    """
    import mmap

    n, edges = d.size, [0, *range(64, steps.size - 15, 64), steps.size]
    bounds = list(zip(edges, edges[1:]))
    widths = {2 * (stop - start) for start, stop in bounds}
    w, v, mapping = eigh_tridiagonal(d, a)
    support = np.flatnonzero(v[0])
    w, u = w[support], v[0, support]
    pieces = [p for width in widths for p in _gemm_pieces(support, n, width)]
    left = 8 * n * min(p[0] for p in pieces) // mmap.PAGESIZE * mmap.PAGESIZE
    right = -(-8 * n * max(p[1] for p in pieces) // mmap.PAGESIZE) * mmap.PAGESIZE
    mapping.madvise(mmap.MADV_DONTNEED, 0, left)
    if right < len(mapping):  # else the last piece reaches the mapping's last page
        mapping.madvise(mmap.MADV_DONTNEED, right)
    width = max(widths)
    depth = max(hi - lo for lo, hi in _row_chunks(n)) + max(hi - lo for lo, hi in pieces)
    sizes = [n * width, depth * width, 3 * n * min(64, steps.size), w.size * width]
    work = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes), flags=mmap.MAP_PRIVATE))
    out, buffer, scratch, values = np.split(work, np.cumsum(sizes)[:-1])
    for start, stop in bounds:
        k = stop - start
        parts = values[: w.size * 2 * k].reshape(-1, 2 * k)
        re, im = parts[:, :k], parts[:, k:]
        np.outer(w, steps[start:stop], out=im)
        np.multiply(np.cos(im, out=re), u[:, None], out=re)
        np.multiply(np.sin(im, out=im), -u[:, None], out=im)
        c = out[: n * 2 * k].reshape(n, 2 * k)
        _support_product(v, support, parts, c, buffer)
        for lo in range(0, k, 64):
            hi = min(lo + 64, k)
            yield slice(start + lo, start + hi), c[:, lo:hi], c[:, k + lo : k + hi], scratch


def _chebyshev_blocks(d: np.ndarray, a: np.ndarray, steps: np.ndarray) -> _Blocks:
    """Amplitudes from one Chebyshev series of exp(-i H dt), applied once per sample.

    The spectrum is mapped to [-1, 1] with the Gershgorin bounds, and each
    step keeps the terms ``jv(half-width * dt)`` returns: those whose dropped
    Bessel tail is <= 1e-16.  A step with half-width * dt above
    ``_CHEBYSHEV_MAX_Z`` is refused.
    """
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(a)
    radius[1:] += np.abs(a)
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    dt = steps[1] - steps[0]
    z = half * dt
    if not z <= _CHEBYSHEV_MAX_Z:
        raise ValueError(
            f"end = {steps[-1]:g} over samples = {steps.size} gives Chebyshev steps of"
            f" z = {z:.3g} > {_CHEBYSHEV_MAX_Z:g}; use more samples or a shorter end"
        )
    # Term k weighs exp(-i mid dt) (2 - delta_k0) (-i)^k J_k(z); (-i)^k is exact from its period.
    j = jv(z)
    weights = np.exp(-1j * mid * dt) * np.array([2.0, -2j, -2.0, 2j])[np.arange(j.size) % 4] * j
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


#: Order of the mean-field Taylor steps, and the tail each step leaves, relative to max |y|.
_TAYLOR_ORDER = 20
_TAYLOR_TAIL = 1e-16


def _mean_field_step(y: np.ndarray, alpha: float, N: int, room: float) -> tuple[np.ndarray, float]:
    """One Taylor step of the mean-field equations from y = (a, b0, b2): the new y and the step length.

    The field a' = -i (alpha/N) conj(a) b0 conj(b2), b0' = -i (alpha/2N) a^2 b2,
    b2' = -i (alpha/2N) conj(a)^2 b0 is cubic, so the coefficients of order
    k + 1 follow from Cauchy products of those up to order k, through
    q = a^2 and w = a b2 (Jorba & Zou, Exp. Math. 14, 99 (2005)).  The step
    is the shortest at which a term of one of the last two orders reaches
    ``_TAYLOR_TAIL`` max |y| (two orders, so that a series whose odd or even
    terms vanish is not overrun), and at most ``room``.
    """
    c = np.zeros((3, _TAYLOR_ORDER + 1), dtype=complex)
    q, w = np.zeros_like(c[:2])
    c[:, 0] = y
    a, b0, b2 = c
    g = alpha / N
    for k in range(_TAYLOR_ORDER):
        q[k] = a[: k + 1] @ a[k::-1]
        w[k] = a[: k + 1] @ b2[k::-1]
        a[k + 1] = -1j * g * (np.conj(w[: k + 1]) @ b0[k::-1]) / (k + 1)
        b0[k + 1] = -0.5j * g * (q[: k + 1] @ b2[k::-1]) / (k + 1)
        b2[k + 1] = -0.5j * g * (np.conj(q[: k + 1]) @ b0[k::-1]) / (k + 1)
    last = np.array([_TAYLOR_ORDER - 1, _TAYLOR_ORDER])
    with np.errstate(divide="ignore", over="ignore"):  # a vanishing coefficient sets no limit
        reach = (_TAYLOR_TAIL * np.max(np.abs(y)) / np.max(np.abs(c[:, last]), axis=0)) ** (1.0 / last)
    h = min(float(np.min(reach)), room)
    if not h > 0:
        raise RuntimeError(f"mean-field integration failed: no finite Taylor step from |y| = {np.abs(y)}")
    return c @ h ** np.arange(_TAYLOR_ORDER + 1), h


def integrate_semiclassical(
    params: FelParams, ell_end: float, sample_count: int = 801
) -> Trace:
    """Mean-field amplitude dynamics of the second resonance.

    Integrates the three coupled mode amplitudes (field a, unexcited
    electrons b0, recoiled electrons b2) from a = sqrt(n0), b0 = sqrt(N),
    b2 = 0, by Taylor steps that end on every sample.  Two combinations are
    conserved exactly by the dynamics and recorded so integrator drift can be
    audited: A = |b0|^2 + |b2|^2 (= N) and B = 2|b0|^2 + n (= 2N + n0).  Aborts
    if the sum of the two electron populations exceeds N beyond tolerance.

    Returns a Trace over ell with columns ``n``, ``A``, ``B``.
    """
    _seed_ratio(params)
    if params.nu != 2:
        raise ValueError("the mean-field route models the second resonance (nu = 2)")
    ells = sample_axis(ell_end, sample_count)
    N = params.N
    y = np.array([np.sqrt(params.n0), np.sqrt(N), 0.0], dtype=complex)
    amplitudes = np.empty((3, ells.size), dtype=complex)
    amplitudes[:, 0] = y
    for i in range(1, ells.size):
        room = ells[i] - ells[i - 1]
        while room > 0:
            y, h = _mean_field_step(y, params.alpha, N, room)
            room -= h
        amplitudes[:, i] = y
    a, b0, b2 = amplitudes
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
