"""Collective emission: tridiagonal dynamics, closed forms, length formulas."""

import ctypes
import inspect
import mmap
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import detuned_n_first, expm_populations
from qfel import highgain
from qfel.core import FelParams, first_maximum
from qfel.highgain import (
    VARIANTS,
    HighGainModel,
    analytic_n_first,
    analytic_n_second,
    build_dicke_tridiagonal,
    integrate_semiclassical,
    lmax_exact,
    lmax_ratio,
    propagate_dicke,
    short_time_n_second,
)
from recorded import run_python


def _params(nu, alpha=0.25, n0=100.0, N=1000, **kw):
    return FelParams(alpha=alpha, nu=nu, n0=n0, N=N, context="high", **kw)


def _on_route(model, span, samples, route, keep_levels=False):
    """``propagate_dicke``'s body on the named route, "eigh" or "chebyshev", whatever N is."""
    return highgain._propagate_dicke(model, span, samples, getattr(highgain, f"_{route}_blocks"), keep_levels)


def _assert_eigh_matches_chebyshev(model, span, samples):
    """Both routes agree per level to 1e-9, and on n/norm/energy to 1e-10 of scale."""
    t1 = _on_route(model, span, samples, "eigh", keep_levels=True)
    t2 = _on_route(model, span, samples, "chebyshev", keep_levels=True)
    assert np.max(np.abs(t1.levels - t2.levels)) < 1e-9, samples
    for name in ("n", "norm", "energy"):
        ref = t1.column(name)
        scale = max(1.0, np.max(np.abs(ref))) if name == "energy" else np.max(np.abs(ref))
        assert np.max(np.abs(t2.column(name) - ref)) <= 1e-10 * scale, (samples, name)


class TestModelValidation:
    def test_requires_high_context(self):
        low = FelParams(alpha=0.25, nu=1, context="low")
        with pytest.raises(ValueError, match="context"):
            HighGainModel(params=low, variant="third_order")

    def test_supported_resonances_and_variants(self):
        assert VARIANTS == {1: ("first_order", "third_order"), 2: ("dicke_only", "full_second_order")}
        with pytest.raises(ValueError, match="nu"):
            HighGainModel(params=_params(3), variant="third_order")
        with pytest.raises(ValueError, match="variants"):
            HighGainModel(params=_params(1), variant="dicke_only")
        with pytest.raises(ValueError, match="variants"):
            HighGainModel(params=_params(2), variant="third_order")


class TestCoefficients:
    @staticmethod
    def _bands(model):
        """Couplings a(1..N) and level shifts d(0..N) of the built tridiagonal."""
        op = build_dicke_tridiagonal(model)
        return op.bands[1], op.bands[0]

    def test_second_resonance_coupling_formula(self):
        alpha, n0, N = 0.3, 2.0, 8
        model = HighGainModel(params=_params(2, alpha=alpha, n0=n0, N=N), variant="full_second_order")
        off, _ = self._bands(model)
        for mu in (1, 2, 5, 8):
            expected = (
                0.5
                * alpha
                * np.sqrt((n0 + 2 * mu - 1) * (n0 + 2 * mu))
                * np.sqrt(mu / N)
                * np.sqrt(1.0 - (mu - 1) / N)
            )
            assert off[mu - 1] == pytest.approx(expected, rel=1e-15), f"mu={mu}"

    def test_second_resonance_level_shifts(self):
        model = HighGainModel(params=_params(2, alpha=0.3, n0=2.0, N=8), variant="full_second_order")
        _, diag = self._bands(model)
        # d(mu) = alpha [ (2/3) mu (1 - 1/N) + n0/3 + 1/2 ], frozen by hand.
        assert diag[0] == pytest.approx(0.35)
        assert diag[2] == pytest.approx(0.70)

    def test_pair_coupling_variant_has_no_shifts_but_same_coupling(self):
        full = HighGainModel(params=_params(2, alpha=0.3, n0=2.0, N=8), variant="full_second_order")
        pair = HighGainModel(params=_params(2, alpha=0.3, n0=2.0, N=8), variant="dicke_only")
        off_full, d_full = self._bands(full)
        off_pair, d_pair = self._bands(pair)
        assert np.array_equal(off_pair, off_full)
        assert np.all(d_pair == 0.0)
        assert np.all(d_full[1:] != 0.0)

    def test_first_resonance_coupling_formula(self):
        alpha, n0, N = 0.4, 2.0, 8
        third = HighGainModel(params=_params(1, alpha=alpha, n0=n0, N=N), variant="third_order")
        first = HighGainModel(params=_params(1, alpha=alpha, n0=n0, N=N), variant="first_order")
        off_third, d_third = self._bands(third)
        off_first, d_first = self._bands(first)
        bracket = 1.0 - (alpha**2 / 8.0) * (1.0 + 2.0 * (n0 + 1.0) / N)
        for mu in (1, 3, 8):
            bare = 0.5 * np.sqrt(mu * (n0 + mu)) * np.sqrt(1.0 - (mu - 1) / N)
            assert off_first[mu - 1] == pytest.approx(bare, rel=1e-15)
            assert off_third[mu - 1] == pytest.approx(bracket * bare, rel=1e-15)
        # d(mu) = -(alpha/4) (n0 + mu (1 + 1/N)), frozen by hand at two points.
        assert d_third[0] == pytest.approx(-0.2)
        assert d_third[2] == pytest.approx(-0.425)
        assert d_first[2] == 0.0

    def test_boundary_couplings_vanish(self):
        # a(0) = a(N+1) = 0 close the recursion: only levels 0..N are coupled.
        model = HighGainModel(params=_params(2, N=8), variant="full_second_order")
        op = build_dicke_tridiagonal(model)
        assert op.size == 9
        assert op.bands[1].shape == (8,)
        assert np.all(op.bands[1] > 0.0)
        h = op.dense()
        assert np.count_nonzero(h[0]) == 2 and np.count_nonzero(h[-1]) == 2

    def test_tridiagonal_build_matches_coefficients(self):
        model = HighGainModel(params=_params(2, N=8), variant="full_second_order")
        op = build_dicke_tridiagonal(model)
        assert sorted(op.bands) == [0, 1]
        off, diag = self._bands(model)
        expected = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert np.array_equal(op.dense(), expected)


class TestEigensolver:
    @pytest.mark.parametrize(
        "case",
        [(nu, variant, N) for N in (200, 1) for nu in VARIANTS for variant in VARIANTS[nu]] + ["graded"],
    )
    def test_matches_scipy_stemr_bit_for_bit_and_keeps_its_inputs(self, case):
        from scipy.linalg import eigh_tridiagonal

        if case == "graded":  # dstemr's eigenvalues on this matrix move with its tryrac flag
            rng = np.random.default_rng(1)
            d = np.exp(rng.uniform(-10.0, 10.0, 300))
            e = 1e-3 * np.sqrt(d[:-1] * d[1:]) * rng.standard_normal(299)
        else:
            nu, variant, N = case
            bands = build_dicke_tridiagonal(HighGainModel(params=_params(nu, n0=20.0, N=N), variant=variant)).bands
            d, e = bands[0], bands[1]
        d_in, e_in = d.copy(), e.copy()
        w, v, mapping = highgain.eigh_tridiagonal(d, e)
        w_ref, v_ref = eigh_tridiagonal(d, e, lapack_driver="stemr")
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        assert v.flags.f_contiguous
        assert len(mapping) == v.nbytes and np.shares_memory(v, np.frombuffer(mapping))
        assert np.array_equal(d, d_in) and np.array_equal(e, e_in)

    def test_couplings_must_number_one_less_than_the_levels(self):
        # dstemr would read past the end of a shorter band.
        with pytest.raises(ValueError, match=r"e must hold n - 1 = 9 couplings, got shape \(8,\)"):
            highgain.eigh_tridiagonal(np.zeros(10), np.ones(8))


def _openblas_core():
    """Core name of the OpenBLAS that the eigh route calls (e.g. "SkylakeX")."""
    corename = ctypes.CFUNCTYPE(ctypes.c_char_p)(("scipy_openblas_get_corename64_", highgain._openblas()))
    return corename().decode()


class TestPanelRange:
    # OpenBLAS's SkylakeX GEMM sums 384-row K-panels; at n = 2001 whole
    # panels end at split = 1536 and the 465-row tail is halved.
    # ``_gemm_pieces`` cuts the GEMM into one piece per panel that holds
    # support rows, and ``_row_chunks`` cuts each piece's output rows into
    # calls of at most 1024; at n = 2001 they are 1008 and 993 rows.
    PANEL = highgain._GEMM_PANEL

    @staticmethod
    def _split(n):
        return highgain._GEMM_PANEL * max(0, (n - highgain._GEMM_PANEL) // highgain._GEMM_PANEL)

    def _assert_covers(self, pieces, support, n, width):
        """Every support row in a piece; pieces ordered, apart, off the small kernel in every row chunk.

        Each piece lies inside one panel below the split, or is the only
        piece and runs from a panel edge to n, keeping the tail whole.
        """
        covered = np.zeros(n, bool)
        for lo, hi in pieces:
            edge = lo // self.PANEL * self.PANEL
            assert hi <= edge + self.PANEL <= self._split(n) or (pieces == [(lo, n)] and lo == edge)
            assert not covered[lo:hi].any()
            covered[lo:hi] = True
        assert covered[support].all()
        assert [lo for lo, _ in pieces] == sorted(lo for lo, _ in pieces)
        rows = min(bottom - top for top, bottom in highgain._row_chunks(n))
        if rows * width * n > highgain._GEMM_SMALL:
            assert all(rows * width * (hi - lo) > highgain._GEMM_SMALL for lo, hi in pieces)

    @pytest.mark.parametrize("n", [2, 1024, 1025, 2001, 2048, 3001, 10001, 11585])
    def test_rows_go_in_the_fewest_near_equal_chunks(self, n):
        # 1025 rows go in 528 + 497, not 1024 + 1: a one-row call would reach
        # the small-matrix kernel.
        chunks = highgain._row_chunks(n)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        assert all(lo % 16 == 0 and hi - lo <= highgain._GEMM_ROWS for lo, hi in chunks)
        assert len(chunks) == -(-n // highgain._GEMM_ROWS)
        assert min(hi - lo for lo, hi in chunks) >= min(n, highgain._GEMM_ROWS // 2 - 16)

    def test_short_ladder_keeps_the_whole_range(self):
        for n in (100, 2 * self.PANEL - 1):
            assert highgain._gemm_pieces(np.arange(40, 60), n, 256) == [(0, n)]

    def test_support_reaching_the_split_tail_keeps_rows_to_the_end(self):
        # The tail's halves are added one by one, so one piece runs from the
        # first support panel's edge to n.
        assert highgain._gemm_pieces(np.arange(1400, 1600), 2001, 256) == [(1152, 2001)]
        assert highgain._gemm_pieces(np.array([10, 1000, 2000]), 2001, 256) == [(0, 2001)]

    def test_first_never_passes_the_split(self):
        assert highgain._gemm_pieces(np.arange(1950, 2001), 2001, 256) == [(1536, 2001)]

    @pytest.mark.parametrize("lo, hi", [(385, 386), (500, 900), (768, 1152), (1000, 1500)])
    def test_mid_ladder_support_is_cut_on_panel_edges(self, lo, hi):
        support = np.arange(lo, hi)
        pieces = highgain._gemm_pieces(support, 3001, 256)
        self._assert_covers(pieces, support, 3001, 256)
        assert pieces[-1][1] <= self._split(3001)
        assert sum(last - first for first, last in pieces) < 3001

    def test_pieces_are_trimmed_to_the_support_inside_each_panel(self):
        # N = 2000 third_order: the seed's support, rows 995-1295, straddles
        # the panel edge at 1152.
        support = np.arange(995, 1296)
        assert highgain._gemm_pieces(support, 2001, 256) == [(995, 1152), (1152, 1296)]
        assert highgain._gemm_pieces(support, 2001, 248) == [(995, 1152), (1152, 1296)]

    def test_a_small_kernel_product_keeps_the_whole_range(self):
        # 1300 rows go in calls of 656 and 644 rows, and 644 x 4 x 384
        # multiply-adds would go to the small-matrix kernel.
        support = np.arange(400, 700)
        assert highgain._gemm_pieces(support, 1300, 4) == [(0, 1300)]
        assert highgain._gemm_pieces(support, 1300, 8) == [(400, 700)]

    def test_a_small_piece_is_widened_inside_its_panel(self):
        # One support row per panel: 993 x 256 x 3, the shorter call at
        # n = 2001, is small-kernel sized.
        pieces = highgain._gemm_pieces(np.array([500, 1000]), 2001, 256)
        assert pieces == [(500, 504), (1000, 1004)]
        pieces = highgain._gemm_pieces(np.array([767]), 2001, 88)
        assert pieces == [(756, 768)]
        self._assert_covers(pieces, np.array([767]), 2001, 88)

    @pytest.mark.skipif(_openblas_core() != "SkylakeX", reason="the panel model is OpenBLAS's SkylakeX DGEMM")
    def test_piece_sum_equals_the_full_product_bit_for_bit(self):
        # The route's row-chunked product of the pieces against v @ b with b
        # zero off the support.  Supports are contiguous or gapped windows;
        # at n = 1001 one reaches the tail as N = 1000 first_order's 219 rows
        # over 0-1000 do, and n = 1025 ends in a 497-row call.
        rng = np.random.default_rng(13)
        for n in (700, 1001, 1025, 1645, 2212, 3001):
            v = np.asfortranarray(rng.standard_normal((n, n)))
            for trial in range(6):
                # The route's GEMM widths: at most 192 columns, or a multiple of 8.
                width = int(rng.integers(2, 257))
                width -= width % 8 if width > 192 else 0
                lo = int(rng.integers(0, n - 2))
                hi = int(rng.integers(lo + 2, min(n, lo + 900) + 1))
                window = np.arange(lo, hi)
                support = window if trial % 2 else np.sort(rng.choice(window, (hi - lo) // 3 + 1, replace=False))
                b = np.zeros((n, width))
                b[support] = rng.standard_normal((support.size, width))
                pieces = highgain._gemm_pieces(support, n, width)
                self._assert_covers(pieces, support, n, width)
                c, buffer = np.empty((n, width)), np.empty(n * width)
                highgain._support_product(v, support, b[support], c, buffer)
                assert np.array_equal(c, v @ b), (n, width, pieces)


_PROBE_HEAD = """
import os
import sys
import numpy as np
from qfel import FelParams, HighGainModel, propagate_dicke

def resident_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

def run(N, nu=2, variant="dicke_only", span=45.0, samples=2001, alpha=0.25):
    params = FelParams(alpha=alpha, nu=nu, n0=N / 10, N=N, context="high")
    return propagate_dicke(HighGainModel(params=params, variant=variant), span, samples)
"""

_RELEASE_PROBE = """
run(1000)
before = resident_mib()
run(2000)
run(2000)
print(resident_mib() - before)
"""

_PACK_PROBE = """
warm, samples = map(int, sys.argv[1:])
run(warm, 1, "third_order", 7.0, samples)
before = resident_mib()
run(4000, 1, "third_order", 7.0, samples)
print(resident_mib() - before)
"""

_THREADS_PROBE = """
columns = {}
for N, nu, variant, alpha, span, samples in [
    (2000, 1, "third_order", 0.5, 7.0, 501),
    (1500, 1, "first_order", 0.5, 7.0, 255),
    (2000, 2, "dicke_only", 0.25, 45.0, 117),
    (2000, 1, "third_order", 0.5, 7.0, 484),
]:
    trace = run(N, nu, variant, span, samples, alpha)
    columns.update({f"{variant} N={N} samples={samples} {c}": trace.column(c) for c in ("n", "norm", "energy")})
np.savez(sys.argv[1], **columns)
"""


def _probe(probe, *args, **env):
    """What ``probe`` prints, run with ``args`` in a fresh interpreter after ``_PROBE_HEAD``, ``env`` added."""
    proc = run_python(["-c", _PROBE_HEAD + probe, *args], timeout=300, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestWorkTail:
    # ``_eigh_blocks`` keeps its work arrays in a mapping of their own, apart
    # from the eigenvectors', and releases the columns no GEMM piece reads.

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="resident size is read from /proc/self/statm")
    def test_eigenvector_pages_go_back_to_the_os_when_the_call_returns(self):
        # Two N = 2000 calls, 32 MB of eigenvectors each, after a warm-up.
        # Through the C heap the freed matrix stayed resident (+32.9 MiB).
        assert float(_probe(_RELEASE_PROBE)) <= 8.0

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="resident size is read from /proc/self/statm")
    def test_gemm_packing_stays_resident_for_one_row_chunk_only(self):
        # OpenBLAS packs each GEMM call's output rows, a panel deep, into a
        # buffer it keeps.  N = 4000 third_order's support spans whole panels:
        # one product over all 4001 rows grew resident size by 13.0 MiB, about
        # 384 x 4001 doubles; in row chunks the packing is 384 x 1024 doubles,
        # 3 MiB.  The 2 MiB of slack is for the heap arrays the call frees
        # (phases, piece inputs), which the C allocator may keep (1.3 MiB seen).
        bound = (384 * 1024 * 8 + 2 * 2**20) / 2**20
        assert float(_probe(_PACK_PROBE, "50", "256")) <= bound
        # 501 samples end in blocks of 96 and 21 samples; one 117-sample
        # block, 234 columns wide, in one call over all rows grows it by
        # 12-14 MiB.  The warm-up runs the same blocks at N = 200, so
        # OpenBLAS's buffers for the 192- and 42-column products are in place:
        # after the 256-sample warm-up they added 1.1 MiB with two threads,
        # 0.3 MiB with one.
        assert float(_probe(_PACK_PROBE, "200", "501")) <= bound

    def test_released_columns_give_their_memory_back(self):
        # MADV_DONTNEED frees the pages of a private mapping, which then read
        # as zeros; a shared mapping would keep them, and their memory, until
        # it is unmapped, while resident size no longer counted them.
        model = HighGainModel(params=_params(2, n0=20.0, N=200), variant="dicke_only")
        bands = build_dicke_tridiagonal(model).bands
        _, v, mapping = highgain.eigh_tridiagonal(bands[0], bands[1])
        column = v[:, 0].copy()
        mapping.madvise(mmap.MADV_DONTNEED, 0, mmap.PAGESIZE)
        assert column.any() and not v[:, 0].any()

    @pytest.mark.parametrize("k", [64, 17, 81])
    def test_in_place_observables_equal_the_plain_expressions_bit_for_bit(self, k):
        # k = 17 and 81 are the last GEMM blocks of 401 and 2001 samples; the
        # views have the block's row stride 2k.  The scratch starts an odd
        # number of doubles into its buffer, off the page that starts it in its
        # mapping, so its alignment is shown not to move the sums.
        rng = np.random.default_rng(k)
        n, n0, s = 1001, 100.0, 2
        c = rng.standard_normal((n, 2 * k)) / np.sqrt(n)
        a, d = rng.standard_normal(n - 1), rng.standard_normal(n)
        mus = np.arange(n, dtype=float)
        host = np.zeros((n, 1 + 3 * 64), order="F")
        scratch = host[:, 1:].ravel(order="F")
        assert np.shares_memory(scratch, host)
        for lo in range(0, k, 64):
            cr, ci = c[:, lo : min(lo + 64, k)], c[:, k + lo : k + min(lo + 64, k)]
            probs = cr**2 + ci**2
            norm = probs.sum(axis=0)
            expected = {
                "n": n0 * norm + s * (mus[:, None] * probs).sum(axis=0),
                "norm": norm,
                "energy": probs.T @ d + 2.0 * (cr[:-1] * cr[1:] + ci[:-1] * ci[1:]).T @ a,
                "P": probs,
            }
            got = dict(zip(expected, highgain._block_observables(cr, ci, scratch, mus, a, d, n0, s)))
            for name, ref in expected.items():
                assert got[name].tobytes() == ref.tobytes(), (k, lo, name)


class TestPropagation:
    @pytest.mark.parametrize("route", ["eigh", "chebyshev"])
    def test_seed_row_is_exact(self, route):
        model = HighGainModel(params=_params(2, n0=7.0, N=30), variant="full_second_order")
        trace = _on_route(model, 10.0, 21, route)
        d = build_dicke_tridiagonal(model).bands[0]
        assert trace.column("n")[0] == 7.0
        assert trace.column("norm")[0] == 1.0
        assert trace.column("energy")[0] == d[0]

    @pytest.mark.parametrize(
        "nu, variant",
        [(1, "first_order"), (1, "third_order"), (2, "dicke_only"), (2, "full_second_order")],
    )
    def test_eigh_and_chebyshev_agree_per_level(self, nu, variant):
        model = HighGainModel(params=_params(nu, alpha=0.4, n0=3.0, N=24), variant=variant)
        # 130 samples cross the eigh route's 64-sample views twice and its
        # 128-sample GEMM blocks once.
        for samples in (7, 130):
            _assert_eigh_matches_chebyshev(model, 15.0, samples)

    @pytest.mark.parametrize(
        "nu, alpha, span, variant",
        [(1, 0.5, 7.0, "first_order"), (1, 0.5, 7.0, "third_order"),
         (2, 0.25, 45.0, "dicke_only"), (2, 0.25, 45.0, "full_second_order")],
    )
    def test_eigh_skips_zero_seed_weights(self, nu, alpha, span, variant):
        model = HighGainModel(params=_params(nu, alpha=alpha, n0=20.0, N=200), variant=variant)
        # The eigh route computes phases only where the seed weight v[0, j] is
        # nonzero; at N = 200 stemr returns exact zeros, so that path runs.
        bands = build_dicke_tridiagonal(model).bands
        _, v, _ = highgain.eigh_tridiagonal(bands[0], bands[1])
        assert np.any(v[0] == 0.0)
        # 300 samples: two 128-sample GEMM blocks, a 44-sample tail, 64-sample views.
        _assert_eigh_matches_chebyshev(model, span, 300)

    def test_eigh_cut_to_the_support_panels_matches_the_full_product(self):
        # At N = 2000 the seed's support keeps a few hundred of 2001 rows, in
        # one panel for dicke_only; the third_order support straddles the
        # panel edge at 1152.
        cases = [
            (2, "dicke_only", 0.25, 45.0, (931, 1070), [(931, 1070)]),
            (1, "third_order", 0.5, 7.0, (995, 1296), [(995, 1152), (1152, 1296)]),
        ]
        for nu, variant, alpha, span, rows, pieces in cases:
            model = HighGainModel(params=_params(nu, alpha=alpha, n0=200.0, N=2000), variant=variant)
            bands = build_dicke_tridiagonal(model).bands
            d, a = bands[0], bands[1]
            w, v, _ = highgain.eigh_tridiagonal(d, a)
            support = np.flatnonzero(v[0])
            assert (support[0], support[-1] + 1) == rows
            assert highgain._gemm_pieces(support, v.shape[0], 256) == pieces
            # 300 samples: two 128-sample GEMM blocks and a 44-sample tail.
            trace = _on_route(model, span, 300, "eigh")
            ells = np.linspace(0.0, span, 300)
            c = v @ (np.exp(-1j * np.outer(w, ells)) * v[0][:, None])
            probs = np.abs(c) ** 2
            norm = probs.sum(axis=0)
            expected = {
                "n": model.params.n0 * norm + model.params.nu * (np.arange(v.shape[0])[:, None] * probs).sum(axis=0),
                "norm": norm,
                "energy": probs.T @ d + 2.0 * (c[:-1].conj() * c[1:]).real.T @ a,
            }
            for name, ref in expected.items():
                scale = max(1.0, np.max(np.abs(ref))) if name == "energy" else np.max(np.abs(ref))
                assert np.max(np.abs(trace.column(name) - ref)) <= 1e-12 * scale, name
            _assert_eigh_matches_chebyshev(model, 2.0, 5)

    @pytest.mark.skipif(
        _openblas_core() != "SkylakeX", reason="the Haswell kernel orders every GEMM's sums by its thread split"
    )
    def test_eigh_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The SkylakeX kernel sums the edge columns of a GEMM wider than 192
        # columns and off a multiple of 8 in an order set by its threads' row
        # split, so the last blocks of 501, 255 and 117 samples (234, 254 and
        # 234 columns) are split.  484 samples end in a 100-sample block, 200
        # columns, which stays whole.  A one-core host runs both with one thread.
        runs = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.npz"
            _probe(_THREADS_PROBE, str(path), OPENBLAS_NUM_THREADS=threads)
            runs.append(np.load(path))
        assert len(runs[0].files) == 12
        for name in runs[0].files:
            assert np.array_equal(runs[0][name], runs[1][name]), name

    def test_eigensolver_failure_is_a_runtime_error(self):
        # An infinite coupling, which ``_propagate_dicke`` refuses before the
        # solve, makes dstemr report a nonzero info.
        e = np.ones(9)
        e[3] = np.inf
        with pytest.raises(RuntimeError, match="tridiagonal eigensolver failed: stemr info = "):
            highgain.eigh_tridiagonal(np.zeros(10), e)

    @pytest.mark.parametrize("route", ["eigh", "chebyshev"])
    def test_couplings_outside_floating_point_range_are_refused(self, route):
        # (n0 + 2 mu)^2 overflows, so a(mu) is inf.  Unchecked, SciPy's
        # eigensolver refused the band with its own message, the Chebyshev
        # degree failed to convert inf to an integer, and dstemr on a NaN
        # band does not return.
        model = HighGainModel(params=_params(2, n0=1e160, N=10), variant="dicke_only")
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"n0 = 1e\+160 and N = 10 put"):
            _on_route(model, 1.0, 3, route)

    def test_chebyshev_series_is_set_up_once_per_call(self, monkeypatch):
        # The samples are equally spaced, so one set of Bessel coefficients serves every step.
        calls = []
        original = highgain.jv

        def counting_jv(order, z):
            calls.append(z)
            return original(order, z)

        monkeypatch.setattr(highgain, "jv", counting_jv)
        model = HighGainModel(params=_params(1, n0=4.0, N=16), variant="third_order")
        _on_route(model, 6.0, 7, "chebyshev")
        assert len(calls) == 1

    def test_matches_dense_expm_oracle(self):
        model = HighGainModel(params=_params(1, alpha=0.5, n0=2.0, N=12), variant="third_order")
        op = build_dicke_tridiagonal(model)
        psi0 = np.zeros(13, dtype=complex)
        psi0[0] = 1.0
        ells = np.linspace(0.0, 9.0, 4)
        reference = expm_populations(op, psi0, ells)
        trace = _on_route(model, 9.0, 4, "eigh", keep_levels=True)
        assert trace.levels.T == pytest.approx(reference, abs=1e-10)

    def test_norm_conserved_over_figure_length_run(self):
        model = HighGainModel(params=_params(2, n0=10.0, N=100), variant="full_second_order")
        trace = propagate_dicke(model, 40.0, 401)
        assert np.max(np.abs(trace.column("norm") - 1.0)) < 1e-12
        energy = trace.column("energy")
        assert np.max(np.abs(energy - energy[0])) < 1e-10

    def test_kept_probabilities_are_consistent(self):
        model = HighGainModel(params=_params(1, n0=4.0, N=16), variant="third_order")
        trace = _on_route(model, 6.0, 11, "eigh", keep_levels=True)
        probs = trace.levels
        assert np.allclose(probs.sum(axis=0), trace.column("norm"), atol=1e-12)
        # The reported photon number is the state's photon expectation.
        photons = 4.0 + np.arange(17)  # n0 + mu photons on level mu
        for i in (3, 10):
            assert np.sum(probs[:, i] * photons) == pytest.approx(trace.column("n")[i], rel=1e-12)

    def test_two_electron_limit_is_exact_two_level_dynamics(self):
        # N = 1 collapses the collective basis to two states, solvable by hand.
        alpha, n0 = 0.3, 5.0
        for variant in ("first_order", "third_order"):
            model = HighGainModel(params=_params(1, alpha=alpha, n0=n0, N=1), variant=variant)
            op = build_dicke_tridiagonal(model)
            a, (d0, d1) = op.bands[1][0], op.bands[0]
            delta = 0.5 * (d1 - d0)
            omega = np.sqrt(a**2 + delta**2)
            ells = np.linspace(0.0, 12.0, 97)
            trace = propagate_dicke(model, 12.0, 97)
            expected = n0 + (a**2 / omega**2) * np.sin(omega * ells) ** 2
            assert np.max(np.abs(trace.column("n") - expected)) < 1e-12

    def test_rejections(self):
        model = HighGainModel(params=_params(2), variant="dicke_only")
        with pytest.raises(ValueError):
            propagate_dicke(model, 0.0)

    def test_auto_takes_eigh_only_while_its_eigenvectors_fit_the_byte_budget(self, monkeypatch):
        # Both routes yield no blocks, so only the choice runs: (N+1)^2 doubles
        # fit in 2^30 bytes up to N = 11584.
        chosen = []

        def recording(name):
            def blocks(d, a, steps):
                chosen.append((d.size - 1, name))
                yield from ()

            return blocks

        for name in ("eigh", "chebyshev"):
            monkeypatch.setattr(highgain, f"_{name}_blocks", recording(name))
        for N in (10_000, 11_584, 11_585, 20_000, 100_000):
            propagate_dicke(HighGainModel(params=_params(1, N=N), variant="third_order"), 1.0, 2)
        assert chosen == [
            (10_000, "eigh"), (11_584, "eigh"), (11_585, "chebyshev"), (20_000, "chebyshev"), (100_000, "chebyshev"),
        ]

    def test_no_call_can_pick_the_route(self):
        # The byte budget is the only way to eigh, so no call asks stemr for more.
        assert list(inspect.signature(propagate_dicke).parameters) == ["model", "ell_end", "sample_count"]


class TestRouteEquivalence:
    # Every route of ``propagate_dicke`` against the dense expm oracle, over
    # N in [1, 48], both resonances, all four variants, alpha in [1e-3, 3]
    # and n0 in {0} + [1e-3, 1e6] (both drawn evenly in log10, so every
    # decade is reached) and spans from 1e-9 up to 300.  The span is capped so
    # that the Gershgorin half-width times the span stays below 2e3, since
    # the Chebyshev degree grows with that product.
    #
    # Tolerance, with n = N + 1 levels, u the machine epsilon and
    # kappa = ||H|| * span (||H|| bounded by Gershgorin): each computed
    # amplitude vector is modelled as off by at most n u (n + kappa).
    #   * expm (scaling and squaring) is exp(-i (H + E) ell) with
    #     ||E|| <= n u ||H||, which moves psi by <= n u kappa, plus roundoff
    #     of order n u from the squarings.
    #   * eigh: the eigenvalues are off by <= n u ||H||, which moves each
    #     phase by <= n u kappa; the eigenvectors are orthogonal to n u per
    #     pair, so V V^T is the identity to n^2 u.
    #   * chebyshev: the Bessel tail is below u by the choice of degree, and
    #     the recurrence's roundoff grows with the number of terms, which is
    #     the half-width times the span plus a few dozen per sample.
    # Route and oracle both err, and sum_mu |dP| <= 2 ||d psi|| by
    # Cauchy-Schwarz, so tol_P = 4 n u (n + kappa) per level and for the sum.
    # n = n0 sum P + s sum mu P then moves by at most (n0 + s N) tol_P.  The
    # constants are a model, not a proof: over 2100 random draws and an edge
    # grid (N, alpha and n0 at their ends) the worst deviation was 0.31 of
    # tol_P.  tol_P never rises above the 1e-8 gate.
    PAIRS = [(nu, variant) for nu, variants in VARIANTS.items() for variant in variants]

    @pytest.mark.filterwarnings("ignore:alpha")
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        pair=st.sampled_from(PAIRS),
        N=st.integers(1, 48),
        alpha=st.floats(-3.0, np.log10(3.0)).map(lambda e: 10.0**e),
        n0=st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0**e)),
        reach=st.floats(0.0, 1.0),
        samples=st.integers(2, 5),
    )
    def test_every_route_matches_dense_expm(self, pair, N, alpha, n0, reach, samples):
        nu, variant = pair
        model = HighGainModel(params=_params(nu, alpha=alpha, n0=n0, N=N), variant=variant)
        op = build_dicke_tridiagonal(model)
        d, a = op.bands[0], op.bands[1]
        radius = np.zeros_like(d)
        radius[:-1] += np.abs(a)
        radius[1:] += np.abs(a)
        lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
        half = 0.5 * (hi - lo)
        top = min(300.0, 2e3 / half) if half > 0 else 300.0
        span = 1e-9 * (top / 1e-9) ** reach
        tol = min(1e-8, 4 * (N + 1) * np.finfo(float).eps * (N + 1 + max(abs(lo), abs(hi)) * span))

        psi0 = np.zeros(N + 1, dtype=complex)
        psi0[0] = 1.0
        reference = expm_populations(op, psi0, np.linspace(0.0, span, samples)).T
        s = model.params.nu
        n_reference = n0 * reference.sum(axis=0) + s * (np.arange(N + 1)[:, None] * reference).sum(axis=0)
        for route in ("eigh", "chebyshev"):
            trace = _on_route(model, span, samples, route, keep_levels=True)
            assert np.max(np.abs(trace.levels - reference)) <= tol, route
            assert np.max(np.abs(trace.column("n") - n_reference)) <= (n0 + s * N) * tol, route


class TestClosedForms:
    def test_first_resonance_curve_shape(self):
        p = _params(1, alpha=0.5, n0=1000.0, N=10_000)
        assert analytic_n_first(0.0, p) == pytest.approx(p.n0, abs=1e-9 * p.n0)
        peak_pos = lmax_exact(p, 1)
        assert analytic_n_first(peak_pos, p) == pytest.approx(p.n0 + p.N, rel=1e-12)
        # Periodic: one full cycle is twice the rise length.
        ells = np.linspace(0.0, 5.0, 41)
        shifted = analytic_n_first(ells + 2.0 * peak_pos, p)
        assert np.allclose(shifted, analytic_n_first(ells, p), rtol=0, atol=1e-6 * p.N)
        rise = np.asarray(analytic_n_first(np.linspace(0, 0.98 * peak_pos, 301), p))
        assert np.all(np.diff(rise) > 0)

    def test_first_resonance_orders_differ_by_pure_rescale(self):
        p = _params(1, alpha=0.5, n0=1000.0, N=10_000)
        corr = 1.0 - (p.alpha**2 / 8.0) * (1.0 + 2.0 * p.seed_ratio)
        ells = np.linspace(0.0, 12.0, 97)
        lhs = analytic_n_first(ells, p, order=3)
        rhs = analytic_n_first(corr * ells, p, order=1)
        assert np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))) < 1e-9 * p.N

    def test_first_resonance_validation(self):
        p = _params(1)
        # True and 3.0 compare equal to an order but are not integers.
        for bad in (2, True, 3.0):
            with pytest.raises(ValueError, match=f"^order must be 1 or 3, got {bad!r}$"):
                analytic_n_first(1.0, p, order=bad)
        with pytest.raises(ValueError, match="seed"):
            analytic_n_first(1.0, _params(1, n0=0.0))
        # The order-3 phase factor C = 1 - (alpha^2/8)(1 + 2 n0/N) is refused
        # once it is <= 0, as lmax_exact refuses it; order 1 drops C.
        with pytest.warns(UserWarning, match="quantum regime"):
            broken = _params(1, alpha=2.7, n0=10.0, N=100)
        with pytest.raises(ValueError, match="phase factor breaks down"):
            analytic_n_first(1.0, broken)
        with pytest.raises(ValueError, match="phase factor breaks down"):
            lmax_exact(broken, 1)
        assert np.isfinite(analytic_n_first(1.0, broken, order=1))

    def test_second_resonance_curve_shape(self):
        p = _params(2, alpha=0.25, n0=1000.0, N=10_000)
        assert analytic_n_second(0.0, p) == pytest.approx(p.n0, rel=1e-14)
        peak_pos = lmax_exact(p, 2)
        assert analytic_n_second(peak_pos, p) == pytest.approx(p.n0 + 2 * p.N, rel=1e-9)
        ells = np.linspace(0.0, 30.0, 61)
        shifted = analytic_n_second(ells + 2.0 * peak_pos, p)
        assert np.allclose(shifted, analytic_n_second(ells, p), rtol=1e-9)
        with pytest.raises(ValueError, match="seed"):
            analytic_n_second(1.0, _params(2, n0=0.0))

    def test_second_resonance_stays_finite_for_a_huge_seed(self):
        # n0 (1 + n0/2N) alone would overflow here; the ratio is formed first.
        p = _params(2, alpha=0.25, n0=1e157, N=10_000)
        n = analytic_n_second(np.array([0.0, 1.0]), p)
        assert n[0] == p.n0
        assert n[1] == pytest.approx(p.n0, rel=1e-12)

    def test_short_time_law_is_the_leading_expansion(self):
        p = _params(2, alpha=0.25, n0=100.0, N=1000)
        for ell in (0.01, 0.1, 0.5):
            full = analytic_n_second(ell, p) - p.n0
            approx = short_time_n_second(ell, p) - p.n0
            assert approx / full == pytest.approx(1.0, abs=5e-3)

    def test_growth_is_algebraic_not_exponential(self):
        # Quadratic start-up: n(2 ell) - n0 = 4 (n(ell) - n0) at small ell.
        p = _params(2, alpha=0.25, n0=100.0, N=1000)
        g1 = analytic_n_second(0.02, p) - p.n0
        g2 = analytic_n_second(0.04, p) - p.n0
        assert g2 / g1 == pytest.approx(4.0, rel=1e-4)


class TestSeedBoundary:
    # The six collective closed forms take bare FelParams; ``_seed_ratio`` is
    # their one check of the regime and the seed (``lmax_ratio`` reaches it
    # through ``lmax_exact``).
    CLOSED_FORMS = {
        "analytic_n_first": lambda p: analytic_n_first(1.0, p),
        "analytic_n_second": lambda p: analytic_n_second(1.0, p),
        "short_time_n_second": lambda p: short_time_n_second(1.0, p),
        "integrate_semiclassical": lambda p: integrate_semiclassical(p, 1.0, 5),
        "lmax_exact_1": lambda p: lmax_exact(p, 1),
        "lmax_exact_2": lambda p: lmax_exact(p, 2),
        "lmax_ratio": lmax_ratio,
    }
    REFUSED = {
        "low_context": (dict(n0=100.0, N=1000, context="low"), "need high-gain params, got context 'low'"),
        "seedless": (dict(n0=0.0, N=1000, context="high"), "need a seeded field: n0 > 0, got 0.0"),
        "overflowing_ratio": (dict(n0=1e308, N=1, context="high"), r"n0 = 1e\+308 is too large"),
        # 1 + 2^-53 rounds to 1, and with it the modulus (1 + n0/N)^(-1/2).
        "below_the_floor": (
            dict(n0=2.0**-53, N=1, context="high"),
            r"^n0 = 1\.1102230246251565e-16 is too small: 1 \+ n0/N rounds to 1$",
        ),
    }

    @pytest.mark.parametrize("case", REFUSED)
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_refused_in_one_line_at_the_boundary(self, name, case):
        kwargs, message = self.REFUSED[case]
        params = FelParams(alpha=0.25, nu=2, **kwargs)
        with pytest.raises(ValueError, match=message) as excinfo:
            self.CLOSED_FORMS[name](params)
        assert "\n" not in str(excinfo.value)
        assert excinfo.traceback[-1].name == "_seed_ratio"

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_the_first_seed_above_the_floor_is_passed(self, name):
        # 1 + 2^-52 is the next double after 1, so the modulus stays below 1.
        out = self.CLOSED_FORMS[name](FelParams(alpha=0.25, nu=2, n0=2.0**-52, N=1, context="high"))
        values = out.column("n") if name == "integrate_semiclassical" else out
        assert np.all(np.isfinite(values))


class TestSemiclassical:
    def test_matches_closed_form_over_full_period(self):
        p = _params(2, alpha=0.25, n0=100.0, N=1000)
        period = 2.0 * lmax_exact(p, 2)
        trace = integrate_semiclassical(p, period, 801)
        reference = analytic_n_second(trace.x, p)
        assert np.max(np.abs(trace.column("n") - reference) / reference) < 1e-6
        assert np.max(np.abs(trace.column("A") - p.N)) < 1e-9 * p.N
        assert np.max(np.abs(trace.column("B") - (2 * p.N + p.n0))) < 1e-9 * p.N
        # One full period returns the field to its seed value.
        assert trace.column("n")[-1] == pytest.approx(p.n0, rel=1e-5)

    def test_rejections(self):
        with pytest.raises(ValueError, match="second"):
            integrate_semiclassical(_params(1), 1.0)
        with pytest.raises(ValueError, match="seed"):
            integrate_semiclassical(_params(2, n0=0.0), 1.0)
        with pytest.raises(ValueError):
            integrate_semiclassical(_params(2), 0.0)

    def test_population_sum_above_n_aborts(self, monkeypatch):
        # A stand-in solver returns |b0|^2 + |b2|^2 = N (1 + excess) at every sample.
        import scipy.integrate

        p = _params(2, alpha=0.25, n0=100.0, N=1000)

        def fake_solve_ivp(excess):
            def solve(rhs, span, y0, t_eval, **options):
                y = np.empty((3, t_eval.size), dtype=complex)
                y[0], y[1], y[2] = y0[0], np.sqrt(p.N * (1.0 + excess)), 0.0
                return types.SimpleNamespace(success=True, message="", y=y)

            return solve

        monkeypatch.setattr(scipy.integrate, "solve_ivp", fake_solve_ivp(1e-6))
        with pytest.raises(RuntimeError, match=r"max N0\+N2 = 1\.000001e\+03 vs N = 1000"):
            integrate_semiclassical(p, 1.0, 5)
        # Inside the 1e-8 N tolerance the run is kept.
        monkeypatch.setattr(scipy.integrate, "solve_ivp", fake_solve_ivp(1e-9))
        assert integrate_semiclassical(p, 1.0, 5).column("A") == pytest.approx(p.N, rel=1e-8)


class TestLengthFormulas:
    def test_ratio_reference_value(self):
        # lmax_exact(p, 2) / ln(N/n0) = pi / (2 * 0.25 * ln(sqrt(10)) * sqrt(0.1 * 2.1)), frozen.
        assert lmax_ratio(_params(2)) == pytest.approx(11.909253176929694, rel=1e-14)

    def test_ratio_scales_inversely_with_alpha(self):
        assert lmax_ratio(_params(2, alpha=0.5)) == pytest.approx(lmax_ratio(_params(2)) / 2.0, rel=1e-14)

    @pytest.mark.filterwarnings("ignore:alpha")
    def test_unit_ratio_crossover_near_three(self):
        crossover = lmax_ratio(_params(2, alpha=1.0))
        assert crossover == pytest.approx(2.9773, abs=2e-4)
        assert lmax_ratio(_params(2, alpha=crossover)) == pytest.approx(1.0, rel=1e-14)

    def test_ratio_domain(self):
        # The params are checked in FelParams and at ``_seed_ratio``
        # (TestSeedBoundary); the shorthand adds only its logarithm's domain.
        for n0 in (1000.0, 1500.0):
            with pytest.raises(ValueError, match=r"^the logarithmic form needs 0 < n0/N < 1$"):
                lmax_ratio(_params(2, n0=n0))

    def test_exact_positions_match_sampled_curves(self):
        p1 = _params(1, alpha=0.25, n0=1000.0, N=10_000)
        p2 = _params(2, alpha=0.25, n0=1000.0, N=10_000)
        for p, res in ((p1, 1), (p2, 2)):
            pos = lmax_exact(p, res)
            ells = np.linspace(0.0, 1.5 * pos, 6001)
            curve = analytic_n_first(ells, p) if res == 1 else analytic_n_second(ells, p)
            found = first_maximum(ells, np.asarray(curve))
            assert found.position == pytest.approx(pos, rel=1e-3)

    def test_exact_rejects_unsupported_resonance_and_breakdown(self):
        p = _params(2)
        with pytest.raises(ValueError, match="resonance"):
            lmax_exact(p, 3)
        with pytest.warns(UserWarning, match="quantum regime"):
            strong = _params(1, alpha=3.0, n0=1000.0, N=10_000)
        with pytest.raises(ValueError, match="breaks down"):
            lmax_exact(strong, 1)


class TestStrongSeedLimit:
    def test_collective_run_reduces_to_single_electron_gain(self):
        # With n0 >> N each emission barely changes the field, so the
        # collective first-resonance dynamics must reproduce the fixed-field
        # ladder gain with the photon-number-matched Rabi phase.
        N, n0, alpha = 50, 500.0, 0.05
        p = _params(1, alpha=alpha, n0=n0, N=N)
        model = HighGainModel(params=p, variant="third_order")
        half_period = 2.0 * (np.pi / 2.0) / np.sqrt(n0 / N)
        trace = propagate_dicke(model, half_period, 201)
        alpha_n = alpha * np.sqrt(n0 / N)
        rabi_phase = np.sqrt(n0 / N) * trace.x / 2.0
        low_gain = N * np.sin(rabi_phase * (1.0 - alpha_n**2 / 4.0)) ** 2
        deviation = np.abs((trace.column("n") - n0) - low_gain) / trace.column("n")
        assert np.max(deviation) < 0.05


class TestLargeNLimit:
    # The collective closed forms are the N -> infinity limit of the Dicke
    # ladder, so the worst pointwise gap e(N) = max |n - closed| / (nu N),
    # at fixed n0/N, alpha and span, is an asymptotic series in 1/N:
    # e(N) = (c / N) (1 + y(N) + O(1/N^2)) with y(N) = y0 (N0 / N).  The
    # observed order p = log2(e(N) / e(2N)) is then
    # 1 + log2((1 + y) / (1 + y/2)): 1 from the leading term, moved by the
    # next correction, which halves at each doubling.  Taking N0 = 1000 as
    # inside the asymptotic range, i.e. |y0| <= 1/2 (the correction at most
    # half the leading term), bounds p at each doubling, and the bound
    # tightens as N grows.  Validate's alpha, span and sample count per
    # resonance, n0/N = 0.1.  third_order's limit is its detuned mean-field
    # form: the order-3 closed form leaves out the model's mu-linear diagonal.
    CASES = [
        (1, "first_order", 0.5, 6.5, 401, lambda x, p: analytic_n_first(x, p, order=1)),
        (2, "dicke_only", 0.25, 45.0, 451, analytic_n_second),
        (1, "third_order", 0.5, 6.5, 401, lambda x, p: detuned_n_first(x, p)[0]),
    ]

    @staticmethod
    def _band(N, y0=0.5, N0=1000):
        y = y0 * N0 / N
        return 1.0 + np.log2((1.0 - y) / (1.0 - y / 2.0)), 1.0 + np.log2((1.0 + y) / (1.0 + y / 2.0))

    @pytest.mark.parametrize(
        "nu, variant, alpha, span, samples, closed_form", CASES, ids=[case[1] for case in CASES]
    )
    def test_gap_to_the_closed_form_falls_as_one_over_N(self, nu, variant, alpha, span, samples, closed_form):
        sizes = (1000, 2000, 4000)
        gaps = []
        for N in sizes:
            params = _params(nu, alpha=alpha, n0=0.1 * N, N=N)
            trace = propagate_dicke(HighGainModel(params=params, variant=variant), span, samples)
            gaps.append(np.max(np.abs(trace.column("n") - closed_form(trace.x, params))) / (nu * N))
        orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
        for N, p in zip(sizes, orders):
            lo, hi = self._band(N)
            assert lo <= p <= hi, (N, orders)
        # The next correction falls with N, so p moves towards 1.
        assert abs(orders[1] - 1.0) < abs(orders[0] - 1.0), orders

    def test_third_order_limit_is_a_finite_gap_inside_validates_gate(self):
        # validate's nu = 1 check holds third_order to the order-3 closed form.
        # At N -> infinity the peak is the detuned form's, so the amp dev there
        # is a model gap, negative and inside the 0.02 gate, that no N removes.
        params = _params(1, alpha=0.5, n0=1e8, N=10**9)
        _, position, amplitude = detuned_n_first(0.0, params)
        amp_dev = amplitude / (params.n0 + params.N) - 1.0
        assert amp_dev == pytest.approx(-0.0139, abs=5e-5) and -0.02 < amp_dev < 0.0
        assert position / lmax_exact(params, 1) - 1.0 == pytest.approx(0.0012, abs=5e-5)
        # The detuning alone makes the gap: without it the form is the order-3 one.
        ell = np.linspace(0.0, 6.5, 401)
        gap = np.max(np.abs(detuned_n_first(ell, params, detuned=False)[0] - analytic_n_first(ell, params)))
        assert gap < 1e-8 * params.N

    # The detuned form is the reference of the third_order row, so it is held
    # to its own defining equation, (dmu/dell)^2 = mu g(mu) with g written out
    # unfactored, at validate's smallest N.
    @staticmethod
    def _detuned_energy(params):
        alpha, n0, N = params.alpha, params.n0, params.N
        bracket = 1.0 - (alpha**2 / 8.0) * (1.0 + 2.0 * (n0 + 1.0) / N)
        delta = (alpha / 4.0) * (1.0 + 1.0 / N)
        return lambda mu: bracket**2 * (n0 + mu) * (1.0 - (mu - 1.0) / N) - delta**2 * mu

    def test_detuned_form_solves_its_energy_equation(self):
        params = _params(1, alpha=0.5, n0=100.0, N=1000)
        g = self._detuned_energy(params)
        _, position, amplitude = detuned_n_first(0.0, params)
        ell = np.linspace(0.0, position, 20001)
        n = detuned_n_first(ell, params)[0]
        mu = n - params.n0
        assert mu[0] == 0.0 and n[-1] == pytest.approx(amplitude, rel=1e-14)
        assert abs(g(amplitude - params.n0)) < 1e-12 * g(0.0)
        rate = np.gradient(n, ell, edge_order=2)
        assert np.max(np.abs(rate**2 - mu * g(mu))) < 1e-6 * np.max(mu * g(mu))

    def test_detuned_form_peaks_at_its_quarter_period_integral(self):
        # ell_max = int_0^mu_max dmu / sqrt(mu g(mu)); mu = mu_max sin^2 t removes
        # both endpoint singularities.
        params = _params(1, alpha=0.5, n0=100.0, N=1000)
        g = self._detuned_energy(params)
        _, position, amplitude = detuned_n_first(0.0, params)
        mu_max = amplitude - params.n0
        integral, _ = quad(
            lambda t: 2.0 * np.sqrt(mu_max) * np.cos(t) / np.sqrt(g(mu_max * np.sin(t) ** 2)),
            0.0,
            np.pi / 2.0,
            epsabs=0.0,
            epsrel=1e-13,
        )
        assert position == pytest.approx(integral, rel=1e-12)
