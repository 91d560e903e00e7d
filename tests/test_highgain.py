"""Collective emission: tridiagonal dynamics, closed forms, length formulas."""

import ctypes
import inspect
import mmap
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import detuned_n_first, expm_populations, mean_field_populations
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
from recorded import assert_matches_reference, run_python


def _params(nu, alpha=0.25, n0=100.0, N=1000, **kw):
    return FelParams(alpha=alpha, nu=nu, n0=n0, N=N, context="high", **kw)


def _on_route(model, span, samples, route, keep_levels=False):
    """``propagate_dicke``'s body on the named route, "eigh" or "chebyshev", whatever N is."""
    return highgain._propagate_dicke(model, span, samples, getattr(highgain, f"_{route}_blocks"), keep_levels)


def _assert_eigh_matches_chebyshev(model, span, samples):
    """Both routes agree per level to 1e-9, and on n/norm/energy to the recorded references' bar."""
    t1 = _on_route(model, span, samples, "eigh", keep_levels=True)
    t2 = _on_route(model, span, samples, "chebyshev", keep_levels=True)
    assert np.max(np.abs(t1.levels - t2.levels)) < 1e-9, samples
    names = ("n", "norm", "energy")
    assert_matches_reference(f"{samples} samples", {c: t2.column(c) for c in names}, {c: t1.column(c) for c in names})


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
    # calls of at most 256; at n = 2001 they are 240 rows, then 256, the last
    # 241.
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

    @pytest.mark.parametrize("n", [2, 256, 257, 1025, 2001, 2048, 3001, 10001, 11585])
    def test_rows_go_in_the_fewest_near_equal_chunks(self, n):
        # 10001 rows go in 14 calls of 240 rows and 26 of 256, the last 241,
        # not 39 of 256 and one of 17: a 17-row call would reach the
        # small-matrix kernel.
        chunks = highgain._row_chunks(n)
        sizes = [hi - lo for lo, hi in chunks]
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        assert all(lo % 16 == 0 for lo, _ in chunks) and max(sizes) <= highgain._GEMM_ROWS
        assert len(chunks) == -(-n // highgain._GEMM_ROWS)
        assert max(sizes) - min(sizes) <= 16
        assert min(sizes) >= min(n, highgain._GEMM_ROWS // 2 - 16)

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
        # 1300 rows go in calls of 208 and 224 rows, the last 212, and
        # 208 x 12 x 384 multiply-adds would go to the small-matrix kernel;
        # at width 14 a piece needs 344 rows.
        support = np.arange(400, 700)
        assert highgain._gemm_pieces(support, 1300, 12) == [(0, 1300)]
        assert highgain._gemm_pieces(support, 1300, 14) == [(400, 744)]

    def test_a_small_piece_is_widened_inside_its_panel(self):
        # One support row per panel: 240 x 256 x 16, the shortest call at
        # n = 2001, is small-kernel sized.
        pieces = highgain._gemm_pieces(np.array([500, 1000]), 2001, 256)
        assert pieces == [(500, 517), (1000, 1017)]
        pieces = highgain._gemm_pieces(np.array([767]), 2001, 88)
        assert pieces == [(720, 768)]
        self._assert_covers(pieces, np.array([767]), 2001, 88)

    @pytest.mark.skipif(_openblas_core() != "SkylakeX", reason="the panel model is OpenBLAS's SkylakeX DGEMM")
    def test_piece_sum_equals_the_full_product_bit_for_bit(self):
        # The route's row-chunked product of the pieces against v @ b with b
        # zero off the support.  Supports are contiguous or gapped windows;
        # at n = 1001 one reaches the tail as N = 1000 first_order's 219 rows
        # over 0-1000 do, and n = 1025 ends in a 193-row call.
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
                c, buffer = np.empty((n, width)), np.empty(2 * n * width)
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
warm, samples, N = map(int, sys.argv[1:])
run(warm, 1, "third_order", 7.0, samples)
before = resident_mib()
run(N, 1, "third_order", 7.0, samples)
print(resident_mib() - before)
"""

_HEAP_PROBE = """
run(200, 1, "third_order", 7.0, 2001, 0.5)
before = resident_mib()
for N in (1000, 2000, 3000):
    run(N, 1, "third_order", 7.0, 2001, 0.5)
    run(N, 2, "full_second_order", 45.0, 2001, 0.25)
print(resident_mib() - before)
"""

_PEAK_PROBE = """
import resource
run(4000, 1, "third_order", 7.0, int(sys.argv[1]), 0.5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""

_THREADS_PROBE = """
columns = {}
for N, nu, variant, alpha, span, samples in [
    (2000, 1, "third_order", 0.5, 7.0, 501),
    (1500, 1, "first_order", 0.5, 7.0, 255),
    (2000, 2, "dicke_only", 0.25, 45.0, 117),
    (2000, 1, "third_order", 0.5, 7.0, 484),
    (2000, 1, "third_order", 0.5, 7.0, 143),
    (2000, 2, "dicke_only", 0.25, 45.0, 144),
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
    # from the eigenvectors', and releases the columns no GEMM piece reads;
    # no array a block writes comes from the C heap.

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
        # 384 x 4001 doubles; in row chunks the packing is 384 x 256 doubles,
        # 0.75 MiB.  The 2 MiB of slack covers what else the call leaves
        # resident: the three probes read 1.1-2.4 MiB at 1, 2 and 4 threads,
        # and 3.6-4.8 MiB with 1024-row chunks.
        bound = (384 * 256 * 8 + 2 * 2**20) / 2**20
        assert float(_probe(_PACK_PROBE, "50", "256", "4000")) <= bound
        # 501 samples end in a 53-sample block.  The warm-up runs the same
        # blocks at N = 200, so OpenBLAS's buffers for the 128- and 106-column
        # products are in place.  At N = 6000 1024-row chunks read 4.8 MiB.
        assert float(_probe(_PACK_PROBE, "200", "501", "4000")) <= bound
        assert float(_probe(_PACK_PROBE, "200", "501", "6000")) <= bound

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="resident size is read from /proc/self/statm")
    def test_the_call_leaves_no_heap_temporary_resident(self):
        # Six collective-scan sized calls after a warm-up.  The phases, their
        # Re|Im input and each piece's zero-padded input are views of the
        # work mapping; as heap arrays of 0.3-6 MB they grew resident size by
        # 4.2-5.0 MiB at 1, 2 and 4 threads (1024-row chunks), since glibc
        # kept their freed pages.  In the mapping it grows by 1.3-1.9 MiB.
        assert float(_probe(_HEAP_PROBE)) <= 2.5

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux")
    def test_a_short_last_block_keeps_the_peak_of_a_whole_one(self):
        # One N = 4000 call, 128 MB of eigenvectors.  A GEMM block of 1-5
        # samples is too narrow for ``_gemm_pieces`` to keep to the support's
        # panels, so no eigenvector column went back to the OS: with 128-sample
        # blocks, 97 samples ending in a 1-sample block and 129 in another
        # peaked 15.5 and 17.7 MiB above 128 samples.
        peak = {samples: float(_probe(_PEAK_PROBE, str(samples))) for samples in (128, 129, 97)}
        assert peak[129] - peak[128] <= 2.0 and peak[97] - peak[128] <= 2.0, peak

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

    @pytest.mark.parametrize("k", [64, 17, 79])
    def test_in_place_observables_equal_the_plain_expressions_bit_for_bit(self, k):
        # k = 17 is the last GEMM block of 401 and 2001 samples, and 79 the
        # widest, a joined tail (143 samples); the views have the block's row
        # stride 2k.  The scratch starts an odd number of doubles into its
        # buffer, off the page that starts it in its mapping, so its alignment
        # is shown not to move the sums.
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
        # 130 samples make GEMM blocks of 64 and 66 samples, and the second is
        # handed out as views of 64 and 2.
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
        # 300 samples: four 64-sample GEMM blocks and a 44-sample tail.
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
            # 300 samples: four 64-sample GEMM blocks and a 44-sample tail.
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
        # split, so no block is that wide.  143 samples end in the widest, a
        # joined 79-sample tail of 158 columns; 144 in a 16-sample tail, the
        # shortest that stands alone; 501, 255, 117 and 484 in tails of 53, 63,
        # 53 and 36 samples.  A one-core host runs both with one thread.
        runs = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.npz"
            _probe(_THREADS_PROBE, str(path), OPENBLAS_NUM_THREADS=threads)
            runs.append(np.load(path))
        assert len(runs[0].files) == 18
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

        def counting_jv(z):
            calls.append(z)
            return original(z)

        monkeypatch.setattr(highgain, "jv", counting_jv)
        model = HighGainModel(params=_params(1, n0=4.0, N=16), variant="third_order")
        _on_route(model, 6.0, 7, "chebyshev")
        assert len(calls) == 1

    @pytest.mark.parametrize("route", ["eigh", "chebyshev"])
    @pytest.mark.parametrize("span", [1e-20, 1e-45, 1e-300])
    def test_every_span_the_axis_accepts_is_propagated(self, route, span):
        # Near span 1e-20 the Bessel tail past J_0 is already below 1e-16, yet
        # the first Chebyshev step applies T_0 and T_1; below z = 1e-40 the
        # coefficients once were refused.
        model = HighGainModel(params=_params(1, n0=4.0, N=50), variant="third_order")
        trace = _on_route(model, span, 3, route)
        assert np.max(np.abs(trace.column("n") - 4.0)) <= 1e-12
        assert np.max(np.abs(trace.column("norm") - 1.0)) <= 1e-12

    def test_a_tiny_span_is_propagated_at_the_first_n_past_the_byte_budget(self):
        # 11 585 is the first N on Chebyshev.  Tiny spans on eigh, and which
        # route each N takes, are tested above and below.
        trace = propagate_dicke(HighGainModel(params=_params(1, n0=4.0, N=11_585), variant="third_order"), 1e-45, 2)
        assert trace.column("n") == pytest.approx([4.0, 4.0], rel=1e-10)

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


# J_k(z) from mpmath 1.3.0's besselj at mp.dps = 40, rounded to double, at
# the index M = int(z + 25 + 12 z^(1/3)) that bounds where ``jv`` starts its
# recurrence and every max(1, M // 40)-th order below it (every order up to
# z = 7.5).  z runs from the recurrence's lowest, 1e-40, past the 1e-9 spans
# that ``TestRouteEquivalence`` can draw, to 1e3.  ``_BESSEL_K`` is, per z,
# the smallest K >= 1 with 2 sum_{k>K} |J_k(z)| <= 1e-16, summed over
# k < M + 60.  Both are recorded again, from the repository root, with:
#
#     python3 -c "import mpmath as m; m.mp.dps = 40; zs = [1e-40, 1e-20, 1e-9, 1e-4, 0.1, 1.0, 7.5, 60.0, 190.0, 1000.0]; tops = {z: int(z + 25 + 12 * z ** (1 / 3)) for z in zs}; print({z: {k: float(m.besselj(k, z)) for k in [*range(0, t, max(1, t // 40)), t]} for z, t in tops.items()}); J = {z: [abs(m.besselj(k, z)) for k in range(t + 60)] for z, t in tops.items()}; print({z: next(K for K in range(1, len(j)) if 2 * m.fsum(j[K + 1:]) <= 1e-16) for z, j in J.items()})"
_BESSEL_J = {
    1e-40: {
        0: 1.0, 1: 5e-41, 2: 1.2499999999999997e-81, 3: 2.083333333333333e-122, 4: 2.6041666666666658e-163,
        5: 2.6041666666666658e-204, 6: 2.1701388888888878e-245, 7: 1.5500992063492057e-286, 8: 0.0, 9: 0.0,
        10: 0.0, 11: 0.0, 12: 0.0, 13: 0.0, 14: 0.0, 15: 0.0, 16: 0.0, 17: 0.0, 18: 0.0, 19: 0.0, 20: 0.0,
        21: 0.0, 22: 0.0, 23: 0.0, 24: 0.0, 25: 0.0,
    },
    1e-20: {
        0: 1.0, 1: 5e-21, 2: 1.25e-41, 3: 2.083333333333333e-62, 4: 2.604166666666666e-83,
        5: 2.604166666666666e-104, 6: 2.170138888888888e-125, 7: 1.5500992063492057e-146,
        8: 9.688120039682536e-168, 9: 5.382288910934742e-189, 10: 2.6911444554673706e-210,
        11: 1.2232474797578957e-231, 12: 5.0968644989912317e-253, 13: 1.960332499612012e-274,
        14: 7.001187498614328e-296, 15: 2.333729e-317, 16: 0.0, 17: 0.0, 18: 0.0, 19: 0.0, 20: 0.0, 21: 0.0,
        22: 0.0, 23: 0.0, 24: 0.0, 25: 0.0,
    },
    1e-09: {
        0: 1.0, 1: 5e-10, 2: 1.25e-19, 3: 2.0833333333333336e-29, 4: 2.6041666666666672e-39,
        5: 2.6041666666666676e-49, 6: 2.17013888888889e-59, 7: 1.550099206349207e-69,
        8: 9.688120039682545e-80, 9: 5.382288910934747e-90, 10: 2.6911444554673736e-100,
        11: 1.2232474797578973e-110, 12: 5.0968644989912385e-121, 13: 1.960332499612015e-131,
        14: 7.00118749861434e-142, 15: 2.33372916620478e-152, 16: 7.292903644389938e-163,
        17: 2.144971660114688e-173, 18: 5.958254611429689e-184, 19: 1.5679617398499183e-194,
        20: 3.9199043496247957e-205, 21: 9.333105594344753e-216, 22: 2.1211603623510803e-226,
        23: 4.611218179024088e-237, 24: 9.606704539633517e-248, 25: 1.9213409079267036e-258,
    },
    0.0001: {
        0: 0.9999999975, 1: 4.99999999375e-05, 2: 1.2499999989583335e-09, 3: 2.0833333320312503e-14,
        4: 2.604166665364584e-19, 5: 2.604166665581598e-24, 6: 2.17013888811384e-29,
        7: 1.5500992058648008e-34, 8: 9.6881200369914e-40, 9: 5.382288909589174e-45, 10: 2.69114445485575e-50,
        11: 1.223247479503054e-55, 12: 5.0968644980110715e-61, 13: 1.9603324992619553e-66,
        14: 7.001187497447474e-72, 15: 2.3337291658401345e-77, 16: 7.29290364331745e-83,
        17: 2.1449716598167747e-88, 18: 5.958254610645706e-94, 19: 1.5679617396539227e-99,
        20: 3.919904349158139e-105, 21: 9.333105593284169e-111, 22: 2.1211603621205186e-116,
        23: 4.611218178543751e-122, 24: 9.606704538672844e-128, 25: 1.9213409077419586e-133,
    },
    0.1: {
        0: 0.99750156206604, 1: 0.049937526036242, 2: 0.001248958658799919, 3: 2.0820315754756265e-05,
        4: 2.6028648545684036e-07, 5: 2.6030817909644417e-09, 6: 2.1693639603760032e-11,
        7: 1.549614867620228e-13, 8: 9.68542923159465e-16, 9: 5.380943491602331e-18,
        10: 2.690532895434217e-20, 11: 1.2229926610356454e-22, 12: 5.095884420251415e-25,
        13: 1.9599824694071795e-27, 14: 7.000020725188064e-30, 15: 2.3333645478334648e-32,
        16: 7.291831233034797e-35, 17: 2.144673766982821e-37, 18: 5.957470679556624e-40,
        19: 1.567765756298377e-42, 20: 3.919437720858622e-45, 21: 9.332045071801802e-48,
        22: 2.1209298134501091e-50, 23: 4.610737867813097e-53, 24: 9.605743915364207e-56,
        25: 1.9211561721613563e-58, 26: 3.694544257562705e-61, 27: 6.841771250090707e-64,
        28: 1.2217486276397766e-66, 29: 2.106469204191761e-69, 30: 3.510791444621463e-72,
    },
    1.0: {
        0: 0.7651976865579666, 1: 0.4400505857449335, 2: 0.11490348493190047, 3: 0.019563353982668407,
        4: 0.0024766389641099553, 5: 0.00024975773021123444, 6: 2.093833800238927e-05,
        7: 1.5023258174368083e-06, 8: 9.4223441726045e-08, 9: 5.249250179911875e-09,
        10: 2.6306151236874534e-10, 11: 1.1980067463031371e-11, 12: 4.999718179448405e-13,
        13: 1.925616764480173e-14, 14: 6.885408200044225e-16, 15: 2.2975315322103443e-17,
        16: 7.186396586807493e-19, 17: 2.1153755680532613e-20, 18: 5.880344573595758e-22,
        19: 1.5484784412116535e-23, 20: 3.8735030085246576e-25, 21: 9.22762198209667e-27,
        22: 2.0982239559437772e-28, 23: 4.563424055950105e-30, 24: 9.511097932712494e-32,
        25: 1.902951751891382e-33, 26: 3.660826744416803e-35, 27: 6.781552053554111e-37,
        28: 1.2113645024171123e-38, 29: 2.089159981718168e-40, 30: 3.482869794251483e-42,
        31: 5.618948327215681e-44, 32: 8.781686222395147e-46, 33: 1.330855117212922e-47,
        34: 1.9575512101373196e-49, 35: 2.797056804555227e-51, 36: 3.885530513390647e-53,
        37: 5.251650860388843e-55, 38: 6.911232970971626e-57,
    },
    7.5: {
        0: 0.2663396578803784, 1: 0.1352484275797055, 2: -0.23027341052579026, 3: -0.2580609131934603,
        4: 0.023824679971022014, 5: 0.28347390516255044, 6: 0.3541405269123786, 7: 0.2831509378972553,
        8: 0.1744078904958313, 9: 0.08891922849385146, 10: 0.03899825788941221, 11: 0.015076125877914433,
        12: 0.0052250446858034625, 13: 0.0016440171166566462, 14: 0.0004742146519395773,
        15: 0.0001263842505844424, 16: 3.132235039819239e-05, 17: 7.257777781178445e-06,
        18: 1.5795755431498952e-06, 19: 3.241848259410514e-07, 20: 6.29609082847652e-08,
        21: 1.160668491102967e-08, 22: 2.0365272170009618e-09, 23: 3.4094142870930483e-10,
        24: 5.458021241610778e-11, 25: 8.371930753784964e-12, 26: 1.2326592757919868e-12,
        27: 1.7450689170614395e-13, 28: 2.3790344492249476e-14, 29: 3.1276805026521577e-15,
        30: 3.970513949272091e-16, 31: 4.873065676551508e-17, 32: 5.788701001048881e-18,
        33: 6.662584434353753e-19, 34: 7.437330118242204e-20, 35: 8.059487285251211e-21,
        36: 8.485801465892518e-22, 37: 8.688212200560678e-23, 38: 8.656790532735022e-24,
        39: 8.400220594414496e-25, 40: 7.943888545605348e-26, 41: 7.3260520897875e-27,
        42: 6.592840589565192e-28, 43: 5.792937052551537e-29, 44: 4.9727230693903774e-30,
        45: 4.172468219983882e-31, 46: 3.423879459028158e-32, 47: 2.7490583090658475e-33,
        48: 2.1606955001037185e-34, 49: 1.663193106691223e-35, 50: 1.2543492639479537e-36,
        51: 9.272578572715422e-38, 52: 6.721421941343603e-39, 53: 4.7793185947707905e-40,
        54: 3.3348339265780183e-41, 55: 2.284225950155604e-42,
    },
    60.0: {
        0: -0.09147180408906187, 3: -0.04039671152165516, 6: 0.10164054540455694, 9: -0.02042094536962273,
        12: -0.07781225695244517, 15: 0.10327644058741856, 18: -0.0656400886672302, 21: 0.009987320876403975,
        24: 0.03422485166177975, 27: -0.059529462619940646, 30: 0.06819856782673352,
        33: -0.061463807931292073, 36: 0.03515128994308308, 39: 0.016923518217627276,
        42: -0.08697123720796744, 45: 0.12611616228068284, 48: -0.0516418740125217, 51: -0.11387452189865731,
        54: 0.08651060884559457, 57: 0.1733246251210285, 60: 0.11425208221300291, 63: 0.04511682129050738,
        66: 0.012428513577219021, 69: 0.002568776899862185, 72: 0.0004162182625574983,
        75: 5.447495460278403e-05, 78: 5.887209430860175e-06, 81: 5.343877636326645e-07,
        84: 4.1302797416592854e-08, 87: 2.749060037520279e-09, 90: 1.5907772884120966e-10,
        93: 8.068756182654474e-12, 96: 3.6129891148878166e-13, 99: 1.437178321893865e-14,
        102: 5.106904434382357e-16, 105: 1.6292080540705452e-17, 108: 4.687327663596323e-19,
        111: 1.2211902244901055e-20, 114: 2.8918532010268767e-22, 117: 6.245924000395628e-24,
        120: 1.234301070652304e-25, 123: 2.2383281138889775e-27, 126: 3.734981984553852e-29,
        129: 5.7493511099388075e-31, 131: 3.405813835195724e-32,
    },
    190.0: {
        0: 0.04357951594026227, 7: -0.043400656176545274, 14: -0.019132975651289918, 21: 0.055307712629674814,
        28: -0.05454713459015621, 35: 0.04227374551862881, 42: -0.03627029154942414, 49: 0.041801211952012814,
        56: -0.054710778035997096, 63: 0.05749276965949322, 70: -0.02182669542678772,
        77: -0.044986276527037246, 84: 0.04435184334648505, 91: 0.050873847971136324,
        98: -0.006291515158200202, 105: -0.048377850750734364, 112: -0.0624765298231913,
        119: -0.06518366363150094, 126: -0.06392497556192359, 133: -0.04587175372440078,
        140: 0.011551161533101168, 147: 0.07214242178377174, 154: 0.0006617106985082567,
        161: -0.06775308221677517, 168: 0.08462030517382446, 175: -0.09247416686495331,
        182: 0.07994770030520167, 189: 0.09015589657292801, 196: 0.020045878014710413,
        203: 0.0018962300243168051, 210: 9.4921809920942e-05, 217: 2.8124463160012174e-06,
        224: 5.2933897270535216e-08, 231: 6.651289352251594e-10, 238: 5.7922857339973385e-12,
        245: 3.6005584946402836e-14, 252: 1.6364164570507772e-16, 259: 5.547933001775192e-19,
        266: 1.427248729009511e-21, 273: 2.8275937084229886e-24, 280: 4.3702674930548126e-27,
        283: 2.5355917566647015e-28,
    },
    1000.0: {
        0: 0.024786686152420176, 28: 0.02110866736777082, 56: -0.004660396258584103,
        84: -0.021190843547986473, 112: 0.024886566078835538, 140: -0.02121904902898081,
        168: -0.004956863773914436, 196: 0.020903896756840065, 224: 0.024765027815977097,
        252: 0.019693015270964287, 280: -0.009562123415929278, 308: -0.016437723096206613,
        336: 0.020894651705153387, 364: -0.008863373979274662, 392: -0.023244678601502852,
        420: -0.005875532825464947, 448: -0.00602749126322081, 476: -0.024087386206741387,
        504: -0.006973018326266098, 532: 0.018093841441488023, 560: -0.007005539336190173,
        588: -0.025677505966623857, 616: -0.010959651113198871, 644: -0.017016145747486257,
        672: -0.02782787922177487, 700: 0.026175868535258686, 728: -0.02969995602231588,
        756: 0.011454548004627446, 784: 0.02505936358354181, 812: 0.005168100744220206,
        840: -0.03207456989759726, 868: 0.026175200242099843, 896: 0.03464224166553132,
        924: 0.04005652548559154, 952: -0.04383467443507452, 980: -0.016027448562905406,
        1008: 0.01687450615863148, 1036: 3.8767434697483464e-05, 1064: 5.132229401248254e-09,
        1092: 8.027944767374518e-14, 1120: 2.1289904040831932e-19, 1145: 6.017969063968588e-25,
    },
}


_BESSEL_K = {1e-40: 1, 1e-20: 1, 1e-09: 1, 0.0001: 3, 0.1: 8, 1.0: 14, 7.5: 31, 60.0: 104, 190.0: 254, 1000.0: 1110}


class TestBesselCoefficients:
    # ``jv`` is Miller's backward recurrence.  SciPy's jv was 1.8e-14 off at
    # z = 1e3 (sum over k <= K 3.2e-12); the recurrence is 5.0e-16 off
    # (sum 1.5e-13).

    @pytest.mark.parametrize("z", sorted(_BESSEL_J))
    def test_matches_recorded_mpmath_values(self, z):
        j = highgain.jv(z)
        orders = np.array([k for k in _BESSEL_J[z] if k < j.size])
        ref = np.array([_BESSEL_J[z][k] for k in orders])
        error = np.abs(j[orders] - ref)
        assert error.max() <= 1e-15, z
        # Past k = z, J_k decays monotonically and the recurrence keeps it
        # within 1e-13 relative (1.3e-14 seen): a start index too close to K
        # breaks that first.
        tail = orders >= z
        assert np.all(error[tail] <= 1e-13 * np.abs(ref[tail])), z

    @pytest.mark.parametrize("z", sorted(_BESSEL_K))
    def test_keeps_the_fewest_terms_whose_dropped_tail_is_below_1e_16(self, z):
        assert highgain.jv(z).size == _BESSEL_K[z] + 1
        assert _BESSEL_K[z] <= max(_BESSEL_J[z])

    @pytest.mark.parametrize("z", [0.0, 1e-60, 1e-300])
    def test_a_z_below_the_rescalings_reach_keeps_the_two_leading_terms(self, z):
        # One recurrence step multiplies by up to 2m/z, which overflowed past
        # the 1e250 rescaling at z = 1e-60.  Below 1e-40, J_0 rounds to 1,
        # J_1 = z/2, and every later term is below z^2.
        assert np.array_equal(highgain.jv(z), [1.0, z / 2.0])


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
    #   * chebyshev: each step drops a Bessel tail of at most 1e-16 < u, by
    #     construction in ``jv``, and the recurrence's roundoff grows with the
    #     number of terms, which is the half-width times the span plus a few
    #     dozen per sample.
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
    @pytest.mark.parametrize("samples", [801, 3])
    def test_matches_the_ode_oracle_and_the_closed_form_over_one_period(self, samples):
        # Three samples over one period leave ~27 gain lengths between samples,
        # which the Taylor steps cover in several sub-steps.
        p = _params(2, alpha=0.25, n0=100.0, N=1000)
        period = 2.0 * lmax_exact(p, 2)
        trace = integrate_semiclassical(p, period, samples)
        oracle = mean_field_populations(p, trace.x)
        for column in ("n", "A", "B"):
            assert np.max(np.abs(trace.column(column) / oracle[column] - 1.0)) < 1e-9, column
        reference = analytic_n_second(trace.x, p)
        assert np.max(np.abs(trace.column("n") - reference) / reference) < 1e-12
        assert np.max(np.abs(trace.column("A") - p.N)) < 1e-13 * p.N
        assert np.max(np.abs(trace.column("B") - (2 * p.N + p.n0))) < 1e-13 * p.N
        # One full period returns the field to its seed value.
        assert trace.column("n")[-1] == pytest.approx(p.n0, rel=1e-12)

    def test_rejections(self):
        with pytest.raises(ValueError, match="second"):
            integrate_semiclassical(_params(1), 1.0)
        with pytest.raises(ValueError, match="seed"):
            integrate_semiclassical(_params(2, n0=0.0), 1.0)
        with pytest.raises(ValueError):
            integrate_semiclassical(_params(2), 0.0)

    def test_population_sum_above_n_aborts(self, monkeypatch):
        # A stand-in step lands on each sample with |b0|^2 + |b2|^2 = N (1 + excess).
        p = _params(2, alpha=0.25, n0=100.0, N=1000)

        def fake_step(excess):
            def step(y, alpha, N, room):
                return np.array([y[0], np.sqrt(N * (1.0 + excess)), 0.0]), room

            return step

        monkeypatch.setattr(highgain, "_mean_field_step", fake_step(1e-6))
        with pytest.raises(RuntimeError, match=r"max N0\+N2 = 1\.000001e\+03 vs N = 1000"):
            integrate_semiclassical(p, 1.0, 5)
        # Inside the 1e-8 N tolerance the run is kept.
        monkeypatch.setattr(highgain, "_mean_field_step", fake_step(1e-9))
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
