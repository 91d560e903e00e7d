"""Elliptic integral and Jacobi cn against mpmath reference values and identity oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfel import highgain
from qfel.core import FelParams
from qfel.specfun import elliptic_K, jacobi_cn

MODULI = [0.0, 0.05, 0.3, 0.5, 1 / np.sqrt(2.0), 0.9, 0.95346, 0.999, 0.999999]

# Computed once with mpmath 1.3.0 at mp.dps = 50 (ellipk, ellipfun("cn")) for
# the seed modulus k = (1 + n0/N)**-1/2 in double precision, at m = k*k rounded
# to double.  That m is the parameter SciPy receives; at 1 - m ~ 1e-14 half an
# ulp of m moves K by ~3e-3, so the reference must start from the same m.
# n0/N -> (K(k), ((u, cn(u, k)), ...)) at u = 0.3K, K, 2K, 3K and 39.5K.  The
# three smallest seeds put m at or above 1 - 1e-10, where SciPy's ellipj
# switches to its non-periodic series.
REFERENCE = {
    0.1: (
        2.623025317161034,
        (
            (0.7869075951483102, 0.7500335925277396),
            (2.623025317161034, 5.7661073722352734e-18),
            (5.246050634322068, -1.0),
            (7.869075951483103, 1.165996126576633e-16),
            (103.60950002786085, 0.48131328574592736),
        ),
    ),
    0.0001: (
        5.991639326778747,
        (
            (1.7974917980336242, 0.32251417576126906),
            (5.991639326778747, 2.686190251110333e-19),
            (11.983278653557495, -1.0),
            (17.974917980336244, 1.695682320684915e-17),
            (236.6697534077605, 0.09950125621064179),
        ),
    ),
    1e-10: (
        12.899219785017415,
        (
            (3.8697659355052245, 0.041708349192197874),
            (12.899219785017415, 7.070531245042045e-21),
            (25.79843957003483, -1.0),
            (38.697659355052245, -2.1211593735126136e-20),
            (509.5191815081879, 0.0031622619143096093),
        ),
    ),
    1e-12: (
        15.201760470772257,
        (
            (4.560528141231677, 0.020910783536493928),
            (15.201760470772257, -6.303516525611393e-22),
            (30.403520941544514, -1.0),
            (45.60528141231677, 1.891054957683418e-21),
            (600.4695385955041, 0.001000021724371708),
        ),
    ),
    1e-14: (
        17.50478981079335,
        (
            (5.251436943238005, 0.01047967911086627),
            (17.50478981079335, -1.2645295825522748e-22),
            (35.0095796215867, -1.0),
            (52.51436943238005, 2.4229515532693202e-23),
            (691.4391975263374, 0.0003161645428054433),
        ),
    ),
}


class TestEllipticK:
    def test_value_at_zero_is_exact(self):
        assert elliptic_K(0.0) == np.pi / 2

    def test_mpmath_reference_values(self):
        for ratio, (bigk, _) in REFERENCE.items():
            assert elliptic_K((1 + ratio) ** -0.5) == pytest.approx(bigk, rel=1e-14), ratio

    def test_reference_point_half_sqrt2(self):
        # Lemniscatic value, frozen from an independent AGM evaluation.
        assert abs(elliptic_K(1.0 / np.sqrt(2.0)) - 1.8540746773013717) < 1e-15

    def test_monotone_increasing(self):
        values = [elliptic_K(k) for k in MODULI]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, np.inf])
    def test_domain_rejection(self, bad):
        with pytest.raises(ValueError, match="modulus"):
            elliptic_K(bad)


class TestJacobiCn:
    def test_mpmath_reference_values(self):
        for ratio, (_, samples) in REFERENCE.items():
            u, expected = np.array(samples).T
            k = (1 + ratio) ** -0.5
            assert np.max(np.abs(jacobi_cn(u, k) - expected)) < 1e-12, ratio
            assert np.max(np.abs(jacobi_cn(-u, k) - expected)) < 1e-12, ratio

    def test_scalar_input_returns_float(self):
        out = jacobi_cn(0.3, 0.5)
        assert isinstance(out, float)
        assert out == pytest.approx(0.9556620945452506, abs=1e-15)  # mpmath, as REFERENCE

    def test_origin_value(self):
        for k in MODULI:
            assert jacobi_cn(0.0, k) == pytest.approx(1.0, abs=1e-12)

    def test_circular_limit(self):
        u = np.linspace(-10, 10, 201)
        assert np.max(np.abs(jacobi_cn(u, 0.0) - np.cos(u))) < 1e-12

    def test_quarter_period_zero(self):
        for k in MODULI[1:]:
            assert abs(jacobi_cn(elliptic_K(k), k)) < 1e-10

    def test_periodicity_4k(self):
        for k in (0.3, 0.7, 0.95346, (1 + 1e-12) ** -0.5):
            bigk = elliptic_K(k)
            u = np.linspace(-8 * bigk, 8 * bigk, 301)
            assert np.max(np.abs(jacobi_cn(u + 4 * bigk, k) - jacobi_cn(u, k))) < 1e-9

    def test_bounded_and_even(self):
        u = np.linspace(0, 50, 501)
        for k in MODULI:
            cn = jacobi_cn(u, k)
            assert np.max(np.abs(cn)) <= 1.0 + 1e-12
            assert np.max(np.abs(jacobi_cn(-u, k) - cn)) < 1e-12


def _seed_modulus(n0, N, closed_form=lambda p: highgain.lmax_exact(p, 1)):
    """The modulus a first-resonance closed form hands to K for a seed n0 of N electrons."""
    params = FelParams(alpha=0.25, nu=1, n0=n0, N=N, context="high")
    with mock.patch.object(highgain, "elliptic_K", wraps=elliptic_K) as spy:
        closed_form(params)
    return spy.call_args.args[0]


class TestModulus:
    def test_constraint(self):
        with pytest.raises(ValueError, match=r"modulus must lie in \[0, 1\), got 1.0"):
            elliptic_K(1.0)
        with pytest.raises(ValueError, match=r"modulus must lie in \[0, 1\), got -0.2"):
            jacobi_cn(0.0, -0.2)

    def test_seed_modulus_reference_value(self):
        # k = (1 + 0.1)**-1/2, frozen.
        k = _seed_modulus(100, 1000)
        assert type(k) is float
        assert k == pytest.approx(0.9534625892455922, abs=1e-15)

    @given(
        n0=st.floats(min_value=1e-6, max_value=1e6),
        N=st.integers(min_value=1, max_value=10**6),
    )
    @settings(deadline=None, max_examples=100)
    def test_always_a_valid_modulus(self, n0, N):
        # Order 1 has no phase factor to break down, whatever n0/N is.
        k = _seed_modulus(n0, N, lambda p: highgain.analytic_n_first(0.0, p, order=1))
        assert 0.0 < k < 1.0
