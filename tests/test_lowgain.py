"""Momentum-ladder dynamics: builders, route agreement, closed forms."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfel
from oracles import expm_populations, ode_populations
from qfel.core import FelParams, LadderState, Trace, first_maximum
from qfel.lowgain import (
    LowGainModel,
    analytic_dn,
    analytic_populations_second,
    analytic_populations_third,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    fit_rabi_frequency,
    gain_frequency,
    momentum_label_to_level,
    propagate,
    ripple_period,
    rotating_frame_hamiltonian,
)


def _params(nu, alpha=0.25, **kw):
    return FelParams(alpha=alpha, nu=nu, context="low", **kw)


def _full(nu, alpha=0.25, **kw):
    return LowGainModel(params=_params(nu, alpha, **kw))


def _effective(nu, alpha=0.25, **kw):
    return LowGainModel(params=_params(nu, alpha, **kw), variant="effective")


class TestLowGainModel:
    """The one boundary of a low-gain run: regime, variant and resonance."""

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"variant": "effective", "order": True}, TypeError),  # each resonance has one table, so no order
            ({"variant": "effective", "order": 2.0}, TypeError),
            ({"variant": "effective", "order": 0}, TypeError),
            ({"variant": "mean_field"}, ValueError),
        ],
        ids=["order-True", "order-2.0", "order-0", "mean_field"],
    )
    def test_rejections(self, kwargs, error):
        with pytest.raises(error):
            LowGainModel(params=_params(1), **kwargs)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, True])
    def test_full_hamiltonian_refuses_any_order(self, order):
        with pytest.raises(TypeError, match="order"):
            LowGainModel(params=_params(1), order=order)

    @pytest.mark.parametrize("nu", [4, -1])
    def test_effective_covers_the_first_three_resonances(self, nu):
        with pytest.raises(ValueError, match=f"^no effective model for resonance nu = {nu}; supported: 1, 2, 3$"):
            _effective(nu)
        assert _full(nu).params.nu == nu  # the full Hamiltonian has every resonance

    def test_the_order_knob_is_gone(self):
        assert "order" not in {f.name for f in fields(LowGainModel)}
        assert "SUPPORTED_ORDERS" not in qfel.__all__
        assert not hasattr(qfel.lowgain, "SUPPORTED_ORDERS")

    def test_order_left_felparams(self):
        with pytest.raises(TypeError, match="order"):
            FelParams(alpha=0.25, order=3)

    def test_high_gain_params_build_no_ladder(self):
        # Every builder takes the model, and the model refuses high-gain
        # params, so no route hands back a ladder built from alpha_N.
        high = FelParams(alpha=0.25, nu=1, context="high")
        routes = (
            lambda model: build_full_hamiltonian(model, 0.0),
            rotating_frame_hamiltonian,
            build_effective_hamiltonian,
            lambda model: propagate(model, LadderState.initial(high), 1.0, 3),
        )
        for route in routes:
            for variant in ("full_hamiltonian", "effective"):
                with pytest.raises(ValueError, match="^LowGainModel requires params in the low-gain context$"):
                    route(LowGainModel(params=high, variant=variant))
            with pytest.raises(AttributeError):  # bare params are no model
                route(high)

    def test_effective_builder_refuses_a_full_model(self):
        with pytest.raises(ValueError, match="needs an effective model, got 'full_hamiltonian'"):
            build_effective_hamiltonian(_full(1))


class TestFullHamiltonian:
    def test_structure_and_resonant_pair(self):
        model = _full(1, M=5)
        tau = 0.1
        h = build_full_hamiltonian(model, tau)
        assert h.shape == (11, 11)
        coupling = np.diag(h, 1)
        assert np.allclose(np.abs(coupling), 0.25)
        mus = np.arange(-5, 5)
        # Phase frequencies nu - 2mu - 1 at nu = 1; |2mu| * tau stays below pi.
        assert np.allclose(np.angle(coupling) / tau, -2.0 * mus)
        # Exactly the (0, 1) transition is stationary for nu = 1 ...
        stationary = coupling == np.diag(build_full_hamiltonian(model, 0.0), 1)
        assert stationary[5]
        assert np.count_nonzero(stationary) == 1
        # ... and no single-step transition is stationary for nu = 2.
        model2 = _full(2, M=5)
        assert np.all(np.diag(build_full_hamiltonian(model2, tau), 1) != np.diag(build_full_hamiltonian(model2, 0.0), 1))

    def test_dense_matches_explicit_matrix(self):
        model = _full(2, M=5)
        p = model.params
        tau = 0.83
        m = 5
        expected = np.zeros((11, 11), dtype=complex)
        for row, mu in enumerate(range(-m, m)):
            entry = p.alpha * np.exp(1j * (p.nu - 2 * mu - 1) * tau)
            expected[row, row + 1] = entry
            expected[row + 1, row] = np.conj(entry)
        assert np.allclose(build_full_hamiltonian(model, tau), expected, atol=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 0.7, 2.31])
    def test_full_hamiltonian_is_hermitian(self, tau):
        h = build_full_hamiltonian(_full(3, M=7), tau)
        assert np.array_equal(h, h.conj().T)

    def test_rotating_frame_has_kinetic_diagonal(self):
        op = rotating_frame_hamiltonian(_full(3, M=6))
        mus = np.arange(-6, 7)
        assert np.allclose(op.bands[0], (1.5 - mus) ** 2)
        assert np.allclose(op.bands[1], 0.25)
        assert op.dense().dtype == np.float64


class TestRouteAgreement:
    def test_full_propagation_matches_direct_ode_integration(self):
        # The static-frame shortcut must reproduce brute-force integration
        # of the oscillating-coupling Hamiltonian, population by population.
        model = _full(1, alpha=0.3, M=6)
        psi0 = np.zeros(13, dtype=complex)
        psi0[6] = 1.0
        taus = np.linspace(0.0, 6.0, 7)
        reference = ode_populations(lambda tau: build_full_hamiltonian(model, tau), psi0, taus)
        trace = propagate(model, LadderState.initial(model.params), 6.0, 7)
        # levels holds mu = -4 ... 4, ladder indices 2 ... 10.
        assert trace.levels.T[1:] == pytest.approx(reference[1:, 2:11], abs=1e-9)

    def test_effective_propagation_matches_expm_oracle(self):
        model = _effective(2, alpha=0.25, M=6)
        op = build_effective_hamiltonian(model)
        psi0 = np.zeros(13, dtype=complex)
        psi0[6] = 1.0
        taus = [0.0, 4.0, 8.0]
        reference = expm_populations(op, psi0, taus)
        trace = propagate(model, LadderState.initial(model.params), 8.0, 3)
        assert trace.levels.T[1:] == pytest.approx(reference[1:, 2:11], abs=1e-10)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.1, 0.25])
    def test_full_vs_effective_gain_within_expansion_error(self, nu, alpha):
        # The two routes are independent models of the same resonance; their
        # per-electron gain must agree to the size of the first neglected
        # expansion term over a full envelope period.
        p = _params(nu, alpha=alpha)
        tau_end = 1.0 * np.pi / gain_frequency(nu, alpha)
        samples = 1501
        full = propagate(
            LowGainModel(params=p, variant="full_hamiltonian"),
            LadderState.initial(p),
            tau_end,
            samples,
        )
        effective = propagate(
            LowGainModel(params=p, variant="effective"),
            LadderState.initial(p),
            tau_end,
            samples,
        )
        gap = np.max(np.abs(full.column("dn_per_N") - effective.column("dn_per_N")))
        # Measured ripple coefficients are ~1.0, ~4.0, ~2.9 per resonance and
        # scale as alpha^2 (the first neglected off-resonant term).
        coefficient = {1: 1.5, 2: 4.5, 3: 3.5}[nu]
        assert gap <= coefficient * alpha**2

    def test_mirrored_resonance_gain_is_antisymmetric(self):
        p = _params(1, alpha=0.25, M=6)
        pm = _params(-1, alpha=0.25, M=6)
        t1 = propagate(LowGainModel(params=p), LadderState.initial(p), 10.0, 101)
        t2 = propagate(LowGainModel(params=pm), LadderState.initial(pm), 10.0, 101)
        assert np.max(np.abs(t1.column("dn_per_N") + t2.column("dn_per_N"))) < 1e-12


class TestEffectiveHamiltonian:
    def test_first_resonance_matrix_elements(self):
        alpha, m = 0.25, 6
        op = build_effective_hamiltonian(_effective(1, alpha=alpha, M=m))
        diag = op.bands[0]

        def d(mu):
            return diag[mu + m]

        assert d(0) == pytest.approx(-0.5 * alpha**2)
        assert d(1) == pytest.approx(-0.5 * alpha**2)
        assert d(2) == pytest.approx(alpha**2 / 4.0)
        assert d(-1) == pytest.approx(alpha**2 / 4.0)
        assert d(3) == pytest.approx(alpha**2 / 12.0)
        # Resonant coupling with its third-order correction, and the induced
        # three-step coupling between the neighbours of the resonant pair.
        band1 = op.bands[1]
        assert band1[0 + m] == pytest.approx(alpha - alpha**3 / 4.0)
        assert np.count_nonzero(band1) == 1
        assert op.bands[3][-1 + m] == pytest.approx(alpha**3 / 4.0)

    def test_second_resonance_matrix_elements(self):
        # The fourth-order table: the resonant coupling and its alpha^4
        # correction, the induced four-step coupling, and per level the
        # second-order shift plus the fourth-order shifts of the two pairs
        # (mu - 1, mu) and (mu, mu + 1) the level belongs to.
        alpha, m = 0.2, 6
        op = build_effective_hamiltonian(_effective(2, alpha=alpha, M=m))
        assert sorted(op.bands) == [0, 2, 4]
        assert op.bands[2][0 + m] == pytest.approx(alpha**2 - (16.0 / 9.0) * alpha**4)
        assert op.bands[4][-1 + m] == pytest.approx(alpha**4 / 36.0)
        assert np.count_nonzero(op.bands[2]) == 1 and np.count_nonzero(op.bands[4]) == 1

        def shift(lower):  # added to the pair's lower level and taken from its upper one
            half = lower - 0.5
            return alpha**4 / (8.0 * half**3 * (half**2 - 1.0) ** 2)

        def pair(lower):  # added to both levels of the pair; the resonant pair (0, 1) has none
            return 0.0 if lower == 0 else alpha**4 / (64.0 * lower * (lower**2 - 0.25) ** 2)

        for mu in range(-m, m + 1):
            expected = 2.0 * alpha**2 / ((2 * mu - 3) * (2 * mu - 1))
            if mu < m:
                expected += shift(mu) + pair(mu)
            if mu > -m:
                expected += pair(mu - 1) - shift(mu - 1)
            assert op.bands[0][mu + m] == pytest.approx(expected, rel=1e-12, abs=1e-18), f"mu={mu}"

    def test_third_resonance_is_first_shifted_by_one(self):
        # The nu = 3 table is the nu = 1 table translated one level up, bit
        # for bit; its bottom level -M takes the nu = 1 shift of the level
        # just below the nu = 1 ladder.
        alpha, m = 0.25, 7
        op1 = build_effective_hamiltonian(_effective(1, alpha=alpha, M=m))
        op3 = build_effective_hamiltonian(_effective(3, alpha=alpha, M=m))
        assert list(op3.bands) == list(op1.bands)
        for d, band in op1.bands.items():
            assert np.array_equal(op3.bands[d][1:], band[:-1]), d
        assert op3.bands[0][0] == alpha**2 / (2.0 * (-m - 1) * (-m - 2))


class TestPropagate:
    def test_rejects_bad_span_and_mismatched_state(self):
        p = _params(1)
        model = LowGainModel(params=p)
        with pytest.raises(ValueError):
            propagate(model, LadderState.initial(p), 0.0)
        wrong = LadderState(amplitudes=np.zeros(5, dtype=complex))
        with pytest.raises(ValueError, match="size"):
            propagate(model, wrong, 1.0)

    def test_reports_only_interior_levels(self):
        p = _params(1, M=6)
        trace = propagate(LowGainModel(params=p), LadderState.initial(p), 5.0, 11)
        assert trace.levels.shape == (9, 11)  # mu = -4 ... 4: an edge buffer of two levels
        assert set(trace.columns) == {"dn_per_N", "norm", "energy"}

    def test_initial_row_is_exact(self):
        p = _params(2)
        trace = propagate(LowGainModel(params=p), LadderState.initial(p), 5.0, 11)
        assert trace.column("dn_per_N")[0] == 0.0
        assert trace.levels[8, 0] == 1.0  # mu = 0 of the interior rows -8 ... 8
        assert trace.column("norm")[0] == 1.0

    def test_conserves_norm_and_frame_energy(self):
        p = _params(2, alpha=0.25)
        trace = propagate(LowGainModel(params=p), LadderState.initial(p), 80.0, 801)
        assert np.max(np.abs(trace.column("norm") - 1.0)) < 1e-12
        energy = trace.column("energy")
        assert np.max(np.abs(energy - energy[0])) < 1e-12


class TestClosedForms:
    def test_gain_peaks_are_one_two_three(self):
        for nu in (1, 2, 3):
            phase = np.linspace(0, 2 * np.pi / gain_frequency(nu, 0.25) * 0.25, 20001)
            peak = np.max(analytic_dn(nu, 0.25, phase))
            assert peak == pytest.approx(nu, abs=1e-6)

    def test_gain_closed_form_rejects_higher_resonances(self):
        with pytest.raises(ValueError, match="nu"):
            analytic_dn(4, 0.25, 1.0)
        with pytest.raises(ValueError):
            gain_frequency(4, 0.25)
        # The second-resonance bracket 1 - 16 alpha^2 / 9 vanishes at 0.75.
        with pytest.raises(ValueError, match="16 alpha\\^2 / 9 >= 1"):
            gain_frequency(2, 0.75)
        with pytest.raises(ValueError, match="16 alpha\\^2 / 9 >= 1"):
            analytic_dn(2, 0.75, np.linspace(0.0, 10.0, 6))
        # The first-resonance bracket 1 - alpha^2 / 4 vanishes at 2.
        for alpha in (2.0, 2.5):
            with pytest.raises(ValueError, match="alpha\\^2 / 4 >= 1"):
                gain_frequency(1, alpha)
            with pytest.raises(ValueError, match="alpha\\^2 / 4 >= 1"):
                analytic_dn(1, alpha, np.linspace(0.0, 10.0, 6))
        assert gain_frequency(1, 1.9) == 1.9 * (1.0 - 1.9**2 / 4.0)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "closed_form",
        [
            lambda alpha: gain_frequency(1, alpha),
            lambda alpha: analytic_dn(3, alpha, 1.0),
            lambda alpha: analytic_populations_second(alpha, 1.0),
            lambda alpha: analytic_populations_third(alpha, 1.0),
        ],
        ids=["gain_frequency", "analytic_dn", "analytic_populations_second", "analytic_populations_third"],
    )
    def test_alpha_is_checked_once_in_gain_frequency(self, closed_form, alpha):
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$") as excinfo:
            closed_form(alpha)
        assert excinfo.traceback[-1].name == "gain_frequency"

    def test_scalar_phase_gives_scalar_gain(self):
        out = analytic_dn(1, 0.25, 0.0)
        assert isinstance(out, float)
        assert out == 0.0

    @given(alpha=st.floats(min_value=0.01, max_value=0.4))
    @settings(deadline=None, max_examples=50)
    def test_second_resonance_populations_sum_to_one_identically(self, alpha):
        tau = np.linspace(0.0, 3.0 / alpha**2, 401)
        pops = analytic_populations_second(alpha, tau)
        assert set(pops) == {2, 1, 0, -1, -2}
        assert np.max(np.abs(sum(pops.values()) - 1.0)) < 1e-12

    def test_second_resonance_initial_population(self):
        pops = analytic_populations_second(0.25, 0.0)
        assert pops[1] == pytest.approx(1.0)  # all weight at momentum +q
        for k in (2, 0, -1, -2):
            assert pops[k] == pytest.approx(0.0, abs=1e-15)

    @given(alpha=st.floats(min_value=0.01, max_value=0.4))
    @settings(deadline=None, max_examples=50)
    def test_third_resonance_pair_is_a_pure_rabi_cycle(self, alpha):
        tau = np.linspace(0.0, 2.0 / alpha**3, 101)
        up, down = analytic_populations_third(alpha, tau)
        assert np.max(np.abs(up + down - 1.0)) < 1e-12
        assert np.allclose(down, np.sin(alpha**3 / 4.0 * tau) ** 2)

    def test_momentum_label_mapping(self):
        assert momentum_label_to_level(2, 2) == 0  # +q is where nu = 2 starts
        assert momentum_label_to_level(2, 4) == -1
        assert momentum_label_to_level(2, -4) == 3
        assert momentum_label_to_level(1, 1) == 0
        assert momentum_label_to_level(3, -3) == 3
        with pytest.raises(ValueError, match="ladder"):
            momentum_label_to_level(2, 3)


class TestEstimators:
    def test_fit_window_comes_from_the_model(self):
        # Ripple at frequency 2 (period pi, the nu = 1 full-Hamiltonian ripple)
        # shifts the raw first maximum; the full model's fit smooths it away.
        x = np.linspace(0.0, 20.0, 4001)
        trace = Trace(x=x, columns={"dn_per_N": np.sin(0.2 * x) ** 2 + 0.05 * np.sin(2.0 * x)})
        smoothed = fit_rabi_frequency(trace, _full(1))
        raw = fit_rabi_frequency(trace, _effective(1))
        assert smoothed == pytest.approx(0.2, rel=1e-3)
        assert abs(raw / 0.2 - 1.0) > 10 * abs(smoothed / 0.2 - 1.0)

    def test_ripple_periods(self):
        for nu in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
            for m in (None, abs(nu) + 3, 30):
                p = _params(nu, M=m)
                # Slowest nonzero transition frequency |k_mu - k_(mu+1)| between
                # neighbouring kinetic levels; these are exact integers.
                freqs = np.abs(np.diff(rotating_frame_hamiltonian(LowGainModel(params=p)).bands[0]))
                scanned = 2.0 * np.pi / freqs[freqs > 0].min()
                assert ripple_period(p) == scanned, f"nu={nu} M={m}"
                assert ripple_period(p) == (np.pi if nu % 2 else 2.0 * np.pi)

    def test_fit_rabi_frequency_on_synthetic_trace(self):
        x = np.linspace(0.0, 20.0, 4001)
        trace = Trace(x=x, columns={"dn_per_N": np.sin(0.2 * x) ** 2})
        # An effective model's trace carries no ripple, so it is fitted unsmoothed.
        assert fit_rabi_frequency(trace, _effective(1)) == pytest.approx(0.2, rel=1e-6)

    def test_fitted_frequency_tracks_closed_form(self):
        model = _full(1, alpha=0.25)
        tau_end = 1.05 * np.pi / gain_frequency(1, 0.25)
        trace = propagate(model, LadderState.initial(model.params), tau_end, 4001)
        fitted = fit_rabi_frequency(trace, model)
        assert fitted == pytest.approx(gain_frequency(1, 0.25), rel=0.02)

    def test_gain_from_state_matches_trace_endpoint(self):
        model = _full(1, alpha=0.25, M=6)
        trace = propagate(model, LadderState.initial(model.params), 4.0, 5)
        op = rotating_frame_hamiltonian(model)
        w, v = np.linalg.eigh(op.dense())
        psi0 = np.zeros(13, dtype=complex)
        psi0[6] = 1.0
        psi = v @ (np.exp(-1j * w * 4.0) * (v.T @ psi0))
        mus = np.arange(-6, 7)
        interior = np.abs(mus) <= 4  # the edge buffer of two levels is excluded
        gain = np.sum(mus[interior] * np.abs(psi[interior]) ** 2)
        assert gain == pytest.approx(trace.column("dn_per_N")[-1], abs=1e-12)
