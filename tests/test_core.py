"""Parameter validation, the ladder state, banded operators, trace tooling."""

import numpy as np
import pytest

from qfel.core import (
    BandedHermitianOperator,
    FelParams,
    LadderState,
    Trace,
    boxcar_smooth,
    first_maximum,
)
from qfel.highgain import lmax_exact
from qfel.lowgain import gain_frequency, momentum_label_to_level


class TestFelParams:
    def test_defaults_resolve(self):
        p = FelParams(alpha=0.25)
        assert p.nu == 1
        assert p.ladder_halfwidth == 9  # |nu| + 8
        assert p.context == "low"

    def test_ladder_halfwidth_override(self):
        assert FelParams(alpha=0.25, nu=2, M=15).ladder_halfwidth == 15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"alpha": 0.25, "context": "medium"},
            {"alpha": 0.25, "nu": 0},
            {"alpha": 0.25, "nu": 1.5},
            {"alpha": 0.25, "n0": -1.0},
            {"alpha": 0.25, "N": 0},
            {"alpha": 0.25, "nu": 2, "M": 4},  # below |nu| + 3
            {"alpha": np.inf},
            {"alpha": 0.25, "n0": np.nan},
            {"alpha": 0.25, "n0": np.inf},
            {"alpha": 0.25, "nu": 2.0},  # integral value, but not an integer
            {"alpha": 0.25, "N": 10.5},
            {"alpha": 0.25, "M": 10.5},
            {"alpha": 0.25, "M": 12.0},  # integral value, but not an integer
            {"alpha": 0.25, "M": np.inf},
            {"alpha": 0.25, "M": np.nan},
            {"alpha": 0.25, "nu": True},  # bool is an Integral, but not an integer here
            {"alpha": 0.25, "N": True, "context": "high"},
            {"alpha": 0.25, "M": True},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            FelParams(**kwargs)

    @pytest.mark.parametrize(
        "field, value, rule",
        [("alpha", value, "positive and finite") for value in (0.0, -1.0, np.nan, np.inf)]
        + [("n0", value, "non-negative and finite") for value in (-1.0, np.nan, np.inf)],
    )
    def test_each_real_field_is_refused_in_one_wording(self, field, value, rule):
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
            FelParams(**{"alpha": 0.25, field: value})

    @pytest.mark.parametrize("field", ["nu", "N", "M"])
    def test_bool_is_refused_as_an_integer(self, field):
        # M = True would also fall below |nu| + 3; the message names the integer rule.
        with pytest.raises(ValueError, match=f"^{field} must be an? .*integer, got True"):
            FelParams(alpha=0.25, context="high", **{field: True})

    def test_alpha_above_one_warns(self):
        # The warning names the line that built the params, not the
        # dataclass-generated ``__init__`` (``<string>``).
        with pytest.warns(UserWarning, match="quantum regime") as record:
            FelParams(alpha=1.5)
        assert [w.filename for w in record] == [__file__]

    def test_mirrored_resonance_allowed(self):
        p = FelParams(alpha=0.25, nu=-2)
        assert p.ladder_halfwidth == 10

    def test_seed_ratio(self):
        p = FelParams(alpha=0.25, nu=2, n0=100, N=1000, context="high")
        assert p.seed_ratio == pytest.approx(0.1)


#: Each raw resonance index the library takes: the call, an out-of-range integer, and its refusal.
_INDEX_CHECKS = {
    "lmax_exact": (
        lambda v: lmax_exact(FelParams(alpha=0.25, nu=2, n0=100, N=1000, context="high"), v),
        3,
        "resonance must be 1 or 2, got {}",
    ),
    "gain_frequency": (lambda v: gain_frequency(v, 0.25), 4, "closed forms cover nu in {{1, 2, 3}}, got {}"),
    "momentum_label_to_level": (
        lambda v: momentum_label_to_level(2, v), 3, "momentum {}/2 q is not on the nu = 2 ladder"
    ),
}


@pytest.mark.parametrize("value", [True, 2.0, "out of range"])
@pytest.mark.parametrize("name", sorted(_INDEX_CHECKS))
def test_raw_resonance_indices_must_be_integers(name, value):
    # True and 2.0 compare equal to valid indices, so only the integer rule refuses them.
    call, out_of_range, message = _INDEX_CHECKS[name]
    value = out_of_range if value == "out of range" else value
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value) == message.format(value)


class TestStates:
    def test_initial_ladder_state(self):
        p = FelParams(alpha=0.25, nu=3)
        s = LadderState.initial(p)
        assert s.amplitudes.size == 2 * p.ladder_halfwidth + 1
        assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0)
        assert s.amplitudes[p.ladder_halfwidth] == 1.0  # all weight on mu = 0


class TestBandedOperator:
    def test_dense_is_a_symmetric_float_matrix(self):
        rng = np.random.default_rng(7)
        size = 6
        op = BandedHermitianOperator(
            size=size,
            bands={0: rng.normal(size=size), 1: rng.normal(size=size - 1), 3: rng.normal(size=size - 3)},
        )
        h = op.dense()
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        assert np.array_equal(np.diag(h, 3), op.bands[3])

    def test_band_shape_validation(self):
        with pytest.raises(ValueError):
            BandedHermitianOperator(size=4, bands={1: np.ones(2)})

    @pytest.mark.parametrize("d", [0, 1])
    def test_bands_must_be_real(self, d):
        entries = np.ones(3 - d, dtype=complex)
        entries[-1] = 1j
        with pytest.raises(ValueError, match="real"):
            BandedHermitianOperator(size=3, bands={d: entries})

    def test_caller_bands_are_left_as_given(self):
        # The operator holds its own dict: the caller's keeps its lists, and a
        # float64 band is held as the very array passed in.
        bands = {0: [1, 2, 3], 1: [0.5, 0.5]}
        op = BandedHermitianOperator(3, bands)
        assert op.bands is not bands
        assert bands == {0: [1, 2, 3], 1: [0.5, 0.5]}
        assert isinstance(op.bands[0], np.ndarray) and op.bands[0].dtype == np.float64
        diag = np.arange(3.0)
        assert BandedHermitianOperator(3, {0: diag}).bands[0] is diag

    def test_tridiagonal_parts(self):
        op = BandedHermitianOperator(size=3, bands={0: np.arange(3.0), 1: np.ones(2)})
        assert np.array_equal(op.bands[0], np.arange(3.0))
        assert np.array_equal(op.bands[1], np.ones(2))


class TestTrace:
    def test_column_access_and_validation(self):
        x = np.linspace(0, 1, 5)
        t = Trace(x=x, columns={"y": x**2})
        assert np.array_equal(t.column("y"), x**2)
        with pytest.raises(ValueError):
            Trace(x=x[::-1], columns={"y": x})
        with pytest.raises(ValueError):
            Trace(x=x, columns={"y": x[:-1]})

    def test_levels_need_one_column_per_sample(self):
        x = np.linspace(0, 1, 5)
        assert Trace(x=x, columns={}, levels=np.zeros((3, 5))).levels.shape == (3, 5)
        with pytest.raises(ValueError, match="levels"):
            Trace(x=x, columns={}, levels=np.zeros((3, 4)))
        assert Trace(x=x, columns={}, levels=[[1, 2, 3, 4, 5]]).levels.shape == (1, 5)
        with pytest.raises(ValueError, match="levels"):
            Trace(x=x, columns={}, levels=[[1, 2, 3]])

    def test_caller_columns_are_left_as_given(self):
        x = np.linspace(0, 1, 5)
        cols = {"n": [0, 1, 2, 3, 4]}
        t = Trace(x=x, columns=cols)
        assert t.columns is not cols
        assert cols == {"n": [0, 1, 2, 3, 4]}
        assert isinstance(t.column("n"), np.ndarray)


class TestSmoothingAndExtrema:
    def test_boxcar_passthrough_for_nonpositive_window(self):
        x = np.linspace(0, 1, 10)
        xs, ys = boxcar_smooth(x, x, 0.0)
        assert np.array_equal(xs, x)
        assert np.array_equal(ys, x)

    def test_boxcar_preserves_constants_and_trims(self):
        x = np.linspace(0, 10, 101)
        y = np.full_like(x, 3.5)
        xs, ys = boxcar_smooth(x, y, 1.0)
        assert xs.size == ys.size
        assert xs.size < x.size
        assert np.allclose(ys, 3.5)

    def test_boxcar_rejects_window_longer_than_trace(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(ValueError, match="window"):
            boxcar_smooth(x, x, 5.0)

    def test_first_maximum_refines_parabola_exactly(self):
        x = np.linspace(0, np.pi, 1001)
        y = np.sin(x) ** 2
        ext = first_maximum(x, y)
        assert ext.position == pytest.approx(np.pi / 2, abs=1e-6)
        assert ext.amplitude == pytest.approx(1.0, abs=1e-8)

    def test_first_maximum_needs_interior_peak(self):
        x = np.linspace(0, 1, 50)
        with pytest.raises(ValueError, match="maximum"):
            first_maximum(x, x)  # monotone: maximum sits on the boundary

    def test_first_maximum_with_smoothing_tracks_envelope(self):
        x = np.linspace(0, np.pi, 4001)
        ripple = 0.05 * np.sin(40 * x)
        y = np.sin(x) ** 2 + ripple
        ext = first_maximum(*boxcar_smooth(x, y, 2 * np.pi / 40))
        assert ext.position == pytest.approx(np.pi / 2, abs=5e-3)
