"""The validation layer's verdict rule, a check passes iff every gate passes, and its dense oracle."""

import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from oracles import expm as scipy_expm
from qfel import highgain
from qfel.core import FelParams, Trace
from qfel.highgain import HighGainModel, build_dicke_tridiagonal
from qfel.lowgain import LowGainModel, build_effective_hamiltonian, rotating_frame_hamiltonian
from qfel.validate import (
    CheckResult,
    Gate,
    ValidationContext,
    check_dense_oracle_equivalence,
    check_second_resonance_collective,
    expm,
)


class TestGate:
    def test_nan_fails(self):
        assert not Gate("dev", math.nan, 1.0).passed
        assert not Gate("dev", math.nan, math.inf).passed

    def test_value_at_the_limit_passes(self):
        assert Gate("dev", 0.02, 0.02).passed
        assert Gate("dev", -0.02, 0.02).passed
        assert Gate("exact", 0.0, 0.0).passed
        assert not Gate("dev", 0.0200001, 0.02).passed
        assert not Gate("exact", 1e-300, 0.0).passed

    def test_signed_deviation_inside_the_limit_passes_and_keeps_its_sign(self):
        gate = Gate("pos dev", -0.0123, 0.03)
        assert gate.passed
        assert str(gate) == "pos dev -0.0123 (tol 0.03)"


class TestCheckResult:
    GOOD = Gate("a", 0.5, 1.0)
    BAD = Gate("b", 2.0, 1.0)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_passes_iff_every_gate_passes(self, size):
        assert CheckResult("check", (self.GOOD,) * size).passed
        for k in range(size):
            gates = [self.GOOD] * size
            gates[k] = self.BAD
            assert not CheckResult("check", tuple(gates)).passed, k

    def test_line_lists_every_gate_value_and_limit(self):
        gates = (Gate("amp dev", 0.0042, 0.02), Gate("drift", 3.5e-13, 1e-8), Gate("worst factor", 5.1, 2.5))
        result = CheckResult("some check", gates)
        assert result.line() == (
            "[FAIL] some check: amp dev 0.0042 (tol 0.02); drift 3.5e-13 (tol 1e-08); "
            "worst factor 5.1 (tol 2.5)"
        )
        assert CheckResult("some check", gates[:2]).line().startswith("[PASS] some check: ")


class _Peaks:
    """A context whose two second-resonance traces peak at given (height, position)."""

    def __init__(self, full, dicke):
        self.peaks = {"full_second_order": full, "dicke_only": dicke}

    def collective_trace(self, nu, variant, alpha):
        height, position = self.peaks[variant]
        x = np.linspace(0.0, 45.0, 451)
        return Trace(x=x, columns={"n": height - np.abs(x - position)})


@pytest.mark.parametrize(
    "full, ordered",
    [
        ((18000.0, 35.0), True),
        ((20000.0, 30.0), False),  # the same peak
        ((20000.0, 35.0), False),  # as high, later
        ((18000.0, 30.0), False),  # lower, at the same length
        ((18000.0, 25.0), False),  # lower, earlier
    ],
)
def test_full_model_must_peak_strictly_lower_and_later(full, ordered):
    result = check_second_resonance_collective(_Peaks(full, dicke=(20000.0, 30.0)))
    (gate,) = [gate for gate in result.gates if gate.label.endswith("not lower and later")]
    assert gate.passed == ordered
    assert gate.value == (0.0 if ordered else 1.0)


def test_dense_oracle_check_runs_both_collective_routes_on_every_variant(monkeypatch):
    # ``propagate_dicke`` picks eigh at every small N, so the check must
    # reach the Chebyshev route past it: one call of each route per variant.
    calls = Counter()

    def counting(route):
        original = getattr(highgain, f"_{route}_blocks")

        def blocks(d, a, steps):
            calls[route] += 1
            return original(d, a, steps)

        return blocks

    for route in ("eigh", "chebyshev"):
        monkeypatch.setattr(highgain, f"_{route}_blocks", counting(route))
    result = check_dense_oracle_equivalence(ValidationContext())
    assert calls == {"eigh": 4, "chebyshev": 4}
    assert result.passed, result.line()


def _oracle_operators(nu, family):
    """The operators ``check_dense_oracle_equivalence`` exponentiates, and the times it takes them at."""
    if family == "ladder":
        params = FelParams(alpha=0.25, nu=nu, M=10, context="low")
        full, effective = LowGainModel(params=params), LowGainModel(params=params, variant="effective")
        return (rotating_frame_hamiltonian(full), build_effective_hamiltonian(effective)), range(9)
    params = FelParams(alpha=0.4, nu=nu, n0=3, N=16, context="high")
    return (build_dicke_tridiagonal(HighGainModel(params=params, variant=family)),), range(13)


@pytest.mark.parametrize("nu, family", [
    (1, "ladder"), (2, "ladder"), (3, "ladder"),
    (1, "third_order"), (1, "first_order"), (2, "dicke_only"), (2, "full_second_order"),
])
def test_expm_matches_scipy_on_the_oracle_matrices(nu, family):
    # The nu = 1, 2, 3 rotating frames and effective models at M = 10 for
    # tau = 0 ... 8 (1-norms up to 1060, so up to 8 squarings), and the four
    # N = 16 collective variants for ell = 0 ... 12; t = 0 is the zero matrix.
    operators, times = _oracle_operators(nu, family)
    for op in operators:
        h = op.dense()
        for t in times:
            assert np.max(np.abs(expm(-1j * h * t) - scipy_expm(-1j * h * t))) <= 1e-12, (nu, family, t)


def test_traces_are_cached_per_context():
    # A context computes each trace once; a fresh context computes its own,
    # and a dropped context frees its traces with it.
    ctx = ValidationContext()
    trace = weakref.ref(ctx.low_full_trace(1))
    assert ctx.low_full_trace(1) is trace()
    assert ValidationContext().low_full_trace(1) is not trace()
    del ctx
    gc.collect()
    assert trace() is None
