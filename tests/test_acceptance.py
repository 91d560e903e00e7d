"""End-to-end gate: every cross-route validation check at its stated tolerance.

Each test runs one check from :mod:`qfel.validate`, prints its report line,
and asserts the verdict.  Seven checks must PASS.  Two hold truncated closed
forms to tolerances the truncations cannot meet (see README "Validation
policy"); the tolerances stay where they are and the checks FAIL.  Their
tests assert that FAIL, the sub-gate it comes from, and the property that
makes that sub-gate a truncation floor rather than a bug:

* second-resonance populations: the sum rule passes, the pointwise gate
  fails, and the pointwise deviation falls as alpha**4, the order of the
  formulas;
* maximum-length shorthand: the crossover passes, the band fails, and the
  shorthand misses the exact ratio by exactly the ln 4 that the leading
  logarithm of K(k) drops.

The last two tests hold what the checks computed and printed: the cached
N = 10^4 traces and the verdicts against the benchmark's recorded validate
outputs, and every report line and gate value that README quotes.
"""

import re

import numpy as np
import pytest

from qfel.core import FelParams
from qfel.highgain import lmax_exact, lmax_ratio
from qfel.validate import (
    SHORTHAND_ALPHAS,
    SHORTHAND_SEED_RATIOS,
    populations_pointwise_deviation,
    run_all,
    shared_context,
)
from recorded import ROOT, assert_matches_reference, bench_module


@pytest.fixture(scope="module")
def verdicts():
    results = {r.name: r for r in run_all()}
    return results


def _gate(verdicts, name):
    result = verdicts[name]
    print(result.line())
    assert result.passed, result.detail


def _designed_failure(verdicts, name):
    """Print the report line of a check that must FAIL and return its gates by label."""
    result = verdicts[name]
    print(result.line())
    assert not result.passed, result.detail
    return {gate.label: gate for gate in result.gates}


def _implied_log(alpha, r, ratio):
    """The logarithm ell that a length ratio implies, ratio = pi / (2 alpha sqrt(r(r+2)) ell)."""
    return np.pi / (2.0 * alpha * np.sqrt(r * (r + 2.0)) * ratio)


def _seeded(alpha, r, N=1000):
    return FelParams(alpha=alpha, nu=2, n0=r * N, N=N, context="high")


def _exact_ratio(params):
    return lmax_exact(params, 2) / lmax_exact(params, 1)


def test_low_gain_peak_gains(verdicts):
    _gate(verdicts, "low-gain peak gains")


def test_second_resonance_closed_form_populations(verdicts):
    gates = _designed_failure(verdicts, "second-resonance closed-form populations")

    # The sum rule holds at both couplings; the pointwise gate is what fails.
    sums = [gates[f"alpha={alpha} |sum-1|"] for alpha in (0.1, 0.25)]
    for alpha, gate in zip((0.1, 0.25), sums):
        assert gate.limit == 5.0 * alpha**4
        assert gate.passed, gate
    pointwise = gates["alpha=0.25 pointwise vs propagation"]
    assert pointwise.limit == 0.02
    assert pointwise.value > 0.02
    assert len(gates) == 3

    # A floor, not a bug: amplitudes are kept to alpha**2 (nu = 2 has no odd
    # terms) and frequencies to alpha**4 over tau ~ pi/alpha**2, so the
    # deviation falls as alpha**4.  A wrong coefficient spoils that order even
    # where it leaves the alpha = 0.25 deviation as large as, or smaller than,
    # the right formulas do.
    alphas = np.array([0.05, 0.1, 0.2])
    deviations = np.array([populations_pointwise_deviation(a) for a in alphas])
    slopes = np.diff(np.log(deviations)) / np.diff(np.log(alphas))
    print(f"deviations {deviations}, log-log slopes {slopes}")
    assert np.all(slopes >= 3.5), slopes


def test_first_resonance_collective_dynamics(verdicts):
    _gate(verdicts, "first-resonance collective dynamics")


def test_second_resonance_collective_dynamics(verdicts):
    _gate(verdicts, "second-resonance collective dynamics")


def test_mean_field_integration_oracle(verdicts):
    _gate(verdicts, "mean-field integration oracle")


def test_maximum_length_shorthand_accuracy(verdicts):
    gates = _designed_failure(verdicts, "maximum-length shorthand accuracy")

    # The crossover passes; the accuracy band is what fails.
    (band,) = [g for label, g in gates.items() if label.startswith("worst factor")]
    assert band.limit == 2.5
    assert band.value > 2.5
    (crossover,) = [g for label, g in gates.items() if label.startswith("unit-ratio crossover")]
    assert crossover.limit == 0.10
    assert crossover.passed, crossover
    assert len(gates) == 2

    # The miss is the order-one term the shorthand drops.  Its logarithm is
    # ln sqrt(N/n0) exactly; the exact ratio's is K(k) / (sqrt(1 + n0/N) x
    # phase factor), and K(k) = ln(4/k') + o(1) as k -> 1 (Abramowitz &
    # Stegun 17.3.26) with k'^2 = (n0/N) / (1 + n0/N), so ln 4 is missing.
    for alpha in SHORTHAND_ALPHAS:
        for r in SHORTHAND_SEED_RATIOS:
            kept = np.log(np.sqrt(1.0 / r))
            params = _seeded(alpha, r)
            assert _implied_log(alpha, r, lmax_ratio(params)) == pytest.approx(kept, abs=1e-12)
            excess = _implied_log(alpha, r, _exact_ratio(params)) - kept
            assert excess == pytest.approx(np.log(4.0), abs=0.1), (alpha, r)
    r = 1e-6
    excess = _implied_log(0.01, r, _exact_ratio(_seeded(0.01, r, N=10**9))) - np.log(np.sqrt(1.0 / r))
    assert excess == pytest.approx(np.log(4.0), abs=1e-3)

    # With ln 4 dropped against a logarithm that grows only as ln sqrt(N/n0),
    # approx/exact falls towards 1, and only slowly, as n0/N -> 0.
    seeds = [_seeded(0.01, r, N=10**9) for r in (1e-2, 1e-4, 1e-6, 1e-8)]
    over = [lmax_ratio(params) / _exact_ratio(params) for params in seeds]
    print(f"approx/exact at n0/N = 1e-2 ... 1e-8: {over}")
    assert all(a > b > 1.0 for a, b in zip(over, over[1:])), over


def test_special_functions(verdicts):
    _gate(verdicts, "special functions")


def test_dense_propagator_oracle_equivalence(verdicts):
    _gate(verdicts, "dense-propagator oracle equivalence")


def test_conservation_suite(verdicts):
    _gate(verdicts, "conservation suite")


def test_validate_matches_the_recorded_reference(verdicts):
    # The three N = 10^4 traces the checks above cached, read back as the
    # benchmark reads them, and the nine verdicts, against the benchmark's
    # recorded validate outputs.  Reading them back propagates nothing.
    tables, recorded = bench_module("check").load_reference("validate")
    traces = shared_context().collective_trace
    misses = traces.cache_info().misses
    for key, _check in bench_module("workloads").VALIDATE_TRACES:
        name = "trace_nu{}_{}".format(*key[:2])
        trace = traces(*key)
        assert_matches_reference(name, {"L_over_Lg": trace.x, **trace.columns}, tables.pop(name))
    assert traces.cache_info().misses == misses
    assert tables == {}
    assert {name: "PASS" if result.passed else "FAIL" for name, result in verdicts.items()} == recorded


def _words(text):
    return " ".join(text.split())


def test_readme_quotes_what_validate_prints(verdicts):
    # Every report line README shows, and every gate it quotes in prose as
    # `label value (tol limit)`, is printed by ``run_all`` as quoted.  README
    # wraps one quote across lines, so whitespace is normalized first.
    printed = [_words(result.line()) for result in verdicts.values()]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = [_words(line) for line in readme.splitlines() if line.lstrip().startswith(("[PASS]", "[FAIL]"))]
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.DOTALL | re.MULTILINE)
    quotes = [_words(quote) for quote in re.findall(r"`([^`]*\(tol [-+.e\d]+\))`", prose)]
    assert lines and quotes
    for line in lines:
        assert line in printed, line
    for quote in quotes:
        assert any(quote in line for line in printed), quote
