#!/usr/bin/env python3
"""Many electrons, one mode: collective photon growth and its closed forms.

With N electrons sharing the field, emission is cooperative: the photon
number climbs to n0 + nu*N at the first maximum instead of flopping one
photon at a time.  This script propagates the collective ladder exactly and
lays the closed-form growth curves on top, for both resonances.

Run:  python3 demos/collective_emission.py
"""

import numpy as np

from qfel import (
    FelParams,
    HighGainModel,
    analytic_n_first,
    analytic_n_second,
    first_maximum,
    lmax_exact,
    propagate_dicke,
)

N = 2_000
N0 = 200.0


def main():
    print(f"Collective emission: N = {N} electrons, seed n0 = {N0:.0f} photons")
    print("=" * 68)

    # --- first resonance ---------------------------------------------------
    alpha = 0.5
    p = FelParams(alpha=alpha, nu=1, n0=N0, N=N, context="high")
    model = HighGainModel(params=p, variant="third_order")
    span = 6.5
    trace = propagate_dicke(model, span, 401)
    peak = first_maximum(trace.x, trace.column("n"))
    predicted = lmax_exact(p, 1)

    print(f"\nfirst resonance, alpha = {alpha}")
    print(f"  numeric peak     : n = {peak.amplitude:10.1f} at L/Lg = {peak.position:6.3f}")
    print(f"  closed-form peak : n = {N0 + N:10.1f} at L/Lg = {predicted:6.3f}")
    gap = np.max(
        np.abs(trace.column("n") - analytic_n_first(trace.x, p)) / (N0 + N)
    )
    print(f"  worst closed-form deviation over the run: {100 * gap:.2f}% of the peak")

    # The cubic-order phase factor is a pure rescaling of the axis.
    corr = 1.0 - (alpha**2 / 8.0) * (1.0 + 2.0 * p.seed_ratio)
    print(f"  third-order phase factor: {corr:.5f} (slows the rise by {100 * (1 - corr):.2f}%)")

    # --- second resonance ---------------------------------------------------
    alpha = 0.25
    p = FelParams(alpha=alpha, nu=2, n0=N0, N=N, context="high")
    span = 45.0
    print(f"\nsecond resonance, alpha = {alpha}")
    print(f"  closed-form peak : n = {N0 + 2 * N:10.1f} at L/Lg = {lmax_exact(p, 2):6.3f}")
    traces = {}
    for variant in ("dicke_only", "full_second_order"):
        model = HighGainModel(params=p, variant=variant)
        traces[variant] = trace = propagate_dicke(model, span, 451)
        peak = first_maximum(trace.x, trace.column("n"))
        print(
            f"  {variant:18s}: n = {peak.amplitude:10.1f} at L/Lg = {peak.position:6.3f}"
        )
    print("  (pair coupling alone tracks the mean-field ceiling; the level")
    print("   shifts detune the cascade, delaying the peak and shaving it)")

    # Mean-field closed form against the full quantum run at matched settings.
    trace = traces["full_second_order"]
    closed = np.asarray(analytic_n_second(trace.x, p))
    i = np.argmax(closed)
    print(f"  mean-field curve peaks at L/Lg = {trace.x[i]:6.3f} with n = {closed[i]:10.1f}")

    print("\nTwice the photons per electron, roughly an order of magnitude")
    print("more interaction length: that is the second-resonance trade-off.")


if __name__ == "__main__":
    main()
