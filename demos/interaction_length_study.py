#!/usr/bin/env python3
"""How long an undulator do the two resonances need?

The closed forms give the interaction length of the first photon-number
maximum for each resonance.  Their ratio has a handy logarithmic shorthand,
accurate only to a factor of order one; where the two lengths cross, the
exact lengths (found here by bisection) and the shorthand disagree too.

Run:  python3 demos/interaction_length_study.py
"""

import warnings

import numpy as np

from qfel import FelParams, lmax_exact, lmax_ratio

N = 10_000


def seeded_params(alpha):
    """High-gain params at n0/N = 0.1; quiet the warning for alpha above 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return FelParams(alpha=alpha, nu=1, n0=0.1 * N, N=N, context="high")


def exact_ratio(alpha):
    """L2/L1 from ``lmax_exact`` at n0/N = 0.1."""
    p = seeded_params(alpha)
    return lmax_exact(p, 2) / lmax_exact(p, 1)


def exact_crossover(lo=0.5, hi=2.0):
    """Bisect exact_ratio = 1; the ratio falls with alpha (L2 ~ 1/alpha, L1 grows)."""
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact_ratio(mid) > 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


def main():
    print("Interaction lengths of the first photon-number maximum (L/Lg units)")
    print("=" * 71)

    print(f"\nseed ratio n0/N = 0.1, N = {N}:")
    print(f"  {'alpha':>6} {'L1 (nu=1)':>10} {'L2 (nu=2)':>10} {'L2/L1':>8} {'shorthand':>10} {'factor':>7}")
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
        p = seeded_params(alpha)
        l1 = lmax_exact(p, 1)
        l2 = lmax_exact(p, 2)
        shorthand = lmax_ratio(p)
        exact = l2 / l1
        factor = max(shorthand / exact, exact / shorthand)
        print(
            f"  {alpha:6.2f} {l1:10.3f} {l2:10.3f} {exact:8.2f} {shorthand:10.2f} {factor:7.2f}"
        )

    print("\nThe shorthand keeps only the logarithm of the seed ratio, so it")
    print("misses O(1) additive terms — expect factor-of-a-few accuracy, not")
    print("percent accuracy.  That holds for the crossover L2/L1 = 1 as well:")

    # The shorthand ratio scales as 1/alpha, so it crosses one at a finite
    # coupling even though every quantum-regime value sits well above one.
    crossover = lmax_ratio(seeded_params(1.0))
    exact = exact_crossover()
    print(f"\n  {'alpha':>6} {'shorthand L2/L1':>16} {'exact L2/L1':>12}")
    for alpha in (1.0, exact, 2.0):
        print(f"  {alpha:6.3f} {lmax_ratio(seeded_params(alpha)):16.3f} {exact_ratio(alpha):12.3f}")
    print(f"\n  shorthand crossover: alpha* = {crossover:.3f} at n0/N = 0.1")
    print(f"  exact crossover:     alpha* = {exact:.3f} at n0/N = 0.1")

    # The exact first-resonance formula cannot follow the shorthand that far:
    # its phase factor hits zero at alpha^2 (1 + 2 n0/N) = 8, and the library
    # refuses the extrapolation rather than report a negative length.
    breakdown = np.sqrt(8.0 / 1.2)
    print(f"  first-resonance formula domain edge: alpha = {breakdown:.3f}")
    try:
        exact_ratio(3.0)
    except ValueError as err:
        print(f"  lmax_exact(alpha=3.0, nu=1) -> ValueError: {err}")

    print(f"\nBy the exact lengths, below alpha = {exact:.3f} the second resonance")
    print("needs the longer undulator, and from there up to the domain edge at")
    print(f"alpha = {breakdown:.3f} the first one does.  So in the quantum regime")
    print("(alpha < 1) the second resonance is always the long-haul option.")


if __name__ == "__main__":
    main()
