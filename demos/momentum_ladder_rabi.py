#!/usr/bin/env python3
"""A single electron on the recoil ladder: quantized gain at the resonances.

In the quantum regime an electron can only hop between discrete momentum
levels spaced by the photon recoil.  Driving the nu-th resonance moves it
coherently nu levels down, so the photon gain per electron oscillates like a
Rabi flop with ceiling nu — and the envelope frequency drops one power of
alpha per resonance order.

Run:  python3 demos/momentum_ladder_rabi.py
"""

import numpy as np

from qfel import (
    FelParams,
    LadderState,
    LowGainModel,
    analytic_dn,
    first_maximum,
    fit_rabi_frequency,
    gain_frequency,
    propagate,
)

ALPHA = 0.25


def bar(value, ceiling, width=40):
    filled = min(width, max(0, int(round(width * value / ceiling))))
    return "#" * filled + "." * (width - filled)


def main():
    print(f"Momentum-ladder Rabi oscillations at alpha = {ALPHA}")
    print("=" * 64)

    for nu in (1, 2, 3):
        params = FelParams(alpha=ALPHA, nu=nu, context="low")
        model = LowGainModel(params=params, variant="full_hamiltonian")

        # One envelope period, resolved well enough to fit the frequency.
        tau_end = 1.05 * np.pi / gain_frequency(nu, ALPHA)
        trace = propagate(model, LadderState.initial(params), tau_end, 4001)

        peak = first_maximum(trace.x, trace.column("dn_per_N"))
        fitted = fit_rabi_frequency(trace, model)
        closed = gain_frequency(nu, ALPHA)

        print(f"\nresonance nu = {nu}  (ladder of {2 * params.ladder_halfwidth + 1} levels)")
        print(f"  peak gain        : {peak.amplitude:8.4f} photons/electron (ceiling {nu})")
        print(f"  fitted frequency : {fitted:10.6f} per unit tau")
        print(f"  closed form      : {closed:10.6f}  ({100 * (fitted / closed - 1):+.2f}%)")

        # Coarse profile of the first flop, closed form vs full propagation.
        print("  gain profile over the first envelope period:")
        omega_t = ALPHA * trace.x
        for frac in (0.25, 0.5, 0.75, 1.0):
            i = int(frac * 0.5 * (len(trace.x) - 1) / 0.525)  # within one period
            numeric = trace.column("dn_per_N")[i]
            closed_here = float(analytic_dn(nu, ALPHA, omega_t[i]))
            print(
                f"    Omega*t = {omega_t[i]:9.2f}  |{bar(numeric, 3)}| "
                f"numeric {numeric:6.3f}  closed {closed_here:6.3f}"
            )

    print("\nEnvelope frequencies in Omega*t units scale as alpha^(nu-1):")
    for nu in (1, 2, 3):
        print(f"  nu = {nu}: {gain_frequency(nu, ALPHA) / ALPHA:10.6f}")
    print("\nEach extra resonance order trades one power of alpha in speed")
    print("for one more photon per electron at the top of the flop.")


if __name__ == "__main__":
    main()
