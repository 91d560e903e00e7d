"""Quantum free-electron-laser dynamics at desk scale.

A numpy/scipy library (plus the ``qfel`` command-line runner) for the two
regimes of a quantum FEL:

* **low gain** — one electron on the photon-recoil momentum ladder in a fixed
  classical field: full oscillating-coupling Hamiltonian, static effective
  models per resonance, and the closed-form multiphoton Rabi gains;
* **high gain** — N electrons collectively coupled to a quantized seeded
  mode: tridiagonal dynamics in the collective basis, Jacobi-elliptic and
  mean-field closed forms, and maximum-length analysis.

Every result is reachable by at least two independent routes, and the
``qfel validate`` subcommand (or ``qfel.validate.run_all``) cross-checks them
at the package's reference tolerances.
"""

from .core import (
    BandedHermitianOperator,
    Extremum,
    FelParams,
    LadderState,
    Trace,
    boxcar_smooth,
    first_maximum,
)
from .highgain import (
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
from .lowgain import (
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
from .specfun import EllipticModulus, elliptic_K, jacobi_cn, modulus_from_seed

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "FelParams",
    "LadderState",
    "BandedHermitianOperator",
    "Trace",
    "Extremum",
    "boxcar_smooth",
    "first_maximum",
    # specfun
    "EllipticModulus",
    "elliptic_K",
    "jacobi_cn",
    "modulus_from_seed",
    # lowgain
    "LowGainModel",
    "build_full_hamiltonian",
    "rotating_frame_hamiltonian",
    "build_effective_hamiltonian",
    "propagate",
    "analytic_dn",
    "gain_frequency",
    "analytic_populations_second",
    "analytic_populations_third",
    "momentum_label_to_level",
    "ripple_period",
    "fit_rabi_frequency",
    # highgain
    "HighGainModel",
    "build_dicke_tridiagonal",
    "propagate_dicke",
    "analytic_n_first",
    "analytic_n_second",
    "short_time_n_second",
    "integrate_semiclassical",
    "lmax_ratio",
    "lmax_exact",
]
