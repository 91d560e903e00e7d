"""Quantum free-electron-laser dynamics at desk scale.

A NumPy-only library (plus the ``qfel`` command-line runner) for the two
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

from . import core, highgain, lowgain, specfun
from .core import *  # noqa: F403 - each module's __all__ is the one list of its public names
from .highgain import *  # noqa: F403
from .lowgain import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *specfun.__all__, *lowgain.__all__, *highgain.__all__]
