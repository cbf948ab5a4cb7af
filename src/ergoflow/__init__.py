"""Gaussian quantum-battery toolkit.

Closed-form machinery for single-mode Gaussian states: ergotropy as a
phase-space relative entropy, dissipative relaxation in a thermal channel,
and the anomalous (Mpemba-style) discharge where a more charged squeezed
state loses its extractable work faster than a less charged displaced one.
Ships with independent brute-force oracles (RK4 moment integration,
truncated-Fock master-equation simulation, grid quadrature) and a CLI that
emits deterministic CSV datasets.

The package re-publishes the public names of states, factory, dynamics and
mpemba; each module's __all__ is the one list of them.
"""

from . import dynamics, factory, mpemba, states
from .dynamics import *
from .factory import *
from .mpemba import *
from .states import *

__version__ = "0.1.0"

__all__ = states.__all__ + factory.__all__ + dynamics.__all__ + mpemba.__all__ + ["__version__"]
