"""Gaussian quantum-battery toolkit.

Closed-form machinery for single-mode Gaussian states: ergotropy as a
phase-space relative entropy, dissipative relaxation in a thermal channel,
and the anomalous (Mpemba-style) discharge where a more charged squeezed
state loses its extractable work faster than a less charged displaced one.
Ships with independent brute-force oracles (RK4 moment integration,
truncated-Fock master-equation simulation, grid quadrature) and a CLI that
emits deterministic CSV datasets.
"""

from .dynamics import (
    EffectiveParameters,
    ErgotropyRate,
    Trajectory,
    effective_parameters,
    ergotropy_rate,
    evolve_analytic,
    sample_trajectory,
)
from .factory import (
    SqueezingParameter,
    displace,
    displaced_thermal,
    random_state,
    squeeze,
    squeezed_displaced_thermal,
    squeezed_thermal,
    thermal_state,
)
from .mpemba import (
    CrossingReport,
    DischargePair,
    ScanResult,
    ScanRow,
    SweepGrid,
    crossing_report,
    crossing_time_closed_form,
    crossing_time_numeric,
    equal_charge_amplitude,
    faster_discharge_demo,
    mpemba_scan,
)
from .states import (
    GaussianState,
    InvalidStateError,
    SystemBathSpec,
    ergotropy,
    ergotropy_split,
    evaluate_wigner,
    mean_energy,
    passive_occupation,
    passive_state,
    relative_wigner_entropy,
    wigner_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianState",
    "InvalidStateError",
    "SystemBathSpec",
    "wigner_entropy",
    "relative_wigner_entropy",
    "mean_energy",
    "passive_occupation",
    "passive_state",
    "ergotropy",
    "ergotropy_split",
    "evaluate_wigner",
    "SqueezingParameter",
    "thermal_state",
    "displace",
    "squeeze",
    "displaced_thermal",
    "squeezed_thermal",
    "squeezed_displaced_thermal",
    "random_state",
    "EffectiveParameters",
    "Trajectory",
    "ErgotropyRate",
    "evolve_analytic",
    "effective_parameters",
    "sample_trajectory",
    "ergotropy_rate",
    "CrossingReport",
    "SweepGrid",
    "ScanRow",
    "ScanResult",
    "DischargePair",
    "crossing_time_closed_form",
    "crossing_time_numeric",
    "crossing_report",
    "equal_charge_amplitude",
    "mpemba_scan",
    "faster_discharge_demo",
    "__version__",
]
