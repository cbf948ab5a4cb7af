"""Single-mode Gaussian states and their static energetic content.

A Gaussian state of one bosonic mode is carried as the pair (mean vector,
covariance matrix) in the mode-operator basis u = (a, a+):

    v   = (<a>, <a+>),
    cov = [[V, M], [conj(M), V]],

where V = <a+a> + 1/2 - |<a>|^2 is the symmetrized variance and
M = <a^2> - <a>^2 the anomalous variance, so det cov = V^2 - |M|^2 >= 1/4
with the vacuum saturating the bound.

Every quantity in this module is an exact closed form in (v, cov): the mean
energy, the Wigner (phase-space) entropy, the relative entropy between two
Wigner densities, the passive state reachable by unitaries, and the
ergotropy with its displacement/covariance split, which one elementwise
core (_work) evaluates for scalars, trajectories and the crossing oracle;
E_erg = omega f_pi K[W || W_pi] is a checked route.  Units use
hbar = k_B = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidStateError",
    "GaussianState",
    "SystemBathSpec",
    "PhasePoint",
    "wigner_entropy",
    "relative_wigner_entropy",
    "mean_energy",
    "passive_occupation",
    "passive_state",
    "ergotropy",
    "ergotropy_split",
    "evaluate_wigner",
]

# Absolute tolerance for the structural checks (hermiticity, real diagonal,
# vacuum floor).  Loose enough that round-tripping a state through the
# dissipative dynamics never spuriously rejects it.
VALIDATION_ATOL = 1e-10

# Relative entropies are nonnegative; values in [NEGATIVE_ROUNDOFF_FLOOR, 0)
# are roundoff and clamp to zero, anything below the floor means the inputs
# were inconsistent.
NEGATIVE_ROUNDOFF_FLOOR = -1e-12

VACUUM_VARIANCE = 0.5


class InvalidStateError(ValueError):
    """The supplied moments do not describe a physical Gaussian state."""


class GaussianState:
    """Immutable (mean, cov) carrier with invariants enforced at construction.

    The full 2x2 complex covariance matrix is stored so that the dissipative
    matrix algebra can act on it verbatim; the reduced moments are exposed
    through :attr:`symmetric_variance` and :attr:`anomalous_variance`.
    """

    __slots__ = ("_mean", "_cov")

    def __init__(self, mean, cov):
        mean = np.array(mean, dtype=complex)
        cov = np.array(cov, dtype=complex)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise InvalidStateError(
                f"expected mean shape (2,) and cov shape (2, 2), got {mean.shape} and {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidStateError("mean/cov contain non-finite entries")
        if abs(mean[1] - mean[0].conjugate()) > VALIDATION_ATOL:
            raise InvalidStateError("mean vector must be (<a>, <a>*)")
        if abs(cov[0, 0].imag) > VALIDATION_ATOL or abs(cov[1, 1].imag) > VALIDATION_ATOL:
            raise InvalidStateError("diagonal covariance entries must be real")
        if abs(cov[0, 0] - cov[1, 1]) > VALIDATION_ATOL:
            raise InvalidStateError("diagonal covariance entries must be equal")
        if abs(cov[1, 0] - cov[0, 1].conjugate()) > VALIDATION_ATOL:
            raise InvalidStateError("off-diagonal covariance entries must be conjugate")
        variance = cov[0, 0].real
        if variance < VACUUM_VARIANCE - VALIDATION_ATOL:
            raise InvalidStateError(f"variance {variance} below the vacuum floor 1/2")
        off = complex(cov[0, 1])
        det = variance * variance - (off.real * off.real + off.imag * off.imag)
        if det <= 0.0 or det < 0.25 - VALIDATION_ATOL:
            raise InvalidStateError(f"det cov = {det} violates the uncertainty bound 1/4")
        mean.flags.writeable = False
        cov.flags.writeable = False
        self._mean = mean
        self._cov = cov

    @classmethod
    def from_moments(cls, alpha_mean, symmetric_variance, anomalous_variance):
        """Build a state from <a>, V and M, filling in the conjugate entries."""
        v = complex(alpha_mean)
        m = complex(anomalous_variance)
        return cls(
            (v, v.conjugate()),
            ((complex(symmetric_variance), m), (m.conjugate(), complex(symmetric_variance))),
        )

    @property
    def mean(self) -> np.ndarray:
        """Read-only mean vector (<a>, <a>*)."""
        return self._mean

    @property
    def cov(self) -> np.ndarray:
        """Read-only 2x2 covariance matrix."""
        return self._cov

    @property
    def alpha_mean(self) -> complex:
        return complex(self._mean[0])

    @property
    def symmetric_variance(self) -> float:
        return float(self._cov[0, 0].real)

    @property
    def anomalous_variance(self) -> complex:
        return complex(self._cov[0, 1])

    @property
    def cov_det(self) -> float:
        # V^2 - |M|^2 with every square spelled as a plain product, matching
        # the relative-entropy trace term bit for bit so K[W||W] is exactly 0
        # (pow() and x*x can differ in the last ulp)
        v = self.symmetric_variance
        m = self.anomalous_variance
        return v * v - (m.real * m.real + m.imag * m.imag)

    def close_to(self, other: "GaussianState", atol: float = 1e-12) -> bool:
        """Componentwise comparison of means and covariances."""
        return bool(
            np.all(np.abs(self._mean - other._mean) <= atol)
            and np.all(np.abs(self._cov - other._cov) <= atol)
        )

    def __repr__(self):
        return (
            f"GaussianState(<a>={self.alpha_mean:.6g}, V={self.symmetric_variance:.6g}, "
            f"M={self.anomalous_variance:.6g})"
        )


@dataclass(frozen=True)
class SystemBathSpec:
    """Mode frequency, damping rate and bath occupation of the thermal channel."""

    omega: float = 1.0
    gamma: float = 1.0
    nbar: float = 0.0

    def __post_init__(self):
        for name in ("omega", "gamma", "nbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.nbar < 0.0:
            raise ValueError("nbar must be nonnegative")

    @property
    def f_beta(self) -> float:
        """Thermal covariance scale nbar + 1/2 of the bath."""
        return self.nbar + 0.5


@dataclass(frozen=True)
class PhasePoint:
    """Point alpha of the complex phase plane; the conjugate partner is implied."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError("alpha must be finite")


def _moduli(state: GaussianState) -> tuple:
    """(V, |M|, |<a>|^2): all that the energetic quantities read of a state."""
    return state.symmetric_variance, abs(state.anomalous_variance), abs(state.alpha_mean) ** 2


def _work(a, m, v_sq, omega):
    """(f_pi, erg_v, erg_theta) of moduli (V, |M|, |<a>|^2) = (a, m, v_sq), elementwise.

    erg_theta = omega (V - f_pi) is rationalised, so it stays exact where V - f_pi cancels.
    """
    f_pi = np.sqrt(a * a - m * m)
    return f_pi, omega * v_sq, omega * (m * m) / (a + f_pi)


def passive_occupation(state: GaussianState) -> float:
    """Thermal occupation scale sqrt(det cov) of the passive state.

    This is the covariance scale f = nbar + 1/2 of the thermal state reached
    after all unitarily extractable work has been removed.
    """
    return math.sqrt(state.cov_det)


def wigner_entropy(state: GaussianState) -> float:
    """Differential entropy of the Wigner density: ln(pi) + 1 + (1/2) ln det cov.

    Computed as ln(pi) + 1 + ln sqrt(det cov) so that a state and its passive
    partner produce bit-identical values (both go through the same sqrt).
    Independent of the mean vector.
    """
    return math.log(math.pi) + 1.0 + math.log(passive_occupation(state))


def relative_wigner_entropy(state_a: GaussianState, state_b: GaussianState) -> float:
    """Kullback-Leibler divergence K[W_a || W_b] of the two Wigner densities.

    Closed form for Gaussian densities:

        K = -1 + (1/2) [ ln(det_b / det_a) + Tr(cov_b^-1 cov_a)
                         + (v_a - v_b)+ cov_b^-1 (v_a - v_b) ].

    Nonnegative, zero only for identical moments.
    """
    va, ma, da = state_a.symmetric_variance, state_a.anomalous_variance, state_a.cov_det
    vb, mb, db = state_b.symmetric_variance, state_b.anomalous_variance, state_b.cov_det
    # Re(mb conj(ma)) spelled out in float ops so that it cancels det exactly
    # when the two states coincide (complex multiply may contract to FMA)
    trace_term = 2.0 * (vb * va - (mb.real * ma.real + mb.imag * ma.imag)) / db
    delta = state_a.alpha_mean - state_b.alpha_mean
    shift_term = 2.0 * (vb * (delta.real ** 2 + delta.imag ** 2) - (mb * delta.conjugate() ** 2).real) / db
    value = -1.0 + 0.5 * (math.log(db / da) + trace_term + shift_term)
    if not value >= NEGATIVE_ROUNDOFF_FLOOR:
        raise InvalidStateError(f"relative Wigner entropy {value:.3e} is beyond the roundoff floor")
    return max(value, 0.0)


def mean_energy(state: GaussianState, spec: SystemBathSpec) -> float:
    """Mean energy omega (V + |<a>|^2) of the mode, never below omega/2."""
    return spec.omega * (state.symmetric_variance + abs(state.alpha_mean) ** 2)


def passive_state(state: GaussianState) -> GaussianState:
    """Zero-mean thermal state with the same Wigner entropy as the input.

    Displacements and covariance reshaping are undone; only the thermal scale
    sqrt(det cov) survives.
    """
    f_pi = passive_occupation(state)
    return GaussianState.from_moments(0j, f_pi, 0j)


def ergotropy(state: GaussianState, spec: SystemBathSpec) -> float:
    """Maximum work extractable by cyclic unitaries.

    The sum of the two shares of ergotropy_split; the test suite checks it
    against mean_energy(state) - omega f_pi and against the paper's identity
    omega f_pi K[W || W_passive].  Zero exactly for thermal states.
    """
    return sum(ergotropy_split(state, spec))


def ergotropy_split(state: GaussianState, spec: SystemBathSpec) -> tuple[float, float]:
    """Ergotropy split into mean-vector and covariance contributions.

    Returns (omega |<a>|^2, omega |M|^2 / (V + f_pi)), the second being
    omega (V - f_pi) rationalised.  Both parts are nonnegative, sum to the
    total ergotropy and equal row 0 of sample_trajectory bit for bit.
    """
    _, erg_v, erg_theta = _work(*_moduli(state), spec.omega)
    return float(erg_v), float(erg_theta)


def evaluate_wigner(state: GaussianState, point) -> float:
    """Wigner density at a phase-space point (PhasePoint or plain complex).

    Strictly positive; integrates to one over the plane (checked by
    quadrature in the test suite).
    """
    alpha = point.alpha if isinstance(point, PhasePoint) else complex(point)
    det = state.cov_det
    delta = alpha - state.alpha_mean
    quad = (
        state.symmetric_variance * (delta.real ** 2 + delta.imag ** 2)
        - (state.anomalous_variance * delta.conjugate() ** 2).real
    ) / det
    return math.exp(-quad) / (math.pi * math.sqrt(det))
