"""Single-mode Gaussian states and their static energetic content.

A Gaussian state of one bosonic mode is fixed by three moments in the
mode-operator basis u = (a, a+):

    <a>,   V = <a+a> + 1/2 - |<a>|^2,   M = <a^2> - <a>^2,

where V is the symmetrized variance and M the anomalous variance.  They are
the entries of the mean vector v = (<a>, <a+>) and the covariance matrix
cov = [[V, M], [conj(M), V]], so det cov = V^2 - |M|^2 >= 1/4 with the
vacuum saturating the bound.  GaussianState stores the three moments as
Python scalars, checked once when the state is made, and builds v and cov
as arrays only when asked for them.

Every quantity in this module is an exact closed form in the moments: the
mean energy, the Wigner (phase-space) entropy, the relative entropy between
two Wigner densities, the passive state reachable by unitaries, and the
ergotropy with its displacement/covariance split, which one elementwise
core (_work) evaluates for scalars, trajectories and the crossing oracle;
E_erg = omega f_pi K[W || W_pi] is a checked route.  Units use
hbar = k_B = 1 throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidStateError",
    "GaussianState",
    "SystemBathSpec",
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


def _validated(alpha: complex, variance: complex | float, anomalous: complex) -> tuple:
    """(<a>, V, M) as (complex, float, complex) once they pass the state checks.

    The moments must be finite, V real to VALIDATION_ATOL, at or above the
    vacuum floor, and det cov = V^2 - |M|^2 positive and at least 1/4 (to
    VALIDATION_ATOL); a failure raises InvalidStateError.  Moments whose
    V^2 - |M|^2 or |<a>|^2 is not a finite float exceed float range and
    raise ValueError.
    """
    if not (cmath.isfinite(alpha) and cmath.isfinite(variance) and cmath.isfinite(anomalous)):
        raise InvalidStateError("mean/cov contain non-finite entries")
    if abs(variance.imag) > VALIDATION_ATOL:
        raise InvalidStateError("diagonal covariance entries must be real")
    v = float(variance.real)
    if v < VACUUM_VARIANCE - VALIDATION_ATOL:
        raise InvalidStateError(f"variance {v} below the vacuum floor 1/2")
    det = v * v - (anomalous.real * anomalous.real + anomalous.imag * anomalous.imag)
    amplitude = abs(alpha)
    if not (math.isfinite(det) and math.isfinite(amplitude * amplitude)):
        raise ValueError("moments exceed float range: V^2 - |M|^2 or |<a>|^2 overflows")
    if det <= 0.0 or det < 0.25 - VALIDATION_ATOL:
        raise InvalidStateError(f"det cov = {det} violates the uncertainty bound 1/4")
    return alpha, v, anomalous


class GaussianState:
    """Immutable carrier of the moments <a>, V and M, checked at construction.

    The moments are stored as Python scalars; :attr:`mean` and :attr:`cov`
    build fresh read-only arrays from them on each access.  Build a state
    with :meth:`from_moments`, or from a raw mean vector and covariance
    matrix (as the RK4 oracle does) with ``GaussianState(mean, cov)``, which
    first checks the matrix structure and then keeps (mean[0], cov[0, 0],
    cov[0, 1]).  Moments beyond float range raise ValueError; unphysical
    ones raise InvalidStateError.
    """

    __slots__ = ("_alpha", "_variance", "_anomalous")

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=complex)
        cov = np.asarray(cov, dtype=complex)
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
        self._alpha, self._variance, self._anomalous = _validated(
            complex(mean[0]), cov[0, 0].real, complex(cov[0, 1])
        )

    @classmethod
    def from_moments(cls, alpha_mean, symmetric_variance, anomalous_variance):
        """Build a state from <a>, V and M; the conjugate entries are implied."""
        state = object.__new__(cls)
        state._alpha, state._variance, state._anomalous = _validated(
            complex(alpha_mean), complex(symmetric_variance), complex(anomalous_variance)
        )
        return state

    @property
    def mean(self) -> np.ndarray:
        """Read-only mean vector (<a>, <a>*), built on each access."""
        mean = np.array((self._alpha, self._alpha.conjugate()))
        mean.flags.writeable = False
        return mean

    @property
    def cov(self) -> np.ndarray:
        """Read-only 2x2 covariance matrix [[V, M], [M*, V]], built on each access."""
        v, m = complex(self._variance), self._anomalous
        cov = np.array(((v, m), (m.conjugate(), v)))
        cov.flags.writeable = False
        return cov

    @property
    def alpha_mean(self) -> complex:
        return self._alpha

    @property
    def symmetric_variance(self) -> float:
        return self._variance

    @property
    def anomalous_variance(self) -> complex:
        return self._anomalous

    @property
    def cov_det(self) -> float:
        # V^2 - |M|^2 with every square spelled as a plain product, matching
        # the relative-entropy trace term bit for bit so K[W||W] is exactly 0
        # (pow() and x*x can differ in the last ulp)
        v, m = self._variance, self._anomalous
        return v * v - (m.real * m.real + m.imag * m.imag)

    def close_to(self, other: "GaussianState", atol: float = 1e-12) -> bool:
        """Comparison of the moments <a>, V and M, each to atol."""
        return (
            abs(self._alpha - other._alpha) <= atol
            and abs(self._variance - other._variance) <= atol
            and abs(self._anomalous - other._anomalous) <= atol
        )

    def __repr__(self):
        return (
            f"GaussianState(<a>={self.alpha_mean:.6g}, V={self.symmetric_variance:.6g}, "
            f"M={self.anomalous_variance:.6g})"
        )


@dataclass(frozen=True)
class SystemBathSpec:
    """Mode frequency, damping rate and bath occupation of the thermal channel.

    Raises ValueError unless omega and gamma are positive and nbar is
    nonnegative, all finite, with (nbar + 1/2)^2 a finite float.
    """

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
        # the relaxing moments reach the bath scale f, and det cov its square
        if not math.isfinite(self.f_beta * self.f_beta):
            raise ValueError("nbar exceeds float range: (nbar + 1/2)^2 overflows")

    @property
    def f_beta(self) -> float:
        """Thermal covariance scale nbar + 1/2 of the bath."""
        return self.nbar + 0.5


def _moduli(state: GaussianState) -> tuple:
    """(V, |M|, |<a>|^2): all that the energetic quantities read of a state."""
    return state._variance, abs(state._anomalous), abs(state._alpha) ** 2


def _quadratic_form(state: GaussianState, delta: complex) -> float:
    """(V |delta|^2 - Re(M conj(delta)^2)) / det cov, inf where it exceeds float range.

    delta is divided by a power of two s near |delta| and the form multiplied
    by s twice at the end.  Both steps are exact in binary, and the squares
    are products, which round correctly, so no square of delta overflows and
    the scaling changes no bit of the form in the normal range.
    """
    s = math.ldexp(1.0, math.frexp(max(abs(delta.real), abs(delta.imag)))[1] - 1)
    u = complex(delta.real / s, delta.imag / s)
    v, m = state._variance, state._anomalous
    form = (v * (u.real * u.real + u.imag * u.imag) - (m * u.conjugate() ** 2).real) / state.cov_det
    return form * s * s


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

    Nonnegative, zero only for identical moments.  The trace and shift
    terms are summed halved, with the shift's offset scaled by a power of
    two, so no intermediate overflows where K is a float; a K beyond float
    range raises ValueError.
    """
    va, ma, da = state_a.symmetric_variance, state_a.anomalous_variance, state_a.cov_det
    vb, mb, db = state_b.symmetric_variance, state_b.anomalous_variance, state_b.cov_det
    ratio = db / da
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(db) - math.log(da)
    # Re(mb conj(ma)) spelled out in float ops so that it cancels det exactly
    # when the two states coincide (complex multiply may contract to FMA);
    # the difference is halved first and doubled last, both exact, so that
    # it cannot overflow
    half_trace = (0.5 * (vb * va) - 0.5 * (mb.real * ma.real + mb.imag * ma.imag)) / db * 2.0
    half_shift = _quadratic_form(state_b, state_a.alpha_mean - state_b.alpha_mean)
    value = -1.0 + (0.5 * log_ratio + half_trace + half_shift)
    if not math.isfinite(value):
        raise ValueError("relative Wigner entropy exceeds float range")
    if value < NEGATIVE_ROUNDOFF_FLOOR:
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
    """Wigner density at a phase-space point alpha, given as a finite complex number.

    Positive, and 0.0 only where it underflows far from the mean;
    integrates to one over the plane (checked by quadrature in the test
    suite).  A point that is not finite raises ValueError.
    """
    alpha = complex(point)
    if not cmath.isfinite(alpha):
        raise ValueError("phase-space point alpha must be finite")
    # the form is >= 0; a negative value is roundoff, which must not blow the exponent up
    quad = max(_quadratic_form(state, alpha - state.alpha_mean), 0.0)
    return math.exp(-quad) / (math.pi * math.sqrt(state.cov_det))
