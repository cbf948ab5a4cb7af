"""Single-mode Gaussian states and their static energetic content.

A Gaussian state of one bosonic mode is fixed by three moments in the
mode-operator basis u = (a, a+):

    <a>,   V = <a+a> + 1/2 - |<a>|^2,   M = <a^2> - <a>^2,

where V is the symmetrized variance and M the anomalous variance.  They are
the entries of the mean vector v = (<a>, <a+>) and the covariance matrix
cov = [[V, M], [conj(M), V]], whose eigenvalues are lam = V - |M| (the
variance of the squeezed quadrature) and lam + 2|M|.  So det cov =
lam (lam + 2|M|) >= 1/4 is a product of positive terms, with the vacuum
saturating the bound (Weedbrook et al., RMP 84, 621 (2012)).  GaussianState
stores <a>, V, M and lam as Python scalars, checked once when the state is
made from its moments, and builds cov as an array only when asked for it.

Every quantity in this module is an exact closed form in the moments: the
mean energy, the Wigner (phase-space) entropy, the relative entropy between
two Wigner densities, the passive state reachable by unitaries, and the
ergotropy with its displacement/covariance split, which one elementwise
core (_work) evaluates on (lam, |M|, |<a>|^2) for scalars, trajectories and
the crossing oracle; E_erg = omega f_pi K[W || W_pi] is a checked route.
Units use hbar = k_B = 1 throughout.
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

# Absolute tolerance for the moment checks (V real, vacuum floor, det cov at
# least 1/4).  Loose enough that round-tripping a state through the
# dissipative dynamics never spuriously rejects it.
VALIDATION_ATOL = 1e-10

# Relative entropies are nonnegative: values in [NEGATIVE_ROUNDOFF_FLOOR, 0) are
# roundoff and clamp to zero, and float does not resolve a value below it.
NEGATIVE_ROUNDOFF_FLOOR = -1e-12

VACUUM_VARIANCE = 0.5
_LOG_PI_PLUS_ONE = math.log(math.pi) + 1.0


class InvalidStateError(ValueError):
    """The supplied moments do not describe a physical Gaussian state."""


class GaussianState:
    """Immutable carrier of the moments <a>, V and M, checked once when the state is made.

    The moments and lam are stored as Python scalars; :attr:`cov` builds a
    fresh read-only array on each access.  :meth:`from_moments` is the entry
    point for moments from outside and takes lam = V - |M|; the factory
    constructors and evolve_analytic carry lam without that cancellation.
    Moments beyond float range raise ValueError; unphysical ones raise
    InvalidStateError.
    """

    __slots__ = ("_alpha", "_variance", "_anomalous", "_lam")

    def __init__(self, *args, **kwargs):
        # _state makes every state without calling this, so a direct call would leave the slots unset
        raise TypeError("build a GaussianState with GaussianState.from_moments(<a>, V, M)")

    @classmethod
    def from_moments(cls, alpha_mean, symmetric_variance, anomalous_variance):
        """Build a state from <a>, V and M; the conjugate entries are implied."""
        return _state(alpha_mean, symmetric_variance, anomalous_variance)

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
        """det cov = lam (lam + 2|M|), a product of positive terms."""
        return self._lam * (self._lam + 2.0 * abs(self._anomalous))

    def __repr__(self):
        return (
            f"GaussianState(<a>={self.alpha_mean:.6g}, V={self.symmetric_variance:.6g}, "
            f"M={self.anomalous_variance:.6g})"
        )


def _state(alpha, variance, anomalous, lam=None) -> GaussianState:
    """State of moments (<a>, V, M) and squeezed-quadrature variance lam, once they pass checks.

    lam = V - |M| when None.  The moments must be finite, V real to
    VALIDATION_ATOL, at or above the vacuum floor, and det cov = lam (lam +
    2|M|) positive and at least 1/4 (to VALIDATION_ATOL); a failure raises
    InvalidStateError (also for an int beyond float range).  Moments whose
    V^2, |<a>|^2 or |M| is not a finite float exceed float range and raise
    ValueError.
    """
    if not _finite(alpha, variance, anomalous):
        raise InvalidStateError("mean/cov contain non-finite entries")
    alpha, variance, anomalous = complex(alpha), complex(variance), complex(anomalous)
    if abs(variance.imag) > VALIDATION_ATOL:
        raise InvalidStateError("diagonal covariance entries must be real")
    v = float(variance.real)
    if v < VACUUM_VARIANCE - VALIDATION_ATOL:
        raise InvalidStateError(f"variance {v} below the vacuum floor 1/2")
    amplitude, m = _modulus(alpha, "<a>"), _modulus(anomalous, "M")
    if not (math.isfinite(v * v) and math.isfinite(amplitude * amplitude)):
        raise ValueError("moments exceed float range: V^2 or |<a>|^2 overflows")
    lam = v - m if lam is None else lam
    det = lam * (lam + 2.0 * m)
    if det <= 0.0 or det < 0.25 - VALIDATION_ATOL:
        raise InvalidStateError(f"det cov = {det} violates the uncertainty bound 1/4")
    state = object.__new__(GaussianState)
    state._alpha, state._variance, state._anomalous, state._lam = alpha, v, anomalous, lam
    return state


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
            if not _finite(getattr(self, name)):
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


def _check_energy(v, v_sq, omega: float, f: float) -> None:
    """ValueError unless omega max(V + |<a>|^2, f), a relaxation's largest energy, is a float.

    No term that the core forms along a relaxation toward bath scale f exceeds it.
    """
    if not math.isfinite(omega * max(v + v_sq, f)):
        raise ValueError("energy exceeds float range: omega (V + |<a>|^2) or omega f overflows")


def _finite(*values) -> bool:
    """True when every value, real or complex, is finite; an int beyond float range is not (OverflowError)."""
    try:
        for value in values:
            if not cmath.isfinite(value):
                return False
    except OverflowError:
        return False
    return True


def _modulus(z: complex, name: str) -> float:
    """|z| of a finite or infinite z; ValueError where it exceeds float range (abs raises OverflowError)."""
    try:
        return abs(z)
    except OverflowError:
        raise ValueError(f"{name} exceeds float range: |{name}| overflows") from None


def _moduli(state: GaussianState, spec: SystemBathSpec) -> tuple:
    """(lam, |M|, |<a>|^2), all that the energetics read of a state, checked against spec."""
    v_sq = abs(state._alpha) ** 2
    _check_energy(state._variance, v_sq, spec.omega, spec.f_beta)
    return state._lam, abs(state._anomalous), v_sq


def _turn(m: complex) -> complex:
    """Unit square root of M / |M|, 1 for M = 0, exact for real M; rooted first, so a subnormal M keeps its phase."""
    root = cmath.sqrt(m)
    return root / abs(root) if m else 1.0


def _quadratic_form(state: GaussianState, delta: complex) -> float:
    """(V |delta|^2 - Re(M conj(delta)^2)) / det cov, inf where it exceeds float range.

    On the principal axes, u^2 / (lam + 2|M|) + w^2 / lam for u + iw =
    delta conj(_turn(M)), so nothing cancels.  delta is first divided by a
    power of two s near |delta| and the form multiplied by s twice at the
    end: both exact in binary, so no square of delta overflows and the
    scaling changes no bit of the form in the normal range.
    """
    s = math.ldexp(1.0, math.frexp(max(abs(delta.real), abs(delta.imag)))[1] - 1)
    u = complex(delta.real / s, delta.imag / s) * _turn(state._anomalous).conjugate()
    form = u.real * u.real / (state._lam + 2.0 * abs(state._anomalous)) + u.imag * u.imag / state._lam
    return form * s * s


def _work(lam, m, v_sq, omega):
    """(f_pi, erg_v, erg_theta) of moduli (lam, |M|, |<a>|^2) = (lam, m, v_sq), elementwise.

    f_pi = sqrt(lam (lam + 2m)) and erg_theta = omega (V - f_pi) with V = lam + m,
    rationalised to omega m^2 / (V + f_pi): no term cancels, and none exceeds omega V.
    """
    f_pi = np.sqrt(lam * (lam + 2.0 * m))
    return f_pi, omega * v_sq, omega * (m * m / (lam + m + f_pi))


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
    return _LOG_PI_PLUS_ONE + math.log(passive_occupation(state))


def relative_wigner_entropy(state_a: GaussianState, state_b: GaussianState) -> float:
    """Kullback-Leibler divergence K[W_a || W_b] of the two Wigner densities.

    Closed form for Gaussian densities:

        K = -1 + (1/2) [ ln(det_b / det_a) + Tr(cov_b^-1 cov_a)
                         + (v_a - v_b)+ cov_b^-1 (v_a - v_b) ].

    Nonnegative, and 0.0 for identical moments.  The trace term, which holds
    the -1, and the shift are taken on state_b's principal axes, so nothing
    cancels and no intermediate overflows where K is a float.  A K beyond
    float range raises ValueError, and so does one that float does not
    resolve, computed below NEGATIVE_ROUNDOFF_FLOOR.

    The absolute error is a few ulps of the largest term, 1 + |ln(det_b /
    det_a)| / 2 + (lam_a + 2|M_a| + |<a>_a - <a>_b|^2) / lam_b: at most 2.0
    ulps in 10^4 random pairs against a 60-digit evaluation of the same lam,
    M and <a>.  So a K below that reads 0.0 for distinct moments:
    squeezed_thermal(0.2, 1e-9) against its passive state gives 0.0, where K
    is 8.9e-18.
    """
    lam_a, ma, da = state_a._lam, abs(state_a._anomalous), state_a.cov_det
    lam_b, mb, db = state_b._lam, abs(state_b._anomalous), state_b.cov_det
    ratio = db / da
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(db) - math.log(da)
    # Tr(cov_b^-1 cov_a) / 2 - 1 on b's axes, where a's variances are lam_a + 2|M_a| - turn and
    # lam_a + turn, turn from the angle between the axes: each less b's, over b's, so 0 for a = b
    turn = 2.0 * ma * (_turn(state_a._anomalous) * _turn(state_b._anomalous).conjugate()).imag ** 2
    wide = (lam_a - lam_b + 2.0 * (ma - mb) - turn) / (lam_b + 2.0 * mb)
    trace_term = 0.5 * (wide + (lam_a - lam_b + turn) / lam_b)
    half_shift = _quadratic_form(state_b, state_a.alpha_mean - state_b.alpha_mean)
    value = 0.5 * log_ratio + trace_term + half_shift
    if not math.isfinite(value):
        raise ValueError("relative Wigner entropy exceeds float range")
    if value < NEGATIVE_ROUNDOFF_FLOOR:
        raise ValueError(f"relative Wigner entropy is not resolved in float: computed {value:.3e}")
    return max(value, 0.0)


def mean_energy(state: GaussianState, spec: SystemBathSpec) -> float:
    """Mean energy omega ((lam + |M|) + |<a>|^2), the core's sum; ValueError past float range."""
    lam, m, v_sq = _moduli(state, spec)
    return spec.omega * ((lam + m) + v_sq)


def passive_state(state: GaussianState) -> GaussianState:
    """Zero-mean thermal state with the same Wigner entropy as the input.

    Displacements and covariance reshaping are undone; only the thermal scale
    sqrt(det cov) survives.
    """
    f_pi = passive_occupation(state)
    return _state(0j, f_pi, 0j, f_pi)


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
    total ergotropy and equal the erg_v and erg_theta of row 0 of
    sample_trajectory(state, spec, grid) bit for bit.
    """
    _, erg_v, erg_theta = _work(*_moduli(state, spec), spec.omega)
    return float(erg_v), float(erg_theta)


def evaluate_wigner(state: GaussianState, point) -> float:
    """Wigner density at a phase-space point alpha, given as a finite complex number.

    Positive, and 0.0 only where it underflows far from the mean;
    integrates to one over the plane (checked by quadrature in the test
    suite).  A point that is not finite raises ValueError.
    """
    if not _finite(point):
        raise ValueError("phase-space point alpha must be finite")
    quad = _quadratic_form(state, complex(point) - state.alpha_mean)
    return math.exp(-quad) / (math.pi * math.sqrt(state.cov_det))
