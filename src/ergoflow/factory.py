"""Constructors for the standard single-mode Gaussian state families.

Thermal seeds, phase-space displacements and Bogoliubov squeezing compose to
the most general single-mode Gaussian state.  The composite constructor
applies the displacement first and the squeezing second, so the mean of the
composite state is the squeezed image of the raw amplitude.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, _finite, _state

__all__ = [
    "SqueezingParameter",
    "thermal_state",
    "displace",
    "squeeze",
    "displaced_thermal",
    "squeezed_thermal",
    "squeezed_displaced_thermal",
    "random_state",
]

# Largest squeezing magnitude whose cosh 2r is a float.
_MAX_SQUEEZING = 0.5 * math.acosh(sys.float_info.max)


@dataclass(frozen=True)
class SqueezingParameter:
    """Squeezing magnitude r >= 0 and phase theta (radians)."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not _finite(self.r, self.theta):
            raise ValueError("squeezing parameters must be finite")
        if self.r < 0.0:
            raise ValueError("squeezing magnitude r must be nonnegative")


def _squeezing(z) -> SqueezingParameter:
    return z if isinstance(z, SqueezingParameter) else SqueezingParameter(z)


def _seed_scale(nbar_pi) -> float:
    """Covariance scale f_pi = nbar_pi + 1/2 of a thermal seed; ValueError unless nbar_pi >= 0 and f_pi^2 are finite."""
    if not _finite(nbar_pi) or nbar_pi < 0.0:
        raise ValueError("nbar_pi must be finite and nonnegative")
    f_pi = float(nbar_pi) + 0.5
    if not math.isfinite(f_pi * f_pi):
        raise ValueError("nbar_pi exceeds float range: (nbar_pi + 1/2)^2 overflows")
    return f_pi


def _cosh_2r(r: float) -> float:
    """cosh 2r, or ValueError where it overflows (r above _MAX_SQUEEZING, about 355.2)."""
    if r > _MAX_SQUEEZING:
        raise ValueError(f"squeezing r = {r} exceeds float range: cosh 2r overflows")
    return math.cosh(2.0 * r)


def _squeezed_seed(f_pi: float, r: float) -> tuple:
    """(V, |M|, lam) equal bit for bit to squeeze(thermal_state(f_pi - 1/2), r)'s; ValueError as there.

    Both use only math, so they agree at any numpy CPU level.
    """
    v = _cosh_2r(r) * f_pi
    if not math.isfinite(v * v):
        raise ValueError(f"seed nbar_pi + 1/2 = {f_pi} at r = {r} takes the moments beyond float range: V^2 overflows")
    m = 2.0 * math.cosh(r) * math.sinh(r) * f_pi
    return v, m, f_pi * f_pi / (v + m)


def thermal_state(occ) -> GaussianState:
    """Zero-mean state with covariance (nbar_pi + 1/2) I for occupation occ = nbar_pi >= 0."""
    f = _seed_scale(occ)
    return _state(0j, f, 0j, f)


def displace(state: GaussianState, amp) -> GaussianState:
    """Shift the mean by a finite amplitude amp = mu; the covariance is untouched."""
    if not _finite(amp):
        raise ValueError("mu must be finite")
    return _state(state._alpha + complex(amp), state._variance, state._anomalous, state._lam)


def squeeze(state: GaussianState, z) -> GaussianState:
    """Apply the Bogoliubov map a -> a cosh r - a+ e^{i theta} sinh r.

    The mean transforms linearly, the covariance by congruence; det cov is
    preserved (the map is symplectic), so lam = det / (V + |M|) needs no
    subtraction.  Raises ValueError when cosh 2r overflows (r above about
    355.2) or the squeezed moments exceed float range.
    """
    zz = _squeezing(z)
    c2, s2 = _cosh_2r(zz.r), math.sinh(2.0 * zz.r)
    c, s = math.cosh(zz.r), math.sinh(zz.r)
    phase = cmath.exp(1j * zz.theta)
    v = state.alpha_mean
    a = state.symmetric_variance
    m = state.anomalous_variance
    new_v = c * v - phase * s * v.conjugate()
    new_a = c2 * a - s2 * (phase.conjugate() * m).real
    new_m = c * c * m - 2.0 * phase * c * s * a + phase * phase * s * s * m.conjugate()
    if not (cmath.isfinite(new_v) and math.isfinite(new_a) and cmath.isfinite(new_m)):
        raise ValueError(f"squeezing r = {zz.r} takes the moments beyond float range")
    return _state(new_v, new_a, new_m, state.cov_det / (new_a + abs(new_m)))


def displaced_thermal(occ, amp) -> GaussianState:
    return displace(thermal_state(occ), amp)


def squeezed_thermal(occ, z) -> GaussianState:
    return squeeze(thermal_state(occ), z)


def squeezed_displaced_thermal(occ, amp, z) -> GaussianState:
    """Most general single-mode Gaussian state: squeeze(displace(thermal)).

    Note the mean ends up as mu cosh r - mu* e^{i theta} sinh r, so the
    displacement share of the ergotropy is omega |squeezed mean|^2, not
    omega |mu|^2, unless r = 0.
    """
    return squeeze(displace(thermal_state(occ), amp), z)


def random_state(rng: np.random.Generator) -> GaussianState:
    """Random composite state for randomized suites: uniform nbar_pi, r, |mu| in [0, 2), [0, 1.5), [0, 2)."""
    # rng.uniform(0, high) is high * rng.random() bit for bit, so one call draws all five
    occ, r, theta, modulus, phase = (rng.random(5) * (2.0, 1.5, 2.0 * math.pi, 1.0, 1.0)).tolist()
    mu = 2.0 * modulus * cmath.exp(2j * math.pi * phase)
    return squeezed_displaced_thermal(occ, mu, SqueezingParameter(r, theta))
