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

from .states import GaussianState

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
        if not (math.isfinite(self.r) and math.isfinite(self.theta)):
            raise ValueError("squeezing parameters must be finite")
        if self.r < 0.0:
            raise ValueError("squeezing magnitude r must be nonnegative")


def _squeezing(z) -> SqueezingParameter:
    return z if isinstance(z, SqueezingParameter) else SqueezingParameter(float(z))


def _seed_scale(nbar_pi) -> float:
    """Covariance scale nbar_pi + 1/2 of a thermal seed; ValueError unless nbar_pi is finite and >= 0."""
    nbar_pi = float(nbar_pi)
    if not math.isfinite(nbar_pi) or nbar_pi < 0.0:
        raise ValueError("nbar_pi must be finite and nonnegative")
    return nbar_pi + 0.5


def _cosh_2r(r: float) -> float:
    """cosh 2r, or ValueError where it overflows (r above _MAX_SQUEEZING, about 355.2)."""
    if r > _MAX_SQUEEZING:
        raise ValueError(f"squeezing r = {r} exceeds float range: cosh 2r overflows")
    return math.cosh(2.0 * r)


def thermal_state(occ) -> GaussianState:
    """Zero-mean state with covariance (nbar_pi + 1/2) I for occupation occ = nbar_pi >= 0."""
    return GaussianState.from_moments(0j, _seed_scale(occ), 0j)


def displace(state: GaussianState, amp) -> GaussianState:
    """Shift the mean by a finite amplitude amp = mu; the covariance is untouched."""
    mu = complex(amp)
    if not cmath.isfinite(mu):
        raise ValueError("mu must be finite")
    return GaussianState.from_moments(
        state.alpha_mean + mu, state.symmetric_variance, state.anomalous_variance
    )


def squeeze(state: GaussianState, z) -> GaussianState:
    """Apply the Bogoliubov map a -> a cosh r - a+ e^{i theta} sinh r.

    The mean transforms linearly, the covariance by congruence; det cov is
    preserved (the map is symplectic).  Raises ValueError when cosh 2r
    overflows (r above about 355.2) or the squeezed moments exceed float
    range.
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
    return GaussianState.from_moments(new_v, new_a, new_m)


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


def random_state(rng: np.random.Generator, max_nbar=2.0, max_r=1.5, max_mu=2.0) -> GaussianState:
    """Random member of the composite family, for randomized verification suites."""
    occ = rng.uniform(0.0, max_nbar)
    z = SqueezingParameter(rng.uniform(0.0, max_r), rng.uniform(0.0, 2.0 * math.pi))
    mu = max_mu * rng.uniform(0.0, 1.0) * cmath.exp(2j * math.pi * rng.uniform(0.0, 1.0))
    return squeezed_displaced_thermal(occ, mu, z)
