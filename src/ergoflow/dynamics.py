"""Closed-form relaxation of Gaussian states in a thermal channel.

Weak damping at rate gamma toward bath occupation nbar leaves the state
Gaussian; the moments obey

    <a>(t) = <a>(0) exp(-(i omega + gamma/2) t),
    V(t)   = (V(0) - f) exp(-gamma t) + f,          f = nbar + 1/2,
    M(t)   = M(0) exp(-(gamma + 2 i omega) t),

so the full covariance evolution is the solution of the diagonal-drift
Lyapunov equation dC/dt = L C + C L+ + gamma f I.  Every recorded observable
(energies, ergotropy and its split, entropy, effective squeezed-thermal
parameters) follows in closed form; the dimensionless time tau = gamma t is
used for trajectory grids.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .factory import _cosh_2r, _seed_scale, _squeezing
from .states import GaussianState, InvalidStateError, SystemBathSpec, _moduli, _work

__all__ = [
    "EffectiveParameters",
    "Trajectory",
    "ErgotropyRate",
    "evolve_analytic",
    "effective_parameters",
    "sample_trajectory",
    "ergotropy_rate",
]

LOG_PI_PLUS_ONE = math.log(math.pi) + 1.0


@dataclass(frozen=True)
class EffectiveParameters:
    """Squeezed-thermal parameterization of a relaxing covariance.

    Any evolved single-mode covariance is again of squeezed-thermal form;
    these are its thermal scale f_beta_t = sqrt(det cov), squeezing magnitude
    r_t, rotating phase theta_t = theta - 2 omega t, and the purely thermal
    relaxation scale delta_beta = (f_pi - f) exp(-gamma t) + f.
    """

    f_beta_t: float
    r_t: float
    theta_t: float
    delta_beta: float


@dataclass(frozen=True)
class Trajectory:
    """Observables sampled along a relaxation, indexed by tau = gamma t."""

    tau: np.ndarray
    e_state: np.ndarray
    e_passive: np.ndarray
    ergotropy: np.ndarray
    erg_v: np.ndarray
    erg_theta: np.ndarray
    wigner_entropy: np.ndarray
    f_beta_t: np.ndarray
    r_t: np.ndarray

    def __len__(self):
        return int(self.tau.size)


class ErgotropyRate(NamedTuple):
    """d ergotropy/dt split into energy-flux and entropy contributions."""

    rate: float
    flux: float
    entropy_term: float


def _decay(spec: SystemBathSpec, t: float) -> float:
    """exp(-gamma t) for an evolution time t, which must be finite and nonnegative."""
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("evolution time must be finite and nonnegative")
    return math.exp(-spec.gamma * t)


def _relax(a0, m0, v0_sq, f, x):
    """Moduli (V, |M|, |<a>|^2) relaxed to x = exp(-gamma t) toward bath scale f, elementwise."""
    return a0 * x + f * (1.0 - x), m0 * x, v0_sq * x


def evolve_analytic(state0: GaussianState, spec: SystemBathSpec, t: float) -> GaussianState:
    """State after damping for time t >= 0 (closed form, semigroup exact)."""
    f = spec.f_beta
    decay = _decay(spec, t)
    v = state0.alpha_mean * cmath.exp(-(1j * spec.omega + 0.5 * spec.gamma) * t)
    # convex combination: exact at t = 0 and in the t -> infinity limit
    a = state0.symmetric_variance * decay + f * (1.0 - decay)
    m = state0.anomalous_variance * cmath.exp(-(spec.gamma + 2j * spec.omega) * t)
    return GaussianState.from_moments(v, a, m)


def effective_parameters(occ, z, spec: SystemBathSpec, t: float) -> EffectiveParameters:
    """Time-dependent (f_beta_t, r_t, theta_t, delta_beta) of a squeezed thermal seed.

    Consistent with evolve_analytic: the evolved covariance has
    det cov = f_beta_t^2 and V = f_beta_t cosh(2 r_t).  Raises ValueError,
    as squeezed_thermal(occ, z) does, when cosh 2r overflows (r above about
    355.2) or the seed's variance f_pi cosh 2r squared is not a float.
    """
    x = _decay(spec, t)
    f_pi, f, zz = _seed_scale(occ), spec.f_beta, _squeezing(z)
    seed_variance = f_pi * _cosh_2r(zz.r)
    if not math.isfinite(seed_variance * seed_variance):
        raise ValueError("squeezed seed exceeds float range: its variance squared overflows")
    delta_beta = f_pi * x + f * (1.0 - x)
    sinh_sq = math.sinh(zz.r) ** 2
    f_t = math.sqrt(delta_beta ** 2 + 4.0 * f_pi * f * x * (1.0 - x) * sinh_sq)
    cosh_2rt = (delta_beta + 2.0 * f_pi * x * sinh_sq) / f_t
    r_t = 0.5 * math.acosh(max(1.0, cosh_2rt))
    if not (math.isfinite(f_t) and math.isfinite(r_t)):
        raise ValueError("effective parameters exceed float range")
    theta_t = zz.theta - 2.0 * spec.omega * t
    return EffectiveParameters(f_t, r_t, theta_t, delta_beta)


def sample_trajectory(state0: GaussianState, spec: SystemBathSpec, tau_grid) -> Trajectory:
    """Sample the relaxation of state0 on a dimensionless tau = gamma t grid.

    The grid must start at 0 and increase strictly.  Row 0's erg_v and
    erg_theta equal ergotropy_split bit for bit; every record has
    e_state - e_passive = ergotropy and erg_v + erg_theta = ergotropy up to roundoff.
    Raises InvalidStateError where the relaxing V^2 - |M|^2 rounds to <= 0,
    as it can for squeezing r above about 9.7, instead of returning nan or -inf.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size == 0:
        raise ValueError("tau grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau grid must be finite")
    if tau[0] != 0.0:
        raise ValueError("tau grid must start at 0")
    if tau.size > 1 and not np.all(np.diff(tau) > 0.0):
        raise ValueError("tau grid must be strictly increasing")

    a, m, v_sq = _relax(*_moduli(state0), spec.f_beta, np.exp(-tau))
    with np.errstate(invalid="ignore"):
        f_t, erg_v, erg_theta = _work(a, m, v_sq, spec.omega)
    if not np.all(f_t > 0.0):
        raise InvalidStateError("det cov of the relaxing state rounds to <= 0 in floating point")
    e_state = spec.omega * (a + v_sq)
    e_passive = spec.omega * f_t
    erg = e_state - e_passive
    entropy = LOG_PI_PLUS_ONE + np.log(f_t)
    r_t = 0.5 * np.arccosh(np.maximum(a / f_t, 1.0))
    return Trajectory(tau, e_state, e_passive, erg, erg_v, erg_theta, entropy, f_t, r_t)


def ergotropy_rate(state0: GaussianState, spec: SystemBathSpec, t: float) -> ErgotropyRate:
    """Instantaneous discharge rate at time t, with its two contributions.

    Returns (rate, flux, entropy_term) where flux = -dE/dt is the energy
    outflow, entropy_term = omega sqrt(det cov) dS/dt equals the passive
    energy drift (minus the passive-state flux), and
    rate = -flux - entropy_term.  All derivatives are with respect to the
    raw time t and evaluated from the relaxed moduli.
    """
    omega, gamma, f = spec.omega, spec.gamma, spec.f_beta
    a, m, v_sq = _relax(*_moduli(state0), f, _decay(spec, t))
    f_t = float(_work(a, m, v_sq, omega)[0])
    flux = gamma * omega * (a + v_sq - f)
    entropy_term = gamma * omega * (f * a / f_t - f_t)
    return ErgotropyRate(-flux - entropy_term, flux, entropy_term)
