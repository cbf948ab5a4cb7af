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

from .factory import _seed_scale, _squeezed_seed, _squeezing
from .states import _LOG_PI_PLUS_ONE, GaussianState, SystemBathSpec, _finite, _moduli, _state, _work

__all__ = [
    "EffectiveParameters",
    "Trajectory",
    "ErgotropyRate",
    "evolve_analytic",
    "effective_parameters",
    "sample_trajectory",
    "ergotropy_rate",
]

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
    if not _finite(t) or t < 0.0:
        raise ValueError("evolution time must be finite and nonnegative")
    return math.exp(-spec.gamma * t)


def _turned(theta: float, spec: SystemBathSpec, t: float) -> float:
    """Phase theta - 2 omega t that M carries after time t; ValueError where it exceeds float range."""
    theta_t = theta - 2.0 * spec.omega * t
    if not math.isfinite(theta_t):
        raise ValueError("phase theta - 2 omega t exceeds float range")
    return theta_t


def _toward(value, f, x):
    """value x + f (1 - x), relaxed to x = exp(-gamma t) toward f: exact at x = 1 and as x -> 0, elementwise."""
    return value * x + f * (1.0 - x)


def _relax(lam0, m0, v0_sq, f, x):
    """Moduli (lam, |M|, |<a>|^2) relaxed to x = exp(-gamma t) toward bath scale f, elementwise."""
    return _toward(lam0, f, x), m0 * x, v0_sq * x


def evolve_analytic(state0: GaussianState, spec: SystemBathSpec, t: float) -> GaussianState:
    """State damped for time t >= 0 (closed form); ValueError where 2 omega t exceeds float range."""
    f = spec.f_beta
    decay = _decay(spec, t)
    _turned(0.0, spec, t)  # the phase of M below must be a float
    v = state0.alpha_mean * cmath.exp(-(1j * spec.omega + 0.5 * spec.gamma) * t)
    a = _toward(state0.symmetric_variance, f, decay)
    m = state0.anomalous_variance * cmath.exp(-(spec.gamma + 2j * spec.omega) * t)
    return _state(v, a, m, _toward(state0._lam, f, decay))


def effective_parameters(occ, z, spec: SystemBathSpec, t: float) -> EffectiveParameters:
    """Time-dependent (f_beta_t, r_t, theta_t, delta_beta) of a squeezed thermal seed.

    Consistent with evolve_analytic: the evolved covariance has
    det cov = f_beta_t^2 and |M| = f_beta_t sinh(2 r_t).  Raises ValueError,
    as squeezed_thermal(occ, z) does, when cosh 2r overflows (r above about
    355.2), the seed's variance squared is not a float or theta_t exceeds
    float range.
    """
    x = _decay(spec, t)
    f_pi, f, zz = _seed_scale(occ), spec.f_beta, _squeezing(z)
    _, m0, lam0 = _squeezed_seed(f_pi, zz.r)
    lam, m, _ = _relax(lam0, m0, 0.0, f, x)
    f_t = float(_work(lam, m, 0.0, 1.0)[0])
    theta_t = _turned(zz.theta, spec, t)
    return EffectiveParameters(f_t, 0.5 * math.asinh(m / f_t), theta_t, _toward(f_pi, f, x))


def sample_trajectory(state0: GaussianState, spec: SystemBathSpec, tau_grid) -> Trajectory:
    """Sample the relaxation of state0 on a dimensionless tau = gamma t grid.

    The grid must start at 0 and increase strictly.  Row 0's erg_v and
    erg_theta equal ergotropy_split's of state0 and spec bit for bit (the
    relaxation is exact at tau = 0, and the shared core uses only correctly
    rounded operations); every record has
    e_state - e_passive = ergotropy and erg_v + erg_theta = ergotropy up to roundoff.
    Raises ValueError, as mean_energy does, where an energy exceeds float range.
    """
    try:
        tau = np.asarray(tau_grid, dtype=float)
    except OverflowError:  # an int beyond float range
        raise ValueError("tau grid must be finite") from None
    if tau.ndim != 1 or tau.size == 0:
        raise ValueError("tau grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau grid must be finite")
    if tau[0] != 0.0:
        raise ValueError("tau grid must start at 0")
    if tau.size > 1 and not np.all(np.diff(tau) > 0.0):
        raise ValueError("tau grid must be strictly increasing")

    # these grid-sized temporaries, their number and order, keep perfbench closed_forms free of page faults
    lam, m, v_sq = _relax(*_moduli(state0, spec), spec.f_beta, np.exp(-tau))
    f_t, erg_v, erg_theta = _work(lam, m, v_sq, spec.omega)
    a = lam + m
    e_state = spec.omega * (a + v_sq)
    e_passive = spec.omega * f_t
    erg = e_state - e_passive
    entropy = _LOG_PI_PLUS_ONE + np.log(f_t)
    r_t = 0.5 * np.arcsinh(m / f_t)
    return Trajectory(tau, e_state, e_passive, erg, erg_v, erg_theta, entropy, f_t, r_t)


def ergotropy_rate(state0: GaussianState, spec: SystemBathSpec, t: float) -> ErgotropyRate:
    """Instantaneous discharge rate at time t, with its two contributions.

    Returns (rate, flux, entropy_term) where flux = -dE/dt is the energy
    outflow, entropy_term = omega sqrt(det cov) dS/dt equals the passive
    energy drift (minus the passive-state flux), and
    rate = -flux - entropy_term.  All derivatives are with respect to the
    raw time t and evaluated from the relaxed moduli.  Raises ValueError
    where the rate or either contribution exceeds float range.
    """
    omega, gamma, f = spec.omega, spec.gamma, spec.f_beta
    lam, m, v_sq = _relax(*_moduli(state0, spec), f, _decay(spec, t))
    f_t = float(_work(lam, m, v_sq, omega)[0])
    a = lam + m
    flux = gamma * omega * (a + v_sq - f)
    entropy_term = gamma * omega * (f * a / f_t - f_t)
    # false for inf and nan; a finite sum of moduli bounds the rate as well
    if not abs(flux) + abs(entropy_term) < math.inf:
        raise ValueError("discharge rate exceeds float range: gamma omega times an energy overflows")
    return ErgotropyRate(-flux - entropy_term, flux, entropy_term)
