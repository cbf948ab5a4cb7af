"""Fixed-step RK4 integration of the damped-mode moment equations.

The covariance is advanced through the literal matrix ODE

    dC/dt = L C + C L+ + N,     L = -1/2 diag(gamma + 2i omega, gamma - 2i omega),
    N = gamma f I,

and the first moment through dv/dt = L v, with classical 4th-order
Runge-Kutta steps.  The exponential solution is never used, so agreement
with the closed-form evolution is a genuine cross-check.  Batched over
initial states for the randomized suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..states import GaussianState, SystemBathSpec

__all__ = [
    "IntegratorConfig",
    "integrate_lyapunov",
    "rk4_moment_path",
    "convergence_order",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and final time of one classical RK4 integration."""

    dt: float
    t_final: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not (math.isfinite(self.t_final) and self.t_final >= 0.0):
            raise ValueError("t_final must be finite and nonnegative")


def _generators(spec: SystemBathSpec, omit_gamma_in_noise: bool):
    drift = -0.5 * np.array(
        [
            [spec.gamma + 2j * spec.omega, 0.0],
            [0.0, spec.gamma - 2j * spec.omega],
        ],
        dtype=complex,
    )
    # The stationary covariance f I forces the noise prefactor gamma; the
    # unscaled variant exists only for the mutation sanity check in `verify`.
    prefactor = 1.0 if omit_gamma_in_noise else spec.gamma
    noise = prefactor * spec.f_beta * np.eye(2, dtype=complex)
    return drift, noise


def rk4_moment_path(
    states: Sequence[GaussianState],
    spec: SystemBathSpec,
    dt: float,
    record_times: Sequence[float],
    *,
    omit_gamma_in_noise: bool = False,
):
    """Integrate a batch of states, recording moments at the requested times.

    Parameters
    ----------
    states:
        Initial states; the batch is advanced jointly with vectorized steps.
    dt:
        Full step size.  Each record time is reached by whole steps plus one
        shortened final step when it is not a multiple of dt.
    record_times:
        Nondecreasing, nonnegative times (raw units, not tau).

    Returns
    -------
    (means, covs):
        Complex arrays of shapes (T, B) and (T, B, 2, 2).
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be finite and positive")
    record_times = [float(t) for t in record_times]
    if any(t < 0.0 or not math.isfinite(t) for t in record_times):
        raise ValueError("record times must be finite and nonnegative")
    if any(b < a for a, b in zip(record_times, record_times[1:])):
        raise ValueError("record times must be nondecreasing")

    means = np.array([s.alpha_mean for s in states], dtype=complex)
    covs = np.stack([s.cov for s in states]).astype(complex)
    drift, noise = _generators(spec, omit_gamma_in_noise)
    drift_h = drift.conj().T
    lam_v = drift[0, 0]

    def rhs(v, c):
        return lam_v * v, drift @ c + c @ drift_h + noise

    def step(v, c, h):
        k1v, k1c = rhs(v, c)
        k2v, k2c = rhs(v + 0.5 * h * k1v, c + 0.5 * h * k1c)
        k3v, k3c = rhs(v + 0.5 * h * k2v, c + 0.5 * h * k2c)
        k4v, k4c = rhs(v + h * k3v, c + h * k3c)
        return (
            v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            c + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c),
        )

    rec_means, rec_covs = [], []
    t_now = 0.0
    # divergence is reported via the finiteness check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for target in record_times:
            while target - t_now > dt * (1.0 + 1e-9):
                means, covs = step(means, covs, dt)
                t_now += dt
            remainder = target - t_now
            if remainder > 1e-14 * max(1.0, target):
                means, covs = step(means, covs, remainder)
            t_now = target
            rec_means.append(means.copy())
            rec_covs.append(covs.copy())

    rec_means = np.stack(rec_means)
    rec_covs = np.stack(rec_covs)
    if not (np.all(np.isfinite(rec_means)) and np.all(np.isfinite(rec_covs))):
        raise ArithmeticError("RK4 moments overflowed; reduce the step size")
    return rec_means, rec_covs


def integrate_lyapunov(
    state0: GaussianState,
    spec: SystemBathSpec,
    cfg: IntegratorConfig,
    *,
    omit_gamma_in_noise: bool = False,
) -> GaussianState:
    """State at cfg.t_final by RK4; global error O(dt^4).

    The integrated covariance matrix is handed to the state constructor
    as-is, so structural drift beyond the validation tolerance surfaces as
    an error instead of being silently repaired.
    """
    means, covs = rk4_moment_path(
        [state0], spec, cfg.dt, [cfg.t_final], omit_gamma_in_noise=omit_gamma_in_noise
    )
    v = complex(means[0, 0])
    return GaussianState((v, v.conjugate()), covs[0, 0])


def convergence_order(
    state0: GaussianState,
    spec: SystemBathSpec,
    t_final: float,
    dts: Sequence[float],
) -> float:
    """Measured order from errors against the closed form at t_final.

    Uses max-abs covariance errors at the supplied step sizes and returns
    the mean slope of log(error) against log(dt); classical RK4 should give
    a value near 4.
    """
    from ..dynamics import evolve_analytic

    exact = evolve_analytic(state0, spec, t_final).cov
    errors = []
    for dt in dts:
        approx = integrate_lyapunov(state0, spec, IntegratorConfig(dt=dt, t_final=t_final))
        errors.append(float(np.max(np.abs(approx.cov - exact))))
    slopes = [
        math.log(errors[i] / errors[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(errors) - 1)
    ]
    return float(np.mean(slopes))
