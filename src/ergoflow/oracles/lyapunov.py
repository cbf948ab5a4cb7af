"""Fixed-step RK4 integration of the damped-mode moment equations.

The covariance is advanced through the literal matrix ODE

    dC/dt = L C + C L+ + N,     L = -1/2 diag(gamma + 2i omega, gamma - 2i omega),
    N = gamma f I,

and the first moment through dv/dt = L v, with classical 4th-order
Runge-Kutta steps.  L is diagonal, so L C + C L+ is elementwise,
(L C + C L+)_jk = l_j C_jk + C_jk conj(l_k), and each state is stepped as
one row (v, C00, C01, C10, C11) of the same ODE.  The exponential solution
is never used, so agreement with the closed-form evolution is a genuine
cross-check.  rk4_moment_path is the one entry point, batched over initial
states and recording raw moment arrays; the RK4 driver here also integrates
the Fock oracle's master equation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..states import GaussianState, SystemBathSpec

__all__ = ["rk4_moment_path", "convergence_order"]


def _rk4_path(rhs, y0, dt, record_times):
    """Classical RK4 from y0 at t = 0; a copy of y at each record time.

    Each record time is reached by whole steps of dt while more than dt
    remains, then one shortened step when the remainder is not negligible.
    The moment and Fock oracles both integrate through this driver.
    """
    if dt <= 0.0 or not math.isfinite(dt):
        raise ValueError("dt must be finite and positive")
    record_times = [float(t) for t in record_times]
    if any(t < 0.0 or not math.isfinite(t) for t in record_times):
        raise ValueError("record times must be finite and nonnegative")
    if any(b < a for a, b in zip(record_times, record_times[1:])):
        raise ValueError("record times must be nondecreasing")

    def step(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y = y0
    records = []
    t_now = 0.0
    for target in record_times:
        while target - t_now > dt * (1.0 + 1e-9):
            y = step(y, dt)
            t_now += dt
        remainder = target - t_now
        if remainder > 1e-14 * max(1.0, target):
            y = step(y, remainder)
        t_now = target
        records.append(y.copy())
    return records


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
        Complex arrays of shapes (T, B) and (T, B, 2, 2); T may be 0.
    """
    # one row (v, C00, C01, C10, C11) per state
    y0 = np.array([(s.alpha_mean, *s.cov.ravel()) for s in states], dtype=complex).reshape(-1, 5)
    # L = diag(l0, l1), so dv/dt = l0 v and (L C + C L+)_jk = l_j C_jk + C_jk conj(l_k)
    l0 = -0.5 * (spec.gamma + 2j * spec.omega)
    l1 = -0.5 * (spec.gamma - 2j * spec.omega)
    # The stationary covariance f I forces the noise prefactor gamma; the
    # unscaled variant exists only for the mutation sanity check in `verify`.
    noise = (1.0 if omit_gamma_in_noise else spec.gamma) * spec.f_beta
    left = np.array([l0, l0, l0, l1, l1])
    right = np.array([0.0, l0.conjugate(), l1.conjugate(), l0.conjugate(), l1.conjugate()])
    forcing = np.array([0.0, noise, 0.0, 0.0, noise], dtype=complex)

    def rhs(y):
        return left * y + y * right + forcing

    # divergence is reported via the finiteness check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        path = _rk4_path(rhs, y0, dt, record_times)
    records = np.stack(path) if path else np.empty((0, *y0.shape), dtype=complex)
    if not np.all(np.isfinite(records)):
        raise ArithmeticError("RK4 moments overflowed; reduce the step size")
    return records[:, :, 0], records[:, :, 1:].reshape(*records.shape[:2], 2, 2)


def convergence_order(
    state0: GaussianState,
    spec: SystemBathSpec,
    t_final: float,
    dts: Sequence[float],
) -> float:
    """Measured order from errors against the closed form at t_final.

    Uses the max-abs errors of the four integrated covariance entries at the
    supplied step sizes and returns
    the mean slope of log(error) against log(dt); classical RK4 should give
    a value near 4.
    """
    from ..dynamics import evolve_analytic

    exact = evolve_analytic(state0, spec, t_final).cov
    errors = []
    for dt in dts:
        covs = rk4_moment_path([state0], spec, dt, [t_final])[1]
        errors.append(float(np.max(np.abs(covs[0, 0] - exact))))
    slopes = [
        math.log(errors[i] / errors[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(errors) - 1)
    ]
    return float(np.mean(slopes))
