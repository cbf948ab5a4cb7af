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
the Fock oracle's master equation.  It steps in preallocated buffers that
each right-hand side writes into, so a step allocates nothing, and its
records equal those of the textbook RK4 step bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..states import GaussianState, SystemBathSpec

__all__ = ["rk4_moment_path", "convergence_order"]


def _rk4_path(rhs, y0, dt, record_times):
    """Classical RK4 from y0 at t = 0; a copy of y at each record time.

    rhs(y, out, scratch) writes dy/dt at y into out and may overwrite
    scratch, a buffer shaped like y.  y0 is copied once (integers become
    floats), and the stages live in six preallocated buffers, so a step
    allocates nothing.  Each stage runs the ufuncs of y + 0.5*h*k1,
    y + 0.5*h*k2, y + h*k3 and y + (h/6)*(k1 + 2.0*k2 + 2.0*k3 + k4) in the
    same order on the same operands, the scalar factors taken in y's dtype
    as numpy would convert them, so the records equal those of the textbook
    step bit for bit.

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

    y = np.array(y0, dtype=np.result_type(y0, 0.5))
    k1, k2, k3, k4, stage, scratch = (np.empty_like(y) for _ in range(6))
    # factors made in y's dtype here, not converted by numpy on every call
    scalar = y.dtype.type
    two = scalar(2.0)
    mul, add = np.multiply, np.add

    def step(h):
        half, full, sixth = scalar(0.5 * h), scalar(h), scalar(h / 6.0)
        rhs(y, k1, scratch)
        rhs(add(y, mul(half, k1, stage), stage), k2, scratch)
        rhs(add(y, mul(half, k2, stage), stage), k3, scratch)
        rhs(add(y, mul(full, k3, stage), stage), k4, scratch)
        add(k1, mul(two, k2, scratch), stage)
        add(stage, mul(two, k3, scratch), stage)
        add(stage, k4, stage)
        add(y, mul(sixth, stage, stage), y)

    records = []
    t_now = 0.0
    for target in record_times:
        while target - t_now > dt * (1.0 + 1e-9):
            step(dt)
            t_now += dt
        remainder = target - t_now
        if remainder > 1e-14 * max(1.0, target):
            step(remainder)
        t_now = target
        records.append(y.copy())
    return records


def rk4_moment_path(
    states: Sequence[GaussianState],
    spec: SystemBathSpec,
    dt: float,
    record_times: Sequence[float],
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
    # the stationary covariance f I forces the noise prefactor gamma
    noise = spec.gamma * spec.f_beta
    left = np.array([l0, l0, l0, l1, l1])
    right = np.array([0.0, l0.conjugate(), l1.conjugate(), l0.conjugate(), l1.conjugate()])
    forcing = np.array([0.0, noise, 0.0, 0.0, noise], dtype=complex)

    mul, add = np.multiply, np.add

    def rhs(y, out, scratch):
        add(add(mul(left, y, out), mul(y, right, scratch), out), forcing, out)

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
