"""Fixed-step RK4 integration of the damped-mode moment equations.

The covariance is advanced through the literal matrix ODE

    dC/dt = L C + C L+ + N,     L = -1/2 diag(gamma + 2i omega, gamma - 2i omega),
    N = gamma f I,

and the first moment through dv/dt = L v, with classical 4th-order
Runge-Kutta steps.  L is diagonal, so L C + C L+ is elementwise,
(L C + C L+)_jk = l_j C_jk + C_jk conj(l_k), and each state is stepped as
five entries (v, C00, C01, C10, C11) of the same ODE.  The exponential
solution is never used, so agreement with the closed-form evolution is a
genuine cross-check.  rk4_moment_path is the one entry point, batched over
initial states and recording raw moment arrays; the RK4 driver here also
integrates the Fock oracle's master equation.  It steps in preallocated
buffers that each right-hand side writes into, so a step allocates nothing,
and its records equal bit for bit those of the textbook RK4 step written
with the same numpy ufuncs and run in the same process (tests/helpers.py
has both literal steppers).

A step is 24 ufunc calls on small arrays, so their per-call cost, not the
arithmetic, sets its time.  numpy runs its fast contiguous loop only when
every operand is contiguous and of one shape or is a 0-d array; on 20
elements a numpy scalar operand costs about 1.4 times as much per call and
a broadcast one about 2.3 times (numpy 2.4).  So the batch is stepped
raveled to 1-D, with the five coefficients tiled once per state, and the
step factors are 0-d arrays in y's dtype.  The calls are few because the buffers are laid out
for them: the four slopes are the rows of one buffer, so 2.0*k2 and 2.0*k3
are one multiply, and y and each stage point sit between the constant left
and right coefficients (_rk4_path's frame), so one multiply of [left | y]
by [y | right] forms L y and y L+ together.  Each right-hand side is then
three calls, the four stages six and the final combination six; with a
buffer per slope and a call per product the same step makes 29.  None of
this changes an operand or its order, so none changes a bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..states import GaussianState, SystemBathSpec, _finite

__all__ = ["rk4_moment_path", "convergence_order"]

# The most whole steps of dt a record time may need: ten times the longest
# run verify admits (10^6 steps), far below the 2^53 steps past which
# t_now += dt no longer advances and a run could never end
_MAX_STEPS = 10**7


def _rk4_path(rhs, y0, dt, record_times, frame=None):
    """Classical RK4 from y0 at t = 0; yields a copy of y at each record time.

    rhs(y, out, scratch) writes dy/dt at y into out and may overwrite
    scratch, a buffer shaped like y.  With frame = (left, right), two
    constant arrays shaped like y, y and the stage point each live in the
    middle row of a [left | y | right] buffer, and rhs gets, in y's place,
    the pair of views ([left | y], [y | right]), so that one multiply of the
    pair forms left*y and y*right together.  y0 is copied once (integers
    become floats), and a step allocates nothing: the slopes k1..k4 are the
    rows of one (4, size) buffer, so 2.0*k2 and 2.0*k3 are one multiply, and
    a step is twelve ufunc calls here plus four calls of rhs.  Each stage
    runs the ufuncs of y + 0.5*h*k1, y + 0.5*h*k2, y + h*k3 and
    y + (h/6)*(k1 + 2.0*k2 + 2.0*k3 + k4) in the same order on the same
    operands, so the records equal those of the textbook step, run in the
    same process, bit for bit.  The factors 0.5*h, h, h/6 and 2.0 are 0-d
    arrays in y's dtype (the values numpy would convert the Python floats
    to), made once for dt and once per shortened step; the module docstring
    says why.

    Each record time is reached by whole steps of dt while more than
    dt (1 + 1e-9) remains, then one shortened step when more than 1e-9 dt
    remains; both tolerances are in units of dt, so the records do not
    depend on the time scale.  The arguments are checked at once, and a
    record time that takes more than _MAX_STEPS whole steps raises
    ValueError there; each record is yielded when it is reached, and the
    first record that is not finite raises ValueError.  The moment and Fock
    oracles both integrate through this driver.
    """
    if not _finite(dt) or dt <= 0.0:
        raise ValueError("dt must be finite and positive")
    if not _finite(*record_times) or any(t < 0.0 for t in record_times):
        raise ValueError("record times must be finite and nonnegative")
    record_times = [float(t) for t in record_times]
    if any(b < a for a, b in zip(record_times, record_times[1:])):
        raise ValueError("record times must be nondecreasing")
    if record_times and record_times[-1] / dt > _MAX_STEPS:
        raise ValueError(f"the last record time takes more than {_MAX_STEPS} steps of dt")

    dtype = np.result_type(y0, 0.5)
    if frame is None:
        y = at_y = np.array(y0, dtype=dtype)
        stage = at_stage = np.empty_like(y)
    else:
        framed_y = np.array([frame[0], y0, frame[1]], dtype=dtype)
        framed_stage = framed_y.copy()
        y, stage = framed_y[1], framed_stage[1]
        at_y, at_stage = (framed_y[:2], framed_y[1:]), (framed_stage[:2], framed_stage[1:])
    k1, k2, k3, k4 = slopes = np.empty((4, *y.shape), dtype)
    k2_k3 = slopes[1:3]
    doubled = np.empty_like(k2_k3)
    # rhs may overwrite two_k2, which each step fills only after its last rhs call
    two_k2, two_k3 = doubled

    def factors(h):
        return [np.array(v, dtype=dtype) for v in (0.5 * h, h, h / 6.0)]

    two = np.array(2.0, dtype=dtype)
    whole = factors(dt)
    mul, add = np.multiply, np.add

    def step(half, full, sixth):
        rhs(at_y, k1, two_k2)
        add(y, mul(half, k1, stage), stage)
        rhs(at_stage, k2, two_k2)
        add(y, mul(half, k2, stage), stage)
        rhs(at_stage, k3, two_k2)
        add(y, mul(full, k3, stage), stage)
        rhs(at_stage, k4, two_k2)
        mul(two, k2_k3, doubled)
        add(k1, two_k2, stage)
        add(stage, two_k3, stage)
        add(stage, k4, stage)
        add(y, mul(sixth, stage, stage), y)

    def records():
        t_now = 0.0
        for target in record_times:
            # not across the yield, where the caller's code runs
            with np.errstate(over="ignore", invalid="ignore"):
                while target - t_now > dt * (1.0 + 1e-9):
                    step(*whole)
                    t_now += dt
                remainder = target - t_now
                if remainder > 1e-9 * dt:
                    step(*factors(remainder))
            if not np.all(np.isfinite(y)):
                raise ValueError(f"RK4 overflowed before t = {target:g}; reduce the step size")
            t_now = target
            yield y.copy()

    return records()


def _rk4_stable(dt, rates) -> bool:
    """Whether an RK4 step dt keeps every mode y' = rate y of a linear ODE from growing.

    A step multiplies such a mode by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at
    z = dt rate, so the step is stable when |R(z)| <= 1 at every rate.  That
    region crosses the real axis near -2.785 and the imaginary axis at
    +-2 sqrt(2) i; in the left half-plane it is star-shaped about 0, so
    shorter steps on the same rates stay inside it.  A z that overflows or
    is not a number counts as unstable.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = dt * np.asarray(rates, dtype=complex)
        growth = np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0))))
    return bool(np.all(growth <= 1.0))


def _coefficients(spec: SystemBathSpec):
    """(left, right) of one state's (v, C00, C01, C10, C11): dy/dt = left y + y right + forcing.

    L = diag(l0, l1), so dv/dt = l0 v and (L C + C L+)_jk = l_j C_jk + C_jk conj(l_k).
    """
    l0 = -0.5 * (spec.gamma + 2j * spec.omega)
    l1 = -0.5 * (spec.gamma - 2j * spec.omega)
    left = np.array([l0, l0, l0, l1, l1])
    right = np.array([0.0, l0.conjugate(), l1.conjugate(), l0.conjugate(), l1.conjugate()])
    return left, right


def _moment_rates(spec: SystemBathSpec) -> np.ndarray:
    """The rates of the moment ODE's five entries in tau units (over gamma): each entry evolves alone.

    A rate beyond float range comes out infinite or NaN (C00's is inf - inf
    where 2 omega overflows), which _rk4_stable counts as unstable.
    """
    left, right = _coefficients(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        return (left + right) / spec.gamma


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

    Raises ValueError, before stepping, for a dt that is not finite and
    positive, for record times that are not as above or that take more than
    10^7 steps of dt, and for a dt outside RK4's stability region on spec's
    rates; and when the moments overflow.
    """
    # (v, C00, C01, C10, C11) per state, raveled so every operand is 1-D
    y0 = np.array([(s.alpha_mean, *s.cov.ravel()) for s in states], dtype=complex).ravel()
    batch = y0.size // 5
    # the stationary covariance f I forces the noise prefactor gamma
    noise = spec.gamma * spec.f_beta
    # one copy of the five coefficients per state, shaped like y
    left, right = (np.tile(c, batch) for c in _coefficients(spec))
    forcing = np.tile(np.array([0.0, noise, 0.0, 0.0, noise], dtype=complex), batch)

    mul, add = np.multiply, np.add
    products = np.empty((2, y0.size), dtype=complex)
    left_y, y_right = products

    def rhs(framed, out, _):
        # framed is ([left | y], [y | right]), so one multiply forms left*y and y*right
        mul(*framed, products)
        add(add(left_y, y_right, out), forcing, out)

    steps = _rk4_path(rhs, y0, dt, record_times, (left, right))  # checks dt before the stability test reads it
    if not _rk4_stable(dt * spec.gamma, _moment_rates(spec)):
        raise ValueError(f"the RK4 step {dt:g} leaves RK4's stability region; reduce the step size")
    path = list(steps)
    shape = (len(path), batch, 5)
    records = np.stack(path).reshape(shape) if path else np.empty(shape, dtype=complex)
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

    Raises ValueError, before integrating, unless dts holds at least two
    step sizes, all finite, positive and distinct, and when an error is
    exactly 0 (as at the thermal fixed point), where the order is undefined.
    """
    from ..dynamics import evolve_analytic

    # an int beyond float range is not finite (_finite), and leaves no step sizes
    dts = [float(dt) for dt in dts] if _finite(*dts) else []
    if len(dts) < 2 or len(set(dts)) < len(dts) or not all(0.0 < dt < math.inf for dt in dts):
        raise ValueError("convergence_order needs at least two distinct finite positive step sizes")
    exact = evolve_analytic(state0, spec, t_final).cov
    errors = []
    for dt in dts:
        covs = rk4_moment_path([state0], spec, dt, [t_final])[1]
        errors.append(float(np.max(np.abs(covs[0, 0] - exact))))
    if 0.0 in errors:
        raise ValueError(f"the RK4 error at dt = {dts[errors.index(0.0)]} is exactly 0, so the order is undefined")
    slopes = [
        math.log(errors[i] / errors[i + 1]) / math.log(dts[i] / dts[i + 1])
        for i in range(len(errors) - 1)
    ]
    return float(np.mean(slopes))
