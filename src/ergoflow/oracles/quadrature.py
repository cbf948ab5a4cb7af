"""Grid-based phase-space integrals, the bluntest of the verification routes.

The Wigner density of a valid single-mode Gaussian state is a true
probability density on the alpha plane, so normalization, mean energy,
entropy and relative entropy can all be checked by trapezoid sums over a
square grid.  Log-densities are evaluated analytically to keep ratios of
underflowing Gaussians finite.

With dx = Re alpha - Re<a>, dy = Im alpha - Im<a>, V, M and det = det cov
(Weedbrook et al., RMP 84, 621 (2012)), the log-density is evaluated per axis:

    ln W = (2 Im M / det) dx dy + [-ln(pi sqrt(det)) - (V - Re M) / det dx^2]
           - (V + Re M) / det dy^2.

On a block of grid rows dx is a column and dy a row, so the bracket is a
column and the dy^2 term a row.  Only the cross product and the two sums
are grid-sized: three passes over real arrays, and a fourth floors ln W
at _LOG_FLOOR.  The cross product comes first, so both sums run in place
and a block makes one grid-sized array.  The same quadratic form through
the complex delta and conj(delta)^2 made four complex temporaries per
block, each twice a float block's size.

The grid is integrated in blocks of _ROW_BLOCK rows: each block's
integrands and their trapezoid sums along the rows are made while the
block is in cache, and the outer trapezoid runs once over all the row
sums.  Each row is reduced by the same contiguous pairwise sum as on the
whole grid, so the results equal whole-grid sums, formed with the same
numpy in the same process, bit for bit.  A 40-row block of a 400-point
grid is 128,000 bytes of floats, under glibc's default 128 KiB mmap
threshold.  Measured with norm_energy_entropy on the three states of the
benchmark's oracle pass, between whole passes (seeds 1-3, one process
each, best of 12 calls per block size; 2-core x86-64 host, numpy 2.4):

    rows a block               10        20        40        80        400
    ms a call                  4.3-6.4   3.4-3.5   2.8-2.9   4.6-4.7   5.3-5.5
    minor page faults a call   3         21        47        1,480     1,453

The complex form at 40 rows took 3.5-3.9 ms a call there.  Page faults
depend on the heap's history in the process: in loops of
norm_energy_entropy calls alone the complex form faulted 2,170 times a
call at 40 rows and the real form from 0 to 1,240 times, while blocks of
80 rows or more faulted 1,400-1,530 times a call in every setting.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ..states import GaussianState, _finite

__all__ = [
    "norm_energy_entropy",
    "relative_entropy_quadrature",
]

# grid rows per block: the largest block of a 400-point grid below the mmap threshold,
# measured in the module docstring
_ROW_BLOCK = 40
# ln W is floored here, the most negative float: a quadratic form beyond float
# range overflows to -inf, where W is 0, and 0 * -inf would be nan
_LOG_FLOOR = -sys.float_info.max


def _log_density(state: GaussianState, re, im):
    """ln W at re + i im, in the module docstring's per-axis form; re and im broadcast."""
    dx = re - state.alpha_mean.real
    dy = im - state.alpha_mean.imag
    v, m, det = state.symmetric_variance, state.anomalous_variance, state.cov_det
    log_w = 2.0 * m.imag / det * dx * dy
    log_w += -math.log(math.pi * math.sqrt(det)) - (v - m.real) / det * dx ** 2
    log_w -= (v + m.real) / det * dy ** 2
    return np.maximum(log_w, _LOG_FLOOR, out=log_w)


def _grid_integrals(integrands, extent: float, n: int) -> list[float]:
    """Trapezoid integrals of each array integrands(re, im) returns over the grid.

    The grid has n points a side on [-extent, extent].  integrands gets a
    block of grid rows as a column of Re alpha and the whole row of Im alpha,
    which broadcast to the block.  Raises ValueError unless extent is
    positive with |alpha|^2 = 2 extent^2 at the grid's corners finite and n
    is an integer of at least 2, and where an integral is not finite.
    """
    square_ok = _finite(extent) and extent > 0.0 and _finite(2.0 * extent * extent)
    if not (square_ok and isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(
            "the quadrature grid needs a positive extent with 2 extent^2 finite and an integer n >= 2,"
            f" got {extent!r} and {n!r}"
        )
    x = np.linspace(-extent, extent, n)
    im = x[None, :]
    # an overflow, or inf - inf, shows as an integral that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = [
            [np.trapezoid(values, x, axis=1) for values in integrands(x[start : start + _ROW_BLOCK, None], im)]
            for start in range(0, n, _ROW_BLOCK)
        ]
        integrals = [float(np.trapezoid(np.concatenate(sums), x)) for sums in zip(*row_sums)]
    if not _finite(*integrals):
        raise ValueError("the grid integrals leave float range")
    return integrals


def norm_energy_entropy(
    state: GaussianState,
    omega: float = 1.0,
    extent: float = 6.0,
    n: int = 400,
) -> tuple[float, float, float]:
    """(integral of W, omega * integral of |alpha|^2 W, integral of -W ln W).

    For states whose density is supported well inside the grid these
    reproduce 1, the mean energy and the Wigner entropy.  Raises ValueError
    unless omega is finite and positive, for a grid _grid_integrals refuses,
    and where an integral leaves float range.
    """
    if not _finite(omega) or omega <= 0.0:
        raise ValueError("omega must be finite and positive")

    def integrands(re, im):
        log_w = _log_density(state, re, im)
        w = np.exp(log_w)
        # w underflows to exactly 0 far out while log_w stays finite (floored),
        # so the product is 0 there rather than nan
        return w, (re ** 2 + im ** 2) * w, -w * log_w

    norm, energy, entropy = _grid_integrals(integrands, extent, n)
    energy *= omega
    if not _finite(energy):
        raise ValueError("the energy leaves float range: omega times the energy integral overflows")
    return norm, energy, entropy


def relative_entropy_quadrature(
    state_a: GaussianState,
    state_b: GaussianState,
    extent: float = 6.0,
    n: int = 400,
) -> float:
    """Integral of W_a ln(W_a / W_b) over the grid.

    Raises ValueError for a grid _grid_integrals refuses, where ln W_b falls
    below float range at a grid point where W_a is positive, and where the
    integral leaves float range.
    """

    def integrand(re, im):
        log_a = _log_density(state_a, re, im)
        log_b = _log_density(state_b, re, im)
        w_a = np.exp(log_a)
        # there the floored ln W_b would make the integrand a lower bound
        if np.any(w_a[log_b == _LOG_FLOOR]):
            raise ValueError("ln W_b falls below float range where W_a is positive")
        return (w_a * (log_a - log_b),)

    return _grid_integrals(integrand, extent, n)[0]
