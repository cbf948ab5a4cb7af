"""Grid-based phase-space integrals, the bluntest of the verification routes.

The Wigner density of a valid single-mode Gaussian state is a true
probability density on the alpha plane, so normalization, mean energy,
entropy and relative entropy can all be checked by trapezoid sums over a
square grid.  Log-densities are evaluated analytically to keep ratios of
underflowing Gaussians finite.

The grid is integrated in blocks of _ROW_BLOCK rows: each block's
integrands and their trapezoid sums along the rows are made while the
block is in cache, and the outer trapezoid runs once over all the row
sums.  Each row is reduced by the same contiguous pairwise sum as on the
whole grid, so the results equal whole-grid sums, formed with the same
numpy in the same process, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..states import GaussianState, _finite

__all__ = [
    "norm_energy_entropy",
    "relative_entropy_quadrature",
]

# grid rows per block; measured on 400 x 400 grids, see the module docstring
_ROW_BLOCK = 40


def _log_density(state: GaussianState, re, im):
    delta = (re - state.alpha_mean.real) + 1j * (im - state.alpha_mean.imag)
    det = state.cov_det
    quad = (
        state.symmetric_variance * (delta.real ** 2 + delta.imag ** 2)
        - (state.anomalous_variance * np.conj(delta) ** 2).real
    ) / det
    return -math.log(math.pi * math.sqrt(det)) - quad


def _grid_integrals(integrands, extent: float, n: int) -> list[float]:
    """Trapezoid integrals of each array integrands(re, im) returns over the grid.

    The grid has n points a side on [-extent, extent].  integrands gets a
    block of grid rows as a column of Re alpha and the whole row of Im alpha,
    which broadcast to the block.  Raises ValueError unless extent is finite
    and positive and n is an integer of at least 2.
    """
    if not (_finite(extent) and extent > 0.0 and isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(
            f"the quadrature grid needs a finite, positive extent and an integer n >= 2, got {extent!r} and {n!r}"
        )
    x = np.linspace(-extent, extent, n)
    im = x[None, :]
    row_sums = [
        [np.trapezoid(values, x, axis=1) for values in integrands(x[start : start + _ROW_BLOCK, None], im)]
        for start in range(0, n, _ROW_BLOCK)
    ]
    return [float(np.trapezoid(np.concatenate(sums), x)) for sums in zip(*row_sums)]


def norm_energy_entropy(
    state: GaussianState,
    omega: float = 1.0,
    extent: float = 6.0,
    n: int = 400,
) -> tuple[float, float, float]:
    """(integral of W, omega * integral of |alpha|^2 W, integral of -W ln W).

    For states whose density is supported well inside the grid these
    reproduce 1, the mean energy and the Wigner entropy.  Raises ValueError
    unless omega and extent are finite and positive and n is an integer of
    at least 2.
    """
    if not _finite(omega) or omega <= 0.0:
        raise ValueError("omega must be finite and positive")

    def integrands(re, im):
        log_w = _log_density(state, re, im)
        w = np.exp(log_w)
        # w underflows to exactly 0 far out while log_w stays finite, so the
        # product is 0 there rather than nan
        return w, (re ** 2 + im ** 2) * w, -w * log_w

    norm, energy, entropy = _grid_integrals(integrands, extent, n)
    return norm, omega * energy, entropy


def relative_entropy_quadrature(
    state_a: GaussianState,
    state_b: GaussianState,
    extent: float = 6.0,
    n: int = 400,
) -> float:
    """Integral of W_a ln(W_a / W_b) over the grid.

    Raises ValueError unless extent is finite and positive and n is an
    integer of at least 2.
    """

    def integrand(re, im):
        log_a = _log_density(state_a, re, im)
        log_b = _log_density(state_b, re, im)
        return (np.exp(log_a) * (log_a - log_b),)

    return _grid_integrals(integrand, extent, n)[0]
