"""Grid-based phase-space integrals, the bluntest of the verification routes.

The Wigner density of a valid single-mode Gaussian state is a true
probability density on the alpha plane, so normalization, mean energy,
entropy and relative entropy can all be checked by trapezoid sums over a
square grid.  Log-densities are evaluated analytically to keep ratios of
underflowing Gaussians finite.
"""

from __future__ import annotations

import math

import numpy as np

from ..states import GaussianState

__all__ = [
    "wigner_grid",
    "norm_energy_entropy",
    "relative_entropy_quadrature",
]


def _log_density(state: GaussianState, re, im):
    delta = (re - state.alpha_mean.real) + 1j * (im - state.alpha_mean.imag)
    det = state.cov_det
    quad = (
        state.symmetric_variance * (delta.real ** 2 + delta.imag ** 2)
        - (state.anomalous_variance * np.conj(delta) ** 2).real
    ) / det
    return -math.log(math.pi * math.sqrt(det)) - quad


def _axes(extent: float, n: int):
    """The grid axis, then as a column (Re alpha) and a row (Im alpha) that broadcast to the grid."""
    x = np.linspace(-extent, extent, n)
    return x, x[:, None], x[None, :]


def _integrate(values, x):
    return float(np.trapezoid(np.trapezoid(values, x, axis=1), x))


def wigner_grid(state: GaussianState, extent: float = 6.0, n: int = 400):
    """Wigner density on the square [-extent, extent]^2; returns (W, axis)."""
    x, re, im = _axes(extent, n)
    return np.exp(_log_density(state, re, im)), x


def norm_energy_entropy(
    state: GaussianState,
    omega: float = 1.0,
    extent: float = 6.0,
    n: int = 400,
) -> tuple[float, float, float]:
    """(integral of W, omega * integral of |alpha|^2 W, integral of -W ln W).

    For states whose density is supported well inside the grid these
    reproduce 1, the mean energy and the Wigner entropy.
    """
    x, re, im = _axes(extent, n)
    log_w = _log_density(state, re, im)
    w = np.exp(log_w)
    norm = _integrate(w, x)
    energy = omega * _integrate((re ** 2 + im ** 2) * w, x)
    # w underflows to exactly 0 far out while log_w stays finite, so the
    # product is 0 there rather than nan
    entropy = _integrate(-w * log_w, x)
    return norm, energy, entropy


def relative_entropy_quadrature(
    state_a: GaussianState,
    state_b: GaussianState,
    extent: float = 6.0,
    n: int = 400,
) -> float:
    """Integral of W_a ln(W_a / W_b) over the grid."""
    x, re, im = _axes(extent, n)
    log_a = _log_density(state_a, re, im)
    log_b = _log_density(state_b, re, im)
    return _integrate(np.exp(log_a) * (log_a - log_b), x)
