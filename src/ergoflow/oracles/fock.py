"""Dense truncated-Fock master-equation simulator and definitional ergotropy.

Everything here is deliberately brute force: states are explicit density
matrices built by exponentiating the truncated generators, the
master-equation right-hand side

    d rho/dt = -i [H, rho] + gamma (1 + nbar) D[a] rho + gamma nbar D[a+] rho,
    D[L] rho = L rho L+ - (1/2) (L+ L rho + rho L+ L),

is applied term by term with fixed-step RK4, and the ergotropy comes from
sorting the density-matrix spectrum against the ladder energies.  This is
the ground truth the Gaussian closed forms are tested against; dense
matrices are fine at the cutoffs used here (N <= 80).

The master equation keeps j - k fixed, so only the lower triangle is
stepped, N(N+1)/2 entries instead of N^2.  It is stored band by band:
rho[j+d, j] for d = 0..N-1, then j = 0..N-1-d.  There rho[j+d+1, j+1] is
the next entry of the same band, so both jump terms are products of
contiguous 1-D slices shifted by one; their weights are 0 at the last
entry of each band, where such a shift would run into the next band.
Each record is the Hermitian matrix of its band vector, so it is exactly
Hermitian with a real diagonal; the upper triangle it replaces is what
stepping the full matrix gives for a Hermitian seed, because the step
commutes with complex conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..factory import _cosh_2r
from ..states import SystemBathSpec, _finite, _modulus
from .lyapunov import _rk4_path

__all__ = [
    "CutoffError",
    "FockDensityMatrix",
    "annihilation",
    "displacement_operator",
    "squeezing_operator",
    "fock_gaussian_state",
    "fock_lindblad_path",
    "fock_ergotropy",
    "fock_moments",
]

HERMITICITY_ATOL = 1e-10
# The truncated raising dissipator leaks trace at the top level; at desk
# cutoffs (N ~ 60) the integrated leakage sits at the 1e-7 scale, so the
# trace check is pinned an order of magnitude above that.
TRACE_ATOL = 1e-6
EIGENVALUE_FLOOR = -1e-10
# A state is representable when the top TAIL_LEVELS levels hold less than
# TAIL_TOL population; this bounds the truncation error of the ergotropy
# comparisons at the 1e-4 scale.
TAIL_LEVELS = 5
TAIL_TOL = 1e-5


class CutoffError(RuntimeError):
    """The Fock cutoff cannot represent the requested state to tolerance."""


@dataclass(frozen=True)
class FockDensityMatrix:
    """Validated density matrix on the truncated ladder basis, with its ascending spectrum."""

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            matrix = np.array(self.matrix, dtype=complex)
        except OverflowError:  # an int beyond float range
            raise ValueError("density matrix has non-finite entries") from None
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        # NaN fails every comparison below, and eigvalsh reads one triangle only
        if not np.all(np.isfinite(matrix)):
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(matrix - matrix.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian to tolerance")
        trace = float(np.trace(matrix).real)
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {trace} deviates from 1 beyond tolerance")
        spectrum = np.linalg.eigvalsh(matrix)
        if float(spectrum[0]) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix negativity beyond tolerance")
        for name, value in (("matrix", matrix), ("spectrum", spectrum)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def _check_cutoff(dim) -> None:
    """ValueError unless the Fock cutoff dim is an integer of at least 1."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"the Fock cutoff must be an integer of at least 1, got {dim!r}")


def _check_generators(mu, r, theta) -> None:
    """ValueError unless |mu|, r and theta are finite, cosh 2r and |mu|^2 floats.

    Those are the ranges in which the generators r a^2 and mu a+ stay finite:
    r at most about 355.2, as squeeze requires, and |mu| below about 1.34e154.
    """
    mu_abs = _modulus(mu, "mu")
    if not _finite(mu_abs, r, theta):
        raise ValueError("mu, r and theta must be finite")
    _cosh_2r(abs(r))
    if not math.isfinite(mu_abs * mu_abs):
        raise ValueError("mu exceeds float range: |mu|^2 overflows")


def annihilation(dim: int) -> np.ndarray:
    """The lowering operator on dim levels; ValueError unless dim is an integer of at least 1."""
    _check_cutoff(dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1, dim))
    return a


def _unitary_exp(generator: np.ndarray) -> np.ndarray:
    """exp(G) for an anti-Hermitian G, from the Hermitian eigendecomposition of i G.

    With i G = U diag(w) U+, exp(G) = U diag(exp(-i w)) U+.
    """
    w, u = np.linalg.eigh(1j * generator)
    return (u * np.exp(-1j * w)) @ u.conj().T


def displacement_operator(mu: complex, dim: int) -> np.ndarray:
    """exp(mu a+ - mu* a) on the truncated ladder; ValueError where the generator is not finite."""
    _check_generators(mu, 0.0, 0.0)
    a = annihilation(dim)
    return _unitary_exp(mu * a.conj().T - np.conj(mu) * a)


def squeezing_operator(r: float, theta: float, dim: int) -> np.ndarray:
    """exp((z* a^2 - z a+^2)/2) with z = r e^{i theta} on the truncated ladder.

    Raises ValueError where the generator is not finite.
    """
    _check_generators(0.0, r, theta)
    z = r * np.exp(1j * theta)
    a_sq = annihilation(dim) @ annihilation(dim)
    return _unitary_exp(0.5 * (np.conj(z) * a_sq - z * a_sq.conj().T))


def fock_gaussian_state(
    nbar_pi: float,
    mu: complex = 0j,
    r: float = 0.0,
    theta: float = 0.0,
    dim: int = 60,
) -> FockDensityMatrix:
    """Thermal seed displaced then squeezed, as an explicit density matrix.

    Raises ValueError, before anything is built, unless nbar_pi >= 0, |mu|,
    r >= 0 and theta are finite, cosh 2r and |mu|^2 are floats (r at most
    about 355.2, as squeeze requires, and |mu| below about 1.34e154) and the
    cutoff dim is an integer of at least 1, and CutoffError when the top
    TAIL_LEVELS levels, together with the thermal seed's population beyond
    the cutoff, carry TAIL_TOL or more population, i.e. when dim is too
    small for the requested state.
    """
    if not _finite(nbar_pi):
        raise ValueError("nbar_pi must be finite")
    _check_generators(mu, r, theta)
    if nbar_pi < 0.0 or r < 0.0:
        raise ValueError("nbar_pi and r must be nonnegative")
    _check_cutoff(dim)
    ratio = nbar_pi / (1.0 + nbar_pi)
    populations = ratio ** np.arange(dim) / (1.0 + nbar_pi)
    rho = np.diag(populations).astype(complex)
    if abs(mu) > 0.0:
        d_op = displacement_operator(mu, dim)
        rho = d_op @ rho @ d_op.conj().T
    if r > 0.0:
        s_op = squeezing_operator(r, theta, dim)
        rho = s_op @ rho @ s_op.conj().T
    # the Hermitian matrix of the lower triangle, which is all eigvalsh reads
    to_band, to_matrix = _band_maps(dim)
    rho = to_matrix(to_band(rho))
    # the seed's thermal levels beyond the cutoff, ratio^dim of its population, never enter rho
    tail = float(np.sum(np.diag(rho)[dim - TAIL_LEVELS :]).real) + ratio ** dim
    if tail >= TAIL_TOL:
        raise CutoffError(
            f"top {TAIL_LEVELS} levels and the levels beyond the cutoff hold population "
            f"{tail:.3e} >= {TAIL_TOL:.0e}; increase the cutoff beyond {dim}"
        )
    return FockDensityMatrix(rho)


def _bands(dim: int):
    """Row and column indices of the lower triangle, band by band: rho[j+d, j] for d = 0..dim-1."""
    cols = np.concatenate([np.arange(dim - d) for d in range(dim)])
    rows = cols + np.repeat(np.arange(dim), np.arange(dim, 0, -1))
    return rows, cols


def _band_maps(dim: int):
    """(to_band, to_matrix) between a dim x dim matrix and its lower triangle in _bands' order.

    to_band takes a seed diagonal's real part; to_matrix keeps a record's (conjugates first).
    """
    rows, cols = _bands(dim)
    lower, upper = rows * dim + cols, cols * dim + rows

    def to_band(matrix):
        band = matrix.ravel()[lower]
        band[:dim] = band[:dim].real  # the main diagonal is the first band
        return band

    def to_matrix(band):
        full = np.empty(dim * dim, dtype=complex)
        full[upper] = band.conj()
        full[lower] = band
        return full.reshape(dim, dim)

    return to_band, to_matrix


def _rhs_factory(dim: int, rows, cols, spec: SystemBathSpec):
    """rhs(rho, out, scratch) of the master equation for _rk4_path; rows, cols = _bands(dim)."""
    j, k = rows.astype(float), cols.astype(float)
    g_down = spec.gamma * (1.0 + spec.nbar)
    g_up = spec.gamma * spec.nbar
    # elementwise part: commutator phases plus both anticommutator halves
    local = -1j * spec.omega * (j - k) - 0.5 * g_down * (j + k) - 0.5 * g_up * (j + k + 2.0)
    # a rho a+ takes rho[j+1, k+1] to (j, k), a+ rho a takes rho[j, k] to
    # (j+1, k+1); both carry the weight sqrt((j+1)(k+1)), indexed by the
    # entry nearer the band start and 0 at each band end, where the shift
    # would run into the next band
    shift_w = np.where(rows == dim - 1, 0.0, np.sqrt((j + 1.0) * (k + 1.0)))[:-1]
    # complex, as numpy would cast them on every call
    down_w = (g_down * shift_w).astype(complex)
    up_w = (g_up * shift_w).astype(complex)
    size = shift_w.size
    mul, add = np.multiply, np.add

    def rhs(rho, out, scratch):
        jump, lower, upper = scratch[:size], out[:size], out[1:]
        mul(local, rho, out)
        add(lower, mul(down_w, rho[1:], jump), lower)
        add(upper, mul(up_w, rho[:size], jump), upper)

    return rhs


def _rhs_rates(dim: int, spec: SystemBathSpec) -> np.ndarray:
    """The eigenvalues of _rhs_factory's master equation in tau units (over gamma), band by band.

    Band d evolves alone, as -i (omega / gamma) d plus a real tridiagonal
    matrix whose jumps up and down between neighbouring entries weigh nbar
    and 1 + nbar times sqrt((j + 1)(k + 1)).  Each such pair multiplies to a
    nonnegative number, so the matrix is similar to the symmetric one with
    the pair's geometric mean off the diagonal, and its eigenvalues are real.
    """
    rows, cols = _bands(dim)
    j, k = rows.astype(float), cols.astype(float)
    diagonal = -(0.5 + spec.nbar) * (j + k) - spec.nbar
    # the geometric mean of each pair of jumps, stored at the pair's lower entry
    coupling = np.sqrt(spec.nbar * (1.0 + spec.nbar) * (j + 1.0) * (k + 1.0))
    rates, start = [], 0
    for d in range(dim):
        stop = start + dim - d
        band = np.diag(diagonal[start:stop]) + np.diag(coupling[start:stop - 1], 1)
        rates.append(np.linalg.eigvalsh(band, UPLO="U") - 1j * (spec.omega / spec.gamma) * d)
        start = stop
    return np.concatenate(rates)


def fock_lindblad_path(
    rho0: FockDensityMatrix,
    spec: SystemBathSpec,
    times,
    dt: float = 1e-3,
) -> list[FockDensityMatrix]:
    """RK4 sample path of the master equation at the requested (raw) times.

    It steps the Hermitian matrix given by rho0's lower triangle and the
    real part of its diagonal; rho0's upper triangle is never read.  Each
    record is rebuilt as an exactly Hermitian matrix as soon as it is
    reached, and revalidated for trace and positivity, so integrator drift
    beyond tolerance raises instead of propagating.  The
    state at one time t is ``fock_lindblad_path(rho0, spec, [t], dt)[0]``.

    Raises ValueError for a dt that is not finite and positive, for times
    that are negative, not finite or decreasing or that take more than 10^7
    steps of dt (all before stepping), when the path overflows and when a
    record breaches a FockDensityMatrix tolerance.
    """
    return list(_fock_records(rho0, spec, times, dt))


def _fock_records(rho0, spec, times, dt):
    """fock_lindblad_path's records, each yielded as soon as it is reached and validated."""
    dim = rho0.dim
    to_band, to_matrix = _band_maps(dim)
    for record in _rk4_path(_rhs_factory(dim, *_bands(dim), spec), to_band(rho0.matrix), dt, times):
        yield FockDensityMatrix(to_matrix(record))


def fock_ergotropy(rho: FockDensityMatrix, spec: SystemBathSpec) -> float:
    """Definitional ergotropy: energy minus the spectrum-reordered passive energy.

    The passive energy pairs the density-matrix eigenvalues, sorted
    descending, with the ladder energies sorted ascending.  Eigenvalues in
    [EIGENVALUE_FLOOR, 0) of the validated spectrum are clipped to zero first.
    """
    energies = spec.omega * (np.arange(rho.dim) + 0.5)
    energy = float(energies @ np.diag(rho.matrix).real)
    descending = np.clip(rho.spectrum, 0.0, None)[::-1]
    return energy - float(energies @ descending)


def fock_moments(rho: FockDensityMatrix) -> tuple[complex, float, complex]:
    """(first moment, symmetric variance, anomalous variance) of the mode."""
    a = annihilation(rho.dim)
    mean = complex(np.trace(a @ rho.matrix))
    occupation = float((np.arange(rho.dim) @ np.diag(rho.matrix)).real)
    a_sq_mean = complex(np.trace(a @ a @ rho.matrix))
    symmetric = occupation + 0.5 - abs(mean) ** 2
    anomalous = a_sq_mean - mean ** 2
    return mean, symmetric, anomalous
