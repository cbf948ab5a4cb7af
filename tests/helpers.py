"""Shared helpers for the test suite: seeded random states and specs, moment comparison,
decimal references, the moment ODE and Fock master equation stepped as written, and the
crossing scan one point at a time."""

import decimal
import functools
import math
import sys
from decimal import Decimal

import numpy as np

from ergoflow import SystemBathSpec, mpemba, random_state

__all__ = [
    "random_state",
    "random_spec",
    "rng_for",
    "moments_close",
    "REFERENCE_DIGITS",
    "reference_squeezed",
    "reference_crossing",
    "relative_error",
    "literal_moment_path",
    "literal_fock_path",
    "literal_crossing_scan",
]

# V - |M| of a squeezed seed at r = 177 is about 1e-307 V, so the reference
# keeps 420 significant digits, well above the ~310 that this subtraction needs
REFERENCE_DIGITS = 420


def rng_for(tag: str) -> np.random.Generator:
    """Deterministic per-suite generator; the tag keeps streams independent."""
    seed = int.from_bytes(tag.encode(), "little") % (2**31)
    return np.random.default_rng(seed)


def random_spec(rng: np.random.Generator, max_nbar: float = 2.0) -> SystemBathSpec:
    return SystemBathSpec(
        omega=rng.uniform(0.5, 2.0),
        gamma=rng.uniform(0.5, 2.0),
        nbar=rng.uniform(0.0, max_nbar),
    )


def moments_close(a, b, atol: float) -> bool:
    """True when the moments <a>, V and M of states a and b each agree to atol."""
    return (
        abs(a.alpha_mean - b.alpha_mean) <= atol
        and abs(a.symmetric_variance - b.symmetric_variance) <= atol
        and abs(a.anomalous_variance - b.anomalous_variance) <= atol
    )


def _context(digits: int = REFERENCE_DIGITS) -> decimal.Context:
    return decimal.Context(prec=digits, Emax=10**6, Emin=-(10**6))


@functools.lru_cache(maxsize=128)
def _exp(x: float) -> Decimal:
    """exp of a float, taken exactly, at REFERENCE_DIGITS."""
    return Decimal(x).exp(_context())


def reference_squeezed(nbar_pi: float, r: float, nbar: float, tau: float) -> tuple:
    """(V, |M|, f_t, r_t) of squeezed_thermal(nbar_pi, r) relaxed for tau = gamma t toward nbar.

    Decimals at REFERENCE_DIGITS from V = f_pi cosh 2r, |M| = f_pi sinh 2r,
    f_t = sqrt(V^2 - |M|^2) and r_t = asinh(|M| / f_t) / 2 after the
    relaxation; f_pi and f are the floats nbar_pi + 1/2 and nbar + 1/2 that
    the code reads, taken exactly.  The logarithm in r_t needs far fewer
    digits than the subtractions and runs at 60.
    """
    with decimal.localcontext(_context()):
        f_pi, f = Decimal(nbar_pi + 0.5), Decimal(nbar + 0.5)
        e2r, x = _exp(2.0 * r), _exp(-tau)
        v = f_pi * (e2r + 1 / e2r) / 2 * x + f * (1 - x)
        m = f_pi * (e2r - 1 / e2r) / 2 * x
        f_t = (v * v - m * m).sqrt()
        y = m / f_t
        return v, m, f_t, (y + (y * y + 1).sqrt()).ln(_context(60)) / 2


def reference_crossing(r: float, mu: float, nbar_pi: float, nbar: float):
    """Crossing time ln[1 + (mu^2 - 2 f_pi cosh^2 r)(mu^2 - 2 f_pi sinh^2 r) / (2 mu^2 f)].

    None unless mu^2 < 2 f_pi sinh^2 r, where the squeezed seed starts ahead.
    """
    with decimal.localcontext(_context()):
        f_pi, f, mu_sq = Decimal(nbar_pi + 0.5), Decimal(nbar + 0.5), Decimal(mu) ** 2
        er = _exp(r)
        cosh_sq, sinh_sq = ((er + 1 / er) / 2) ** 2, ((er - 1 / er) / 2) ** 2
        if mu_sq >= 2 * f_pi * sinh_sq:
            return None
        ratio = (mu_sq - 2 * f_pi * cosh_sq) * (mu_sq - 2 * f_pi * sinh_sq) / (2 * mu_sq * f)
        return (1 + ratio).ln(_context(60))


def relative_error(value: float, reference: Decimal) -> float:
    """|value - reference| / |reference|, evaluated at REFERENCE_DIGITS."""
    with decimal.localcontext(_context()):
        return float(abs(Decimal(float(value)) - reference) / abs(reference))


def _literal_records(step, state, dt, record_times):
    """The oracle's record rule: whole steps of dt while more than dt (1 + 1e-9) remains,
    then one shortened step when more than 1e-9 dt remains; yields the state at each time.

    step(state, h) returns the state one RK4 step h later, as a new object."""
    t_now = 0.0
    for target in record_times:
        while target - t_now > dt * (1.0 + 1e-9):
            state = step(state, dt)
            t_now += dt
        remainder = target - t_now
        if remainder > 1e-9 * dt:
            state = step(state, remainder)
        t_now = target
        yield state


def literal_fock_path(matrix, spec, dt, record_times):
    """The truncated-Fock master equation stepped on the 2-D matrix with shifted 2-D slices,
    with the same step and record rules as the oracle; returns the (T, N, N) records."""
    n = np.arange(matrix.shape[0], dtype=float)
    j, k = n[:, None], n[None, :]
    g_down = spec.gamma * (1.0 + spec.nbar)
    g_up = spec.gamma * spec.nbar
    local = -1j * spec.omega * (j - k) - 0.5 * g_down * (j + k) - 0.5 * g_up * (j + k + 2.0)
    shift_w = np.sqrt(np.outer(n[1:], n[1:]))
    down_w = g_down * shift_w
    up_w = g_up * shift_w

    def rhs(rho):
        out = local * rho
        out[:-1, :-1] += down_w * rho[1:, 1:]
        out[1:, 1:] += up_w * rho[:-1, :-1]
        return out

    def step(rho, h):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return np.stack(list(_literal_records(step, np.array(matrix, dtype=complex), dt, record_times)))


def literal_moment_path(states, spec, dt, record_times, omit_gamma_in_noise=False):
    """The moment ODE stepped as written, dv/dt = L v and dC/dt = L C + C L+ + N,
    on (B, 2, 2) covariances, with the same step and record rules as the oracle.

    Returns (means, covs) shaped like rk4_moment_path's.  omit_gamma_in_noise
    drops the gamma of N = gamma f I, the fault the mutation tests inject.
    """
    drift = -0.5 * np.array(
        [[spec.gamma + 2j * spec.omega, 0.0], [0.0, spec.gamma - 2j * spec.omega]], dtype=complex
    )
    prefactor = 1.0 if omit_gamma_in_noise else spec.gamma
    noise = prefactor * spec.f_beta * np.eye(2, dtype=complex)
    # L is diagonal, so L C scales the rows of C and C L+ its columns.  Written
    # as numpy's elementwise complex products, as the oracle forms them: a 2x2
    # `@` runs in BLAS, which picks its own CPU kernels, so its last bit may
    # differ from numpy's at a lower NPY_ENABLE_CPU_FEATURES level
    rows, cols = drift.diagonal()[:, None], drift.diagonal().conj()

    def rhs(v, c):
        return drift[0, 0] * v, rows * c + c * cols + noise

    def step(state, h):
        v, c = state
        k1v, k1c = rhs(v, c)
        k2v, k2c = rhs(v + 0.5 * h * k1v, c + 0.5 * h * k1c)
        k3v, k3c = rhs(v + 0.5 * h * k2v, c + 0.5 * h * k2c)
        k4v, k4c = rhs(v + h * k3v, c + h * k3c)
        return (
            v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
            c + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c),
        )

    v = np.array([s.alpha_mean for s in states], dtype=complex)
    c = np.stack([s.cov for s in states]).astype(complex)
    records = list(_literal_records(step, (v, c), dt, record_times))
    return np.stack([v for v, _ in records]), np.stack([c for _, c in records])


def literal_bisect(lo, hi, lo_positive, moments, floor):
    """One bracket of the gap halved until its midpoint equals an endpoint or g is exactly 0
    there with both charges at least floor, with the oracle's ufuncs on 1-element arrays;
    returns that midpoint, or None where the charges there are below floor."""
    lo, hi = np.array([lo]), np.array([hi])
    columns = [np.array([value]) for value in moments]
    while True:
        mid = 0.5 * (lo + hi)
        erg_s, erg_d = mpemba._charges(np.exp(-mid), *columns)
        g_mid = erg_s - erg_d
        resolved = min(erg_s[0], erg_d[0]) >= floor
        if mid[0] == lo[0] or mid[0] == hi[0] or (g_mid[0] == 0.0 and resolved):
            return float(mid[0]) if resolved else None
        if (g_mid[0] > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def literal_crossing_scan(seeds, tau_max, scan_step):
    """The crossing oracle with each point's gap sampled over the whole window on its own,
    with the same samples, resolution, significance and first-flip rules, and each bracket
    bisected on its own (literal_bisect); returns one crossing time (or None) per seed pair."""
    with np.errstate(over="ignore"):
        taus = np.arange(math.ceil(tau_max / scan_step) + 1) * scan_step
    taus = np.append(taus[taus < tau_max], tau_max)
    decay = np.exp(-taus)
    times = [None] * len(seeds)
    for i, moments in enumerate(seeds):
        erg_s, erg_d = mpemba._charges(decay, *moments)
        gap = erg_s - erg_d
        floor = sys.float_info.min * max(1.0, moments[-1])
        resolved = np.minimum(erg_s, erg_d) >= floor
        if resolved[0] and abs(gap[0]) <= mpemba._EQUAL_CHARGE_RTOL * (erg_s[0] + erg_d[0]):
            times[i] = 0.0
            continue
        significant = resolved & (np.abs(gap) > mpemba._GAP_SIGNIFICANCE * (erg_s + erg_d))
        positive = gap > 0.0
        flips = np.nonzero(positive[:-1] != positive[1:])[0]
        flips = flips[significant[flips] | significant[flips + 1]]
        if flips.size:
            k = flips[0]
            times[i] = literal_bisect(taus[k], taus[k + 1], bool(positive[k]), moments, floor)
    return times
