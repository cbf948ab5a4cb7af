"""Crossing analysis for anomalous discharge of squeezed vs displaced charge.

A squeezed thermal state that starts with more extractable work than a
displaced thermal one can nevertheless fall below it in finite time, because
its passive-state energy is pumped up transiently while the displaced
family's passive energy relaxes monotonically.  This module locates that
crossing in closed form, cross-validates it with a bisection oracle that
scans and bisects a whole batch of parameter points at once, one array
entry per point, finds equal-charge displacement amplitudes, and sweeps
the crossing time over bath/seed temperature axes.

All crossing times are reported in the dimensionless variable tau = gamma t;
they do not depend on omega or gamma individually.

The gap g = erg_squeezed - erg_displaced changes sign at most once, from +
to -.  With x = exp(-tau) the seeds relax as lam = lam_s x + f (1 - x),
|M| = m_s x and |<a>|^2 = v_sq x, and the squeezed seed has no mean and the
displaced one no M, so erg_displaced = omega v_sq x and
erg_squeezed = omega m_s^2 x^2 / D(x), with D = lam + m_s x + f_pi and
f_pi = sqrt(lam (lam + 2 m_s x)).  Hence g / (omega x) = m_s^2 x / D(x) - v_sq,
whose x-derivative has the sign of D - x D'.  There lam - x lam' = f,
|M| - x |M|' = 0 and f_pi - x f_pi' = f (2 lam + 2 m_s x) / (2 f_pi) > 0,
since f_pi^2 is the product of two affine functions of x that each equal f
at x = 0.  So D - x D' > 0 and g / x falls strictly as tau grows: a point
with g <= 0 at tau = 0 never crosses, and at equal initial charge the
displaced battery stays strictly above for tau > 0.  While g < 0 the
relative gap |g| / (erg_squeezed + erg_displaced) grows, so roundoff cannot
raise a significant positive sample either.

Lemma: the relative gap falls strictly as tau grows, and so do both charges.
With A(x) = m_s^2 x / D(x), which rises with x as A - v_sq does,
erg_squeezed = omega x A and erg_displaced = omega x v_sq, so the relative
gap (erg_squeezed - erg_displaced) / (erg_squeezed + erg_displaced) is
(A - v_sq) / (A + v_sq), which rises with A.  So the samples of a scan
window that are sure, with both charges resolved and
erg_squeezed > erg_displaced by more than _GAP_SIGNIFICANCE of their sum,
form a prefix of it.  Each charge is computed to a few ulps, far below
_GAP_SIGNIFICANCE, so a sample before a sure one, whose exact relative gap
is larger still, reads erg_squeezed > erg_displaced too: no sign change of
the gap precedes a sure sample.  The oracle therefore bisects for each
point's last sure sample and runs its first-flip rule from there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _relax, sample_trajectory
from .factory import _cosh_2r, _squeezed_seed, displaced_thermal, squeezed_thermal
from .states import SystemBathSpec, _check_energy, _finite, _modulus, _work

__all__ = [
    "CrossingReport",
    "SweepGrid",
    "ScanRow",
    "ScanResult",
    "DischargePair",
    "crossing_time_closed_form",
    "crossing_time_numeric",
    "crossing_report",
    "equal_charge_amplitude",
    "mpemba_scan",
    "faster_discharge_demo",
]

NOTE_NO_PRECONDITION = "no Mpemba precondition"
NOTE_DEGENERATE = "degenerate equal initial charge"
# The oracle found no sign change of the gap on its scan window, counting only
# samples where both charges are resolved (normal floats).
NOTE_NO_CROSSING = "no crossing on scan window"

# Initial charges closer than this (relatively) count as the degenerate
# equal-charge boundary, where the curves touch at tau = 0 only.
_EQUAL_CHARGE_RTOL = 1e-12

# Bisection oracle: scan window and step in tau, the most scan steps a window
# may hold, and how far a gap sample must stand above the roundoff of the two
# charges it separates to count toward a sign change.  Each bracket is halved
# down to adjacent floats, so no stopping tolerance is needed.
_TAU_MAX = 50.0
_SCAN_STEP = 0.01
_MAX_SCAN_STEPS = 10**6
_GAP_SIGNIFICANCE = 1e-13
# The scan's first chunk of samples per point, from its last sure sample
# (_last_sure), and the most elements (points times samples) a chunk may
# hold, which bounds the scan's temporaries.  Median time relative to
# (16, 4096), 40 interleaved rounds on a 2-core x86-64 host, of mpemba_scan
# on the sweep benchmark's 240-point grids (seeds 53-55 and 63-65) and of a
# 400-point batch whose charges underflow before they cross, so that each
# point scans on to the window's end:
#   first chunk      2     4     8    16    32    64    16     16
#   budget        4096  4096  4096  4096  4096  4096  1024  16384
#   sweep         0.99  1.04  1.05  1.00  1.06  1.16  1.05   1.06
#   underflowing  1.24  1.23  1.22  1.00  0.93  0.95  1.49   1.17
_MIN_CHUNK = 16
_SCAN_BUDGET = 4096


@dataclass(frozen=True)
class CrossingReport:
    """Crossing existence, both time estimates, and the starting charges."""

    exists: bool
    tau_c_closed: float | None
    tau_c_numeric: float | None
    erg0_squeezed: float
    erg0_displaced: float
    validity_note: str = ""


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep axes; the displacement amplitude stays fixed."""

    r_values: tuple
    nbar_pi_values: tuple
    nbar_values: tuple
    mu: float

    def __post_init__(self):
        for name in ("r_values", "nbar_pi_values", "nbar_values"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if not _finite(*values) or any(v < 0.0 for v in values):
                raise ValueError(f"{name} must be finite and nonnegative")
        if not _finite(self.mu) or self.mu < 0.0:
            raise ValueError("mu must be finite and nonnegative")


@dataclass(frozen=True)
class ScanRow:
    r: float
    nbar_pi: float
    nbar: float
    mu: float
    report: CrossingReport


@dataclass(frozen=True)
class ScanResult:
    """Sweep table: one ScanRow per grid point, in mpemba_scan's row order."""

    rows: tuple


@dataclass(frozen=True)
class DischargePair:
    """Equal-charge squeezed/displaced trajectories (squeezed loses faster)."""

    mu: float
    squeezed: Trajectory
    displaced: Trajectory


def _check_point(r, mu, nbar_pi, nbar, boundary_ok=False) -> float:
    """|mu| of a crossing point whose values are finite and occupations nonnegative, as SweepGrid's are.

    Raises ValueError otherwise, and, unless boundary_ok, for r <= 0 (no
    squeezing) or mu = 0; _seed_axes then checks the float range.
    """
    mu_abs = _modulus(mu, "mu")
    if not _finite(r, mu_abs, nbar_pi, nbar):
        raise ValueError("crossing parameters must be finite")
    if nbar_pi < 0.0 or nbar < 0.0:
        raise ValueError("occupations must be nonnegative")
    if r <= 0.0 and not boundary_ok:
        raise ValueError("squeezing magnitude r must be positive")
    if mu_abs == 0.0 and not boundary_ok:
        raise ValueError("displacement amplitude mu must be nonzero")
    return mu_abs


def _seed_axes(r_values, nbar_pi_values, nbar_values, mu_abs, omega=1.0) -> tuple:
    """(moduli, tested, closed) of finite axes, with nonnegative occupations, at |mu| = mu_abs.

    moduli holds each (r, nbar_pi) pair's squeezed seed (lam_s, |m_s|) and
    tested whether the pair has r > 0 and mu != 0, in row order (r outer);
    closed holds each point's closed-form tau_c, None where the pair is not
    tested.  The axes are checked once each, not once per point: |mu|^2
    once, (nbar + 1/2)^2 once per nbar, and the seed and its energy range
    once per pair, at the largest nbar.  Raises ValueError for a seed beyond
    float range (its V^2, |mu|^2, (nbar + 1/2)^2 or omega times an energy),
    as the states would.
    """
    fs = [nbar + 0.5 for nbar in nbar_values]
    if not _finite(mu_abs * mu_abs, *(f * f for f in fs)):
        raise ValueError("crossing point exceeds float range: |mu|^2 or (nbar + 1/2)^2 overflows")
    mu_sq = mu_abs ** 2
    pairs = [(r, nbar_pi) for r in r_values for nbar_pi in nbar_pi_values]
    # every seed is checked before the closed form takes sinh r and cosh r
    moduli, f_max = [], max(fs)
    for r, nbar_pi in pairs:
        v_s, m_s, lam_s = _squeezed_seed(nbar_pi + 0.5, max(r, 0.0))
        _check_energy(v_s, mu_sq, omega, f_max)  # it grows with f, so f_max covers the pair
        moduli.append((lam_s, m_s))
    tested = [r > 0.0 and mu_abs != 0.0 for r, _ in pairs]
    gaps = [
        _closed_form_gap(r, mu_sq, nbar_pi + 0.5) if is_tested else None
        for (r, nbar_pi), is_tested in zip(pairs, tested)
    ]
    closed = [p if not p else _closed_form_time(p, mu_abs, mu_sq, f) for p in gaps for f in fs]
    return moduli, tested, closed


def crossing_time_closed_form(r, mu, nbar_pi, nbar) -> float | None:
    """Dimensionless time tau_c at which the squeezed charge drops to the displaced one.

    Requires the anomalous ordering |mu|^2 < 2 f_pi sinh^2(r) (squeezed state
    strictly more charged at tau = 0); returns None when the ordering fails
    and 0.0 on the degenerate equal-charge boundary.
    """
    return _seed_axes((r,), (nbar_pi,), (nbar,), _check_point(r, mu, nbar_pi, nbar))[2][0]


def _closed_form_gap(r, mu_sq, f_pi) -> float | None:
    """The (r, nbar_pi) part of the closed form: None, 0.0, or P > 0, for a seed already checked.

    None where the precondition fails, 0.0 on the degenerate equal-charge
    boundary, and otherwise P = shifted_gap * charge_gap, which is positive.
    """
    # charge_gap = (displaced - squeezed) initial ergotropy over omega
    charge_gap = mu_sq - 2.0 * math.sinh(r) ** 2 * f_pi
    if abs(charge_gap) <= _EQUAL_CHARGE_RTOL * (mu_sq + 2.0 * math.sinh(r) ** 2 * f_pi):
        return 0.0
    if charge_gap > 0.0:
        return None
    # Second factor is charge_gap shifted down by 2 f_pi, so the product is
    # positive whenever the precondition holds and the log argument exceeds 1.
    shifted_gap = mu_sq - 2.0 * math.cosh(r) ** 2 * f_pi
    return shifted_gap * charge_gap


def _closed_form_time(p, mu_abs, mu_sq, f) -> float:
    """The nbar part of the closed form: tau_c = log1p(P / (2 |mu|^2 f)) for a P > 0 of _closed_form_gap."""
    if mu_sq >= sys.float_info.min:
        ratio = p / (2.0 * mu_sq * f)
        if 0.0 < ratio < math.inf:
            return math.log1p(ratio)
    # |mu|^2 is below the normal range, and so may be P / (2 f), or the ratio
    # overflowed, or 2 |mu|^2 f did (ratio 0): the ratio is c 2^n, from the
    # factors' mantissas (c lies in (1/4, 4)) and exponents
    (p_m, p_e), (mu_m, mu_e), (f_m, f_e) = math.frexp(p), math.frexp(mu_abs), math.frexp(f)
    c, n = p_m / (2.0 * (mu_m * mu_m) * f_m), p_e - 2 * mu_e - f_e
    # past 2^1000 the 1 in log(1 + ratio) is negligible
    return math.log1p(math.ldexp(c, n)) if n < 1000 else math.log(c) + n * math.log(2.0)


def _charges(x, lam_s, m_s, v_sq, f, omega):
    """Squeezed and displaced ergotropy once the seeds have relaxed to x = exp(-tau).

    The squeezed seed has no mean and the displaced one no M, so one core pass over
    (lam_s, |m_s|, |v_d|^2) gives both: its covariance and its displacement share.
    """
    _, erg_d, erg_s = _work(*_relax(lam_s, m_s, v_sq, f, x), omega)
    return erg_s, erg_d


def _bisect(lo, hi, lo_positive, moments, floor):
    """Bisect every bracket [lo, hi] of the gap at once; moments and floor have one column per bracket.

    g > 0 holds at lo (lo_positive) or at hi, not both.  Each round halves every
    bracket, and one whose midpoint has g exactly 0 with both charges resolved
    (at least floor) collapses to lo = hi = mid.  A bracket down to adjacent
    floats, or collapsed, returns the same midpoint in every later round, and
    once every midpoint equals an endpoint, mid is returned, within an ulp of
    where g > 0 flips, or nan where the charges there are not resolved.
    Charges that underflowed to 0 give g = 0 too, but that is no root: such a
    midpoint counts as g <= 0, as any other.
    """
    while True:
        mid = 0.5 * (lo + hi)
        erg_s, erg_d = _charges(np.exp(-mid), *moments)
        if ((mid == lo) | (mid == hi)).all():
            return np.where(np.minimum(erg_s, erg_d) >= floor, mid, math.nan)
        # g > 0 exactly when erg_s > erg_d, and g = 0 exactly when erg_s == erg_d (as in the scan)
        same_side = (erg_s > erg_d) == lo_positive
        lo, hi = np.where(same_side, mid, lo), np.where(same_side, hi, mid)
        if (erg_s == erg_d).any():
            root = (erg_s == erg_d) & (erg_s >= floor)
            lo, hi = np.where(root, mid, lo), np.where(root, mid, hi)


def _last_sure(decay, moments, floor):
    """Each point's last sure sample of decay, found by bisecting over the sample indices of all points at once.

    moments and floor have one column per point.  A sample is sure when both
    charges are resolved (at least floor) and erg_s > erg_d by more than
    _GAP_SIGNIFICANCE of their sum.  In exact arithmetic the sure samples
    form a prefix of decay, and in floating point every sample before a sure
    one still reads g > 0 (module docstring), so the first-flip rule may
    start at the sample returned.  Each round keeps lo
    sure (or 0) and hi not sure (or decay.size); about log2(decay.size)
    rounds leave hi = lo + 1 (or lo = hi = 0), and lo is returned.
    """
    lo, hi = np.zeros(floor.size, dtype=int), np.full(floor.size, decay.size)
    for _ in range((decay.size - 1).bit_length()):
        mid = (lo + hi) // 2
        erg_s, erg_d = _charges(decay[mid], *moments)
        sure = (np.minimum(erg_s, erg_d) >= floor) & (erg_s - erg_d > _GAP_SIGNIFICANCE * (erg_s + erg_d))
        lo, hi = np.where(sure, mid, lo), np.where(sure, hi, mid)
    return lo


def _first_flips(decay, moments, floor, pending, start, first, lo_positive):
    """Scan the pending points' gaps together; set first[i] to k and lo_positive[i] to g > 0 at k.

    Point pending[j] is scanned from sample start[j] of decay, and its first
    significant change of g > 0 from there on lies between samples k and
    k + 1; first stays as it is for a point without one.  The chunks start
    at _MIN_CHUNK samples per point and grow fourfold, up to _SCAN_BUDGET
    elements over the pending points (at most _SCAN_BUDGET // _MIN_CHUNK of
    them); adjacent chunks share their edge sample, and a point leaves at its
    first flip or at the window's end.  The sign of g is taken on every
    sample, and the significance rule only on the rows of a chunk where that
    sign changes.
    """
    last, width = decay.size - 1, _MIN_CHUNK
    while pending.size:
        # each point's next samples; past the window's end the last one repeats, which flips nothing
        k = np.minimum(start[:, None] + np.arange(min(width, _SCAN_BUDGET // pending.size)), last)
        erg_s, erg_d = _charges(decay[k], *moments[:, pending])
        # g > 0 exactly when erg_s > erg_d: the exact difference of two doubles is
        # a multiple of 2^-1074, so it rounds to a positive double when it is positive
        positive = erg_s > erg_d
        flips = positive[:, :-1] != positive[:, 1:]
        keep = k[:, -1] < last
        if np.count_nonzero(flips):
            rows = np.flatnonzero(flips.any(axis=1))
            erg_s, erg_d = erg_s[rows], erg_d[rows]
            # where the two charges agree to roundoff, the gap sign is noise; only
            # count a flip with at least one side clear of its own charges' roundoff
            significant = (np.minimum(erg_s, erg_d) >= floor[pending[rows]]) & (
                np.abs(erg_s - erg_d) > _GAP_SIGNIFICANCE * (erg_s + erg_d)
            )
            flips = flips[rows] & (significant[:, :-1] | significant[:, 1:])
            hit = flips.any(axis=1)
            j, found = flips[hit].argmax(axis=1), rows[hit]
            first[pending[found]] = k[found, j]
            lo_positive[pending[found]] = positive[found, j]
            keep[found] = False
        pending, start, width = pending[keep], k[keep, -1], 4 * width


def _numeric_crossings(seeds, tau_max, scan_step) -> list:
    """Bisection oracle for a batch of seed pairs: one crossing time (or None) each.

    seeds holds the moments of one seed pair per point.  Each gap
    g(tau) = erg_squeezed(tau) - erg_displaced(tau) is sampled at the
    multiples of scan_step below tau_max and at tau_max, for its first change
    of g > 0 (an exact zero counts as non-positive); then all bracketed
    points are bisected together, so no crossing beyond tau_max is reported.
    A point gets 0.0 when its tau = 0 charges coincide, and None when g > 0
    does not change where the charges are resolved or its bracket's root lies
    where they are not (a scan step coarser than their decay can bracket it).
    Only points with g > 0 at tau = 0 are searched: g changes sign at most
    once, from + to - (module docstring), so every other point gets the None
    that a scan of the whole window gives it.  No sign change precedes a
    sure sample (the module docstring's lemma), so the first-flip rule starts
    at each point's last sure sample, found by bisecting over the sample
    indices (_last_sure), and runs on from there, all points together in
    bounded chunks (_first_flips), each stopping at its first flip; the
    reports are those of a scan of every sample from tau = 0, kept in
    per-point arrays.  Raises ValueError unless
    tau_max and scan_step are finite and positive and the window holds at
    most _MAX_SCAN_STEPS steps.
    """
    if not (_finite(tau_max, scan_step) and tau_max > 0.0 and scan_step > 0.0):
        raise ValueError("tau_max and scan_step must be finite and positive")
    if tau_max / scan_step > _MAX_SCAN_STEPS:
        raise ValueError(f"the scan window holds more than {_MAX_SCAN_STEPS} steps of scan_step")
    # one (points, 1) column per moment, so that samples broadcast to (points, samples)
    moments = np.array(seeds, dtype=float).reshape(-1, 5).T[:, :, None]
    # a charge below the smallest normal float (times omega, so that the
    # moment products behind it are normal too) has lost its relative
    # precision, and so has the gap's sign
    floor = sys.float_info.min * np.maximum(1.0, moments[-1])
    erg_s, erg_d = _charges(1.0, *moments)
    equal = (np.minimum(erg_s, erg_d) >= floor) & (
        np.abs(erg_s - erg_d) <= _EQUAL_CHARGE_RTOL * (erg_s + erg_d)
    )
    times = np.where(equal[:, 0], 0.0, math.nan)
    pending = np.flatnonzero(~equal[:, 0] & (erg_s[:, 0] > erg_d[:, 0]))
    if pending.size:
        # the multiples of scan_step below tau_max, then tau_max itself; a last
        # multiple beyond float range is inf, and dropped with the others past tau_max
        with np.errstate(over="ignore"):
            taus = np.arange(math.ceil(tau_max / scan_step) + 1) * scan_step
        taus = np.append(taus[taus < tau_max], tau_max)
        decay = np.exp(-taus)
        # each point's first-flip sample (-1 for none) and whether g > 0 there
        first, lo_positive = np.full(times.size, -1), np.zeros(times.size, dtype=bool)
        start = _last_sure(decay, moments[:, pending, 0], floor[pending, 0])
        # a point whose last sample is sure has no flip on the window
        scanned = start < decay.size - 1
        pending, start = pending[scanned], start[scanned]
        block = _SCAN_BUDGET // _MIN_CHUNK
        for i in range(0, pending.size, block):
            _first_flips(decay, moments, floor, pending[i:i + block], start[i:i + block], first, lo_positive)
        points = np.flatnonzero(first >= 0)
        if points.size:
            k = first[points]
            times[points] = _bisect(
                taus[k], taus[k + 1], lo_positive[points], moments[:, points, 0], floor[points, 0]
            )
    return [None if math.isnan(t) else t for t in times.tolist()]


def crossing_time_numeric(r, mu, nbar_pi, nbar, spec: SystemBathSpec | None = None) -> float | None:
    """Bisection oracle for the crossing time, built on the relaxed seed moments.

    Scans g(tau) = erg_squeezed(tau) - erg_displaced(tau) on [0, 50] at steps
    of 0.01 (_TAU_MAX and _SCAN_STEP) for a sign change, then bisects it down
    to adjacent floats.  Returns 0.0 when the initial charges already
    coincide, and None when g never changes sign while both charges are
    resolved, i.e. at least the smallest normal float (so weak charges that
    underflow before they cross give None).  crossing_report takes another
    scan window.
    """
    _check_point(r, mu, nbar_pi, nbar)
    return crossing_report(r, mu, nbar_pi, nbar, spec).tau_c_numeric


def _reports(r_values, nbar_pi_values, nbar_values, mu_abs, omega, tau_max, scan_step) -> list:
    """Crossing reports for every point of axes as _seed_axes takes them, with one oracle call for all.

    Each point's seed pair (lam_s, |m_s|, |mu|^2, f, omega) is one row of an
    (N, 5) array, in row order.  The oracle scans the tested points; the
    others are reported as a missing precondition.  The reported tau = 0
    charges are the oracle's own charges at x = 1, for all points at once.
    """
    moduli, tested, closed = _seed_axes(r_values, nbar_pi_values, nbar_values, mu_abs, omega)
    n_nbar = len(nbar_values)
    seeds = np.empty((len(moduli), n_nbar, 5))
    seeds[:, :, :2] = np.array(moduli)[:, None, :]
    seeds[:, :, 2], seeds[:, :, 3], seeds[:, :, 4] = mu_abs ** 2, [nbar + 0.5 for nbar in nbar_values], omega
    seeds, tested = seeds.reshape(-1, 5), np.repeat(tested, n_nbar)
    erg0_s, erg0_d = _charges(1.0, *seeds.T)
    numerics = iter(_numeric_crossings(seeds[tested], tau_max, scan_step))
    reports = []
    for is_tested, tau_c, erg_s, erg_d in zip(tested.tolist(), closed, erg0_s.tolist(), erg0_d.tolist()):
        numeric = next(numerics) if is_tested else None
        if tau_c is None:
            note = NOTE_NO_PRECONDITION
        elif tau_c == 0.0:
            note = NOTE_DEGENERATE
        elif numeric is None:
            note = NOTE_NO_CROSSING
        else:
            note = ""
        reports.append(CrossingReport(note == "", tau_c, numeric, erg_s, erg_d, note))
    return reports


def crossing_report(
    r,
    mu,
    nbar_pi,
    nbar,
    spec: SystemBathSpec | None = None,
    tau_max: float = _TAU_MAX,
    scan_step: float = _SCAN_STEP,
) -> CrossingReport:
    """Closed-form and numeric crossing times with validity diagnostics.

    Tolerates r <= 0 and mu = 0 (where the point-evaluation functions refuse
    to run) by reporting the reason instead of a crossing; other invalid
    parameters raise ValueError.  The erg0 charges come from the moment core,
    so weak charges keep their relative precision.  omega comes from spec (1
    when None) and the bath scale from nbar.
    """
    mu_abs = _check_point(r, mu, nbar_pi, nbar, boundary_ok=True)
    omega = 1.0 if spec is None else spec.omega
    return _reports((r,), (nbar_pi,), (nbar,), mu_abs, omega, tau_max, scan_step)[0]


def equal_charge_amplitude(r, nbar_pi) -> float:
    """Displacement amplitude whose charge matches a squeezed thermal seed.

    mu = sqrt(2 f_pi) sinh r = sqrt(f_pi [cosh(2r) - 1]) makes the two initial
    ergotropies equal, and the product keeps its precision where cosh(2r) - 1
    cancels.  Raises ValueError, as factory.squeeze does, when cosh 2r
    overflows (r above about 355.2), and when mu^2 is not a float.
    """
    if not _finite(r, nbar_pi) or r < 0.0 or nbar_pi < 0.0:
        raise ValueError("r and nbar_pi must be finite and nonnegative")
    _cosh_2r(r)  # squeeze's range rule
    # sqrt(f_pi / 2) (2 sinh r) is sqrt(2 f_pi) sinh r bit for bit, and 2 f_pi cannot overflow
    mu = math.sqrt(0.5 * (nbar_pi + 0.5)) * (2.0 * math.sinh(r))
    if not math.isfinite(mu * mu):
        raise ValueError("equal-charge amplitude exceeds float range: mu^2 overflows")
    return mu


def mpemba_scan(grid: SweepGrid, spec: SystemBathSpec | None = None) -> ScanResult:
    """Crossing report for every (r, nbar_pi, nbar) grid point.

    The grid is validated and seeded once per axis, not once per point, by
    the same _seed_axes that serves crossing_report's one-point axes, so a grid
    that holds a point crossing_report refuses raises ValueError.  The
    closed form's (r, nbar_pi) part is likewise taken once per pair.  One
    batched oracle call serves the whole grid: each point's first sign
    change is searched for from its last sure sample, all points together,
    then all bracketed points are bisected together as arrays; every report
    is what the point gets alone.  Rows follow the axis order
    r (outer), nbar_pi, nbar (inner).
    """
    omega = 1.0 if spec is None else spec.omega
    axes = grid.r_values, grid.nbar_pi_values, grid.nbar_values
    reports = _reports(*axes, abs(grid.mu), omega, _TAU_MAX, _SCAN_STEP)
    points = [(r, nbar_pi, nbar) for r in axes[0] for nbar_pi in axes[1] for nbar in axes[2]]
    return ScanResult(tuple(ScanRow(*point, grid.mu, rep) for point, rep in zip(points, reports)))


def faster_discharge_demo(r, nbar_pi, nbar, tau_grid=None) -> DischargePair:
    """Equal initial charge, unequal discharge: squeezed loses work faster.

    Uses the equal-charge amplitude, so the two trajectories start with the
    same ergotropy and the displaced one stays strictly above for tau > 0,
    as the module docstring proves.
    Both relax toward a bath of occupation nbar at omega = 1, sampled on
    tau_grid (0 to 5 in steps of 0.01 when None).
    """
    spec = SystemBathSpec(nbar=nbar)
    mu = equal_charge_amplitude(r, nbar_pi)
    if tau_grid is None:
        tau_grid = np.arange(501) * 0.01
    squeezed = sample_trajectory(squeezed_thermal(nbar_pi, r), spec, tau_grid)
    displaced = sample_trajectory(displaced_thermal(nbar_pi, mu), spec, tau_grid)
    return DischargePair(mu, squeezed, displaced)
