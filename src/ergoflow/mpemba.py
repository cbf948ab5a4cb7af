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
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _relax, sample_trajectory
from .factory import _cosh_2r, _squeezed_seed, displaced_thermal, squeezed_thermal
from .states import SystemBathSpec, _check_energy, _modulus, _work

__all__ = [
    "NOTE_NO_PRECONDITION",
    "NOTE_DEGENERATE",
    "NOTE_NO_CROSSING",
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
# The scan's first chunk of samples per point, and the most elements (points
# times samples) a chunk may hold, which bounds the scan's temporaries.
# mpemba_scan on the sweep benchmark's 240-point grids (seeds 53-55 and
# 63-65, 150 interleaved calls each, 2-core x86-64 host), median time
# relative to 8192:
#   budget   4096   8192   16384   32768
#   time     0.97   1.00   1.10    1.21
_MIN_CHUNK = 64
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
            if any(not math.isfinite(v) or v < 0.0 for v in values):
                raise ValueError(f"{name} must be finite and nonnegative")
        if not math.isfinite(self.mu) or self.mu < 0.0:
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
    """Sweep table plus adjacent-pair monotonicity statistics.

    Violations count adjacent grid points (with existing crossings) where
    tau_c fails to decrease along the nbar axis or fails to increase along
    the nbar_pi axis.
    """

    rows: tuple
    nbar_comparisons: int
    nbar_decreasing_violations: int
    nbar_pi_comparisons: int
    nbar_pi_increasing_violations: int


@dataclass(frozen=True)
class DischargePair:
    """Equal-charge squeezed/displaced trajectories (squeezed loses faster)."""

    mu: float
    squeezed: Trajectory
    displaced: Trajectory


def _check_crossing_args(r, mu, nbar_pi, nbar, boundary_ok=False, omega=1.0) -> tuple:
    """(tested, seed pair (lam_s, |m_s|, |mu|^2, f, omega)) of a point; tested is r > 0 and mu != 0.

    Otherwise the point is an error unless boundary_ok; r <= 0 seeds no
    squeezing.  Raises ValueError for non-finite values, negative
    occupations, and seeds beyond float range (their V^2, |mu|, |mu|^2,
    (nbar + 1/2)^2 or omega times an energy), as the states would.
    """
    mu_abs, f = _modulus(mu, "mu"), nbar + 0.5
    if any(not math.isfinite(v) for v in (r, mu_abs, nbar_pi, nbar)):
        raise ValueError("crossing parameters must be finite")
    if nbar_pi < 0.0 or nbar < 0.0:
        raise ValueError("occupations must be nonnegative")
    if not (math.isfinite(mu_abs * mu_abs) and math.isfinite(f * f)):
        raise ValueError("crossing point exceeds float range: |mu|^2 or (nbar + 1/2)^2 overflows")
    v_s, m_s, lam_s = _squeezed_seed(nbar_pi + 0.5, max(r, 0.0))
    v_sq = mu_abs ** 2
    _check_energy(v_s, v_sq, omega, f)
    if r <= 0.0 and not boundary_ok:
        raise ValueError("squeezing magnitude r must be positive")
    if mu == 0.0 and not boundary_ok:
        raise ValueError("displacement amplitude mu must be nonzero")
    return r > 0.0 and mu != 0.0, (lam_s, m_s, v_sq, f, omega)


def crossing_time_closed_form(r, mu, nbar_pi, nbar) -> float | None:
    """Dimensionless time tau_c at which the squeezed charge drops to the displaced one.

    Requires the anomalous ordering |mu|^2 < 2 f_pi sinh^2(r) (squeezed state
    strictly more charged at tau = 0); returns None when the ordering fails
    and 0.0 on the degenerate equal-charge boundary.
    """
    _check_crossing_args(r, mu, nbar_pi, nbar)
    return _closed_form(r, mu, nbar_pi, nbar)


def _closed_form(r, mu, nbar_pi, nbar) -> float | None:
    """crossing_time_closed_form of a point that _check_crossing_args has accepted."""
    f_pi, f = nbar_pi + 0.5, nbar + 0.5
    mu_sq = abs(mu) ** 2
    # charge_gap = (displaced - squeezed) initial ergotropy over omega
    charge_gap = mu_sq - 2.0 * math.sinh(r) ** 2 * f_pi
    if abs(charge_gap) <= _EQUAL_CHARGE_RTOL * (mu_sq + 2.0 * math.sinh(r) ** 2 * f_pi):
        return 0.0
    if charge_gap > 0.0:
        return None
    # Second factor is charge_gap shifted down by 2 f_pi, so the product is
    # positive whenever the precondition holds and the log argument exceeds 1.
    shifted_gap = mu_sq - 2.0 * math.cosh(r) ** 2 * f_pi
    if mu_sq >= sys.float_info.min:
        ratio = shifted_gap * charge_gap / (2.0 * mu_sq * f)
        if math.isfinite(ratio):
            return math.log1p(ratio)
    # |mu|^2 underflowed or the ratio overflowed: the 1 in log(1 + ratio) is
    # negligible, and the log of the ratio is taken in log space
    return math.log(shifted_gap * charge_gap / (2.0 * f)) - 2.0 * math.log(abs(mu))


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
    bracket; one whose midpoint equals an endpoint (adjacent floats) or has g
    exactly 0 with both charges resolved (at least floor) collapses to
    lo = hi = mid, and once all have, mid is returned, within an ulp of where
    g > 0 flips, or nan where the charges there are not resolved.  Charges
    that underflowed to 0 give g = 0 too, but that is no root: such a
    midpoint counts as g <= 0, as any other.
    """
    while True:
        mid = 0.5 * (lo + hi)
        erg_s, erg_d = _charges(np.exp(-mid), *moments)
        # g = 0 exactly when erg_s == erg_d, and g > 0 when erg_s > erg_d (as in the scan)
        done = (mid == lo) | (mid == hi) | ((erg_s == erg_d) & (erg_s >= floor))
        if done.all():
            return np.where(np.minimum(erg_s, erg_d) >= floor, mid, math.nan)
        same_side = (erg_s > erg_d) == lo_positive
        lo = np.where(done | same_side, mid, lo)
        hi = np.where(done | ~same_side, mid, hi)


def _first_flips(decay, moments, floor, pending, first, lo_positive):
    """Scan the pending points' gaps together; set first[i] to k and lo_positive[i] to g > 0 at k.

    Point i's first significant change of g > 0 lies between samples k and
    k + 1 of decay; first stays as it is for a point without one.  The chunks
    start at _MIN_CHUNK samples and grow fourfold, up to _SCAN_BUDGET
    elements over the pending points (at most _SCAN_BUDGET // _MIN_CHUNK of
    them); adjacent chunks share their edge sample, and a point leaves at its
    first flip, so only points whose crossing lies past the window scan all
    of decay.  The sign of g is taken on every sample, and the significance
    rule only on the rows of a chunk where that sign changes.
    """
    start, width = 0, _MIN_CHUNK
    while pending.size and start < decay.size - 1:
        stop = min(decay.size, start + min(width, _SCAN_BUDGET // pending.size))
        erg_s, erg_d = _charges(decay[start:stop], *moments[:, pending])
        # g > 0 exactly when erg_s > erg_d: the exact difference of two doubles is
        # a multiple of 2^-1074, so it rounds to a positive double when it is positive
        positive = erg_s > erg_d
        flips = positive[:, :-1] != positive[:, 1:]
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
            k, found = flips[hit].argmax(axis=1), rows[hit]
            first[pending[found]] = start + k
            lo_positive[pending[found]] = positive[found, k]
            pending = np.delete(pending, found)
        start, width = stop - 1, 4 * width


def _numeric_crossings(seeds, tau_max, scan_step) -> list:
    """Bisection oracle for a batch of seed pairs: one crossing time (or None) each.

    seeds holds the moments of one seed pair per point.  Each gap
    g(tau) = erg_squeezed(tau) - erg_displaced(tau) is sampled at the
    multiples of scan_step below tau_max and at tau_max, for its first change
    of g > 0 (an exact zero counts as non-positive); then all bracketed
    points are bisected together, so no crossing beyond tau_max is reported.
    The points are scanned together in bounded chunks of samples, and each
    stops at its first sign change (_first_flips), kept in per-point arrays.
    A point gets 0.0 when its tau = 0 charges coincide, and None when g > 0
    does not change where the charges are resolved or its bracket's root lies
    where they are not (a scan step coarser than their decay can bracket it).
    Only points with g > 0 at tau = 0 are scanned: g changes sign at most
    once, from + to - (module docstring), so every other point gets the None
    that a scan of the whole window gives it.  Raises ValueError unless
    tau_max and scan_step are finite and positive and the window holds at
    most _MAX_SCAN_STEPS steps.
    """
    if not (0.0 < tau_max < math.inf and 0.0 < scan_step < math.inf):
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
        block = _SCAN_BUDGET // _MIN_CHUNK
        for i in range(0, pending.size, block):
            _first_flips(decay, moments, floor, pending[i:i + block], first, lo_positive)
        points = np.flatnonzero(first >= 0)
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
    seed = _check_crossing_args(r, mu, nbar_pi, nbar, omega=1.0 if spec is None else spec.omega)[1]
    return _numeric_crossings([seed], _TAU_MAX, _SCAN_STEP)[0]


def _crossing_reports(points, spec: SystemBathSpec | None, tau_max: float, scan_step: float) -> list:
    """Crossing reports for (r, mu, nbar_pi, nbar) points, with one oracle call for all.

    Every point is validated once, before the oracle runs; omega comes from
    spec (1 when None) and the bath scale from each point's nbar.  The
    reported tau = 0 charges are the oracle's own charges at x = 1, for all
    points at once.
    """
    omega = 1.0 if spec is None else spec.omega
    # r <= 0 or mu = 0 is reported as a missing precondition, without the oracle
    tested, seeds = zip(*[_check_crossing_args(*p, boundary_ok=True, omega=omega) for p in points])
    closed = [_closed_form(*p) if is_tested else None for p, is_tested in zip(points, tested)]
    erg0_s, erg0_d = _charges(1.0, *np.array(seeds).T)
    active = [seed for seed, is_tested in zip(seeds, tested) if is_tested]
    numerics = iter(_numeric_crossings(active, tau_max, scan_step))
    reports = []
    for is_tested, tau_c, erg_s, erg_d in zip(tested, closed, erg0_s.tolist(), erg0_d.tolist()):
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
    so weak charges keep their relative precision.
    """
    return _crossing_reports([(r, mu, nbar_pi, nbar)], spec, tau_max, scan_step)[0]


def equal_charge_amplitude(r, nbar_pi) -> float:
    """Displacement amplitude whose charge matches a squeezed thermal seed.

    mu = sqrt(2 f_pi) sinh r = sqrt(f_pi [cosh(2r) - 1]) makes the two initial
    ergotropies equal, and the product keeps its precision where cosh(2r) - 1
    cancels.  Raises ValueError, as factory.squeeze does, when cosh 2r
    overflows (r above about 355.2), and when mu^2 is not a float.
    """
    if not (math.isfinite(r) and math.isfinite(nbar_pi)) or r < 0.0 or nbar_pi < 0.0:
        raise ValueError("r and nbar_pi must be finite and nonnegative")
    _cosh_2r(r)  # squeeze's range rule
    # sqrt(f_pi / 2) (2 sinh r) is sqrt(2 f_pi) sinh r bit for bit, and 2 f_pi cannot overflow
    mu = math.sqrt(0.5 * (nbar_pi + 0.5)) * (2.0 * math.sinh(r))
    if not math.isfinite(mu * mu):
        raise ValueError("equal-charge amplitude exceeds float range: mu^2 overflows")
    return mu


def _ordered_pairs(series, in_order) -> tuple:
    """(comparisons, violations): adjacent crossings (prev, cur) of each series not in_order."""
    comparisons = violations = 0
    for reports in series:
        taus = [rep.tau_c_closed for rep in reports if rep.exists]
        for prev, cur in zip(taus, taus[1:]):
            comparisons += 1
            violations += int(not in_order(prev, cur))
    return comparisons, violations


def mpemba_scan(grid: SweepGrid, spec: SystemBathSpec | None = None) -> ScanResult:
    """Crossing report for every (r, nbar_pi, nbar) grid point.

    One batched oracle call serves the whole grid: all points' gaps are
    scanned together in bounded chunks, each point stopping at its first
    sign change, then all bracketed points are bisected together as arrays;
    every report is what the point gets alone.  Rows follow the axis order
    r (outer), nbar_pi, nbar (inner).
    """
    points = [
        (r, nbar_pi, nbar)
        for r in grid.r_values
        for nbar_pi in grid.nbar_pi_values
        for nbar in grid.nbar_values
    ]
    reports = _crossing_reports(
        [(r, grid.mu, nbar_pi, nbar) for r, nbar_pi, nbar in points], spec, _TAU_MAX, _SCAN_STEP
    )
    rows = tuple(
        ScanRow(r, nbar_pi, nbar, grid.mu, rep)
        for (r, nbar_pi, nbar), rep in zip(points, reports)
    )

    # tau_c must fall along nbar and rise along nbar_pi
    n_nbar, block = len(grid.nbar_values), len(grid.nbar_pi_values) * len(grid.nbar_values)
    along_nbar = [reports[i:i + n_nbar] for i in range(0, len(rows), n_nbar)]
    along_nbar_pi = [
        reports[b + j:b + block:n_nbar] for b in range(0, len(rows), block) for j in range(n_nbar)
    ]
    return ScanResult(
        rows, *_ordered_pairs(along_nbar, operator.gt), *_ordered_pairs(along_nbar_pi, operator.lt)
    )


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
