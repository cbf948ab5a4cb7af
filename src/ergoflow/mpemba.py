"""Crossing analysis for anomalous discharge of squeezed vs displaced charge.

A squeezed thermal state that starts with more extractable work than a
displaced thermal one can nevertheless fall below it in finite time, because
its passive-state energy is pumped up transiently while the displaced
family's passive energy relaxes monotonically.  This module locates that
crossing in closed form, cross-validates it with a bisection oracle that
bisects a whole batch of parameter points at once as arrays, finds
equal-charge displacement amplitudes, and sweeps the crossing time over
bath/seed temperature axes.

All crossing times are reported in the dimensionless variable tau = gamma t;
they do not depend on omega or gamma individually.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _relax, sample_trajectory
from .factory import _MAX_SQUEEZING, _cosh_2r, displaced_thermal, squeezed_thermal
from .states import InvalidStateError, SystemBathSpec, _work

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

# Bisection oracle: scan window and step in tau, stopping tolerances, the cap
# on halvings per bracket, and how far a gap sample must stand above the
# roundoff of the two charges it separates to count toward a sign change.
_TAU_MAX = 50.0
_SCAN_STEP = 0.01
_G_TOL = 1e-12
_TAU_TOL = 1e-12
_MAX_BISECTIONS = 256
_GAP_SIGNIFICANCE = 1e-13


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


def _check_crossing_args(r, mu, nbar_pi, nbar, boundary_ok=False) -> bool:
    """Validate a point; True when r > 0 and mu != 0, else an error unless boundary_ok.

    Raises ValueError for non-finite values, negative occupations, and a point
    whose seeds exceed float range: the squeezed seed's V^2, |mu|^2 or the
    bath's (nbar + 1/2)^2 overflows, as GaussianState and SystemBathSpec require.
    """
    if any(not math.isfinite(v) for v in (r, abs(mu), nbar_pi, nbar)):
        raise ValueError("crossing parameters must be finite")
    if nbar_pi < 0.0 or nbar < 0.0:
        raise ValueError("occupations must be nonnegative")
    r_seed, mu_abs, f = max(r, 0.0), abs(mu), nbar + 0.5
    v_s = math.cosh(2.0 * r_seed) * (nbar_pi + 0.5) if r_seed <= _MAX_SQUEEZING else math.inf
    if not (math.isfinite(v_s * v_s) and math.isfinite(mu_abs * mu_abs) and math.isfinite(f * f)):
        raise ValueError(
            "crossing parameters exceed float range: the squeezed seed's V^2, |mu|^2 "
            "or (nbar + 1/2)^2 overflows"
        )
    if r <= 0.0 and not boundary_ok:
        raise ValueError("squeezing magnitude r must be positive")
    if mu == 0.0 and not boundary_ok:
        raise ValueError("displacement amplitude mu must be nonzero")
    return r > 0.0 and mu != 0.0


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


def _seed(r, mu, nbar_pi, f, omega) -> tuple:
    """(a_s, |m_s|, |v_d|^2, f, omega) of one point's seed pair, bit for bit factory.squeeze's.

    r <= 0 counts as no squeezing.  A seed whose V^2 - |M|^2 rounds below 0
    (from r near 9.7) is rejected, not given NaN charges.
    """
    f_pi = nbar_pi + 0.5
    r = max(r, 0.0)
    a_s = math.cosh(2.0 * r) * f_pi
    m_s = 2.0 * math.cosh(r) * math.sinh(r) * f_pi
    if a_s * a_s - m_s * m_s < 0.0:
        raise InvalidStateError(f"squeezing r = {r} leaves det cov < 0 in floating point")
    return a_s, m_s, abs(mu) ** 2, f, omega


def _charges(x, a_s, m_s, v_sq, f, omega):
    """Squeezed and displaced ergotropy once the seeds have relaxed to x = exp(-tau).

    The squeezed seed has no mean and the displaced one no M, so one core pass over
    (a_s, |m_s|, |v_d|^2) gives both: its covariance and its displacement share.
    """
    _, erg_d, erg_s = _work(*_relax(a_s, m_s, v_sq, f, x), omega)
    return erg_s, erg_d


def _bisect(lo, hi, g_lo, moments):
    """Bisect every bracket [lo, hi] of the gap at once; moments has one column per bracket.

    A bracket is done when it is below _TAU_TOL and its best |g| below _G_TOL,
    or when g is exactly 0 at a midpoint; after _MAX_BISECTIONS halvings the
    best midpoint so far is returned.
    """
    out = np.empty(lo.size)
    pending = np.arange(lo.size)
    best_tau, best_g = lo.copy(), g_lo.copy()
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        erg_s, erg_d = _charges(np.exp(-mid), *moments)
        g_mid = erg_s - erg_d
        better = np.abs(g_mid) < np.abs(best_g)
        best_tau = np.where(better, mid, best_tau)
        best_g = np.where(better, g_mid, best_g)
        done = ((hi - lo <= _TAU_TOL) & (np.abs(best_g) <= _G_TOL)) | (g_mid == 0.0)
        out[pending[done]] = best_tau[done]
        keep = ~done
        if not keep.any():
            return out
        same_side = (g_mid > 0.0) == (g_lo > 0.0)
        lo = np.where(same_side, mid, lo)[keep]
        g_lo = np.where(same_side, g_mid, g_lo)[keep]
        hi = np.where(same_side, hi, mid)[keep]
        pending, best_tau, best_g, moments = pending[keep], best_tau[keep], best_g[keep], moments[:, keep]
    out[pending] = best_tau
    return out


def _numeric_crossings(seeds, tau_max, scan_step) -> list:
    """Bisection oracle for a batch of seed pairs: one crossing time (or None) each.

    seeds holds the moments of one seed pair per point.  Each gap
    g(tau) = erg_squeezed(tau) - erg_displaced(tau) is scanned on
    [0, tau_max] at scan_step for its first sign change; then all bracketed
    points are bisected together.  A point gets 0.0 when its tau = 0 charges
    coincide and None when g shows no sign change where the charges are
    resolved.
    """
    n = max(1, int(round(tau_max / scan_step)))
    taus = np.arange(n + 1) * scan_step
    decay = np.exp(-taus)
    times = [None] * len(seeds)
    bracketed, lo, hi, g_lo, columns = [], [], [], [], []
    for i, moments in enumerate(seeds):
        erg_s, erg_d = _charges(decay, *moments)
        gap = erg_s - erg_d
        # a charge below the smallest normal float (times omega, so that the
        # moment products behind it are normal too) has lost its relative
        # precision, and so has the gap's sign
        resolved = np.minimum(erg_s, erg_d) >= sys.float_info.min * max(1.0, moments[-1])
        if resolved[0] and abs(gap[0]) <= _EQUAL_CHARGE_RTOL * (erg_s[0] + erg_d[0]):
            times[i] = 0.0
            continue
        # where the two charges agree to roundoff, the gap sign is noise; only
        # count a flip with at least one side clear of its own charges' roundoff
        significant = resolved & (np.abs(gap) > _GAP_SIGNIFICANCE * (erg_s + erg_d))
        # signs, not the product of neighbouring gaps, which underflows to 0
        sign = np.sign(gap)
        raw_flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
        flips = raw_flips[significant[raw_flips] | significant[raw_flips + 1]]
        zeros = np.nonzero(gap == 0.0)[0]
        exact_hits = zeros[significant[zeros - 1]]
        if exact_hits.size and (not flips.size or exact_hits[0] <= flips[0]):
            times[i] = float(taus[exact_hits[0]])
        elif flips.size:
            bracketed.append(i)
            lo.append(taus[flips[0]])
            hi.append(taus[flips[0] + 1])
            g_lo.append(gap[flips[0]])
            columns.append(moments)
    if bracketed:
        roots = _bisect(np.array(lo), np.array(hi), np.array(g_lo), np.array(columns).T)
        for i, tau in zip(bracketed, roots):
            times[i] = float(tau)
    return times


def crossing_time_numeric(
    r,
    mu,
    nbar_pi,
    nbar,
    spec: SystemBathSpec | None = None,
    tau_max: float = _TAU_MAX,
    scan_step: float = _SCAN_STEP,
) -> float | None:
    """Bisection oracle for the crossing time, built on the relaxed seed moments.

    Scans g(tau) = erg_squeezed(tau) - erg_displaced(tau) on [0, tau_max] at
    scan_step for a sign change, then bisects until the bracket is below
    1e-12 and |g| below 1e-12.  Returns 0.0 when the initial charges
    already coincide, and None when g never changes sign while both charges
    are resolved, i.e. at least the smallest normal float (so weak charges
    that underflow before they cross give None).
    """
    _check_crossing_args(r, mu, nbar_pi, nbar)
    seed = _seed(r, mu, nbar_pi, nbar + 0.5, 1.0 if spec is None else spec.omega)
    return _numeric_crossings([seed], tau_max, scan_step)[0]


def _crossing_reports(points, spec: SystemBathSpec | None, tau_max: float, scan_step: float) -> list:
    """Crossing reports for (r, mu, nbar_pi, nbar) points, with one oracle call for all.

    Every point is validated once, before the oracle runs; omega comes from
    spec (1 when None) and the bath scale from each point's nbar.  The
    reported tau = 0 charges are the oracle's own charges at x = 1, for all
    points at once.
    """
    omega = 1.0 if spec is None else spec.omega
    seeds, tested, closed = [], [], []
    for r, mu, nbar_pi, nbar in points:
        # r <= 0 or mu = 0 is reported as a missing precondition, without the oracle
        tested.append(_check_crossing_args(r, mu, nbar_pi, nbar, boundary_ok=True))
        seeds.append(_seed(r, mu, nbar_pi, nbar + 0.5, omega))
        closed.append(_closed_form(r, mu, nbar_pi, nbar) if tested[-1] else None)
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

    mu = sqrt(f_pi [cosh(2r) - 1]) makes the two initial ergotropies equal.
    Raises ValueError, as factory.squeeze does, when cosh 2r overflows (r
    above about 355.2), and when mu^2 is not a float.
    """
    if not (math.isfinite(r) and math.isfinite(nbar_pi)) or r < 0.0 or nbar_pi < 0.0:
        raise ValueError("r and nbar_pi must be finite and nonnegative")
    f_pi = nbar_pi + 0.5
    mu_sq = f_pi * (_cosh_2r(r) - 1.0)
    if not math.isfinite(mu_sq):
        raise ValueError("equal-charge amplitude exceeds float range: mu^2 overflows")
    return math.sqrt(mu_sq)


def mpemba_scan(grid: SweepGrid, spec: SystemBathSpec | None = None) -> ScanResult:
    """Crossing report for every (r, nbar_pi, nbar) grid point.

    One batched oracle call serves the whole grid: each point's gap is
    scanned on its own, then all bracketed points are bisected together as
    arrays.  Rows follow the axis order r (outer), nbar_pi, nbar (inner).
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

    by_key = {(row.r, row.nbar_pi, row.nbar): row.report for row in rows}

    nbar_cmp = nbar_bad = 0
    for r in grid.r_values:
        for nbar_pi in grid.nbar_pi_values:
            series = [by_key[(r, nbar_pi, nbar)] for nbar in grid.nbar_values]
            taus = [rep.tau_c_closed for rep in series if rep.exists]
            for prev, cur in zip(taus, taus[1:]):
                nbar_cmp += 1
                nbar_bad += int(not cur < prev)
    nbar_pi_cmp = nbar_pi_bad = 0
    for r in grid.r_values:
        for nbar in grid.nbar_values:
            series = [by_key[(r, nbar_pi, nbar)] for nbar_pi in grid.nbar_pi_values]
            taus = [rep.tau_c_closed for rep in series if rep.exists]
            for prev, cur in zip(taus, taus[1:]):
                nbar_pi_cmp += 1
                nbar_pi_bad += int(not cur > prev)

    return ScanResult(rows, nbar_cmp, nbar_bad, nbar_pi_cmp, nbar_pi_bad)


def faster_discharge_demo(
    r,
    nbar_pi,
    nbar,
    spec: SystemBathSpec | None = None,
    tau_grid=None,
) -> DischargePair:
    """Equal initial charge, unequal discharge: squeezed loses work faster.

    Uses the equal-charge amplitude, so the two trajectories start with the
    same ergotropy and the displaced one stays strictly above for tau > 0.
    """
    spec = SystemBathSpec(nbar=nbar) if spec is None else SystemBathSpec(spec.omega, spec.gamma, nbar)
    mu = equal_charge_amplitude(r, nbar_pi)
    if tau_grid is None:
        tau_grid = np.arange(501) * 0.01
    squeezed = sample_trajectory(squeezed_thermal(nbar_pi, r), spec, tau_grid)
    displaced = sample_trajectory(displaced_thermal(nbar_pi, mu), spec, tau_grid)
    return DischargePair(mu, squeezed, displaced)
