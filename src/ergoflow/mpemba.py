"""Crossing analysis for anomalous discharge of squeezed vs displaced charge.

A squeezed thermal state that starts with more extractable work than a
displaced thermal one can nevertheless fall below it in finite time, because
its passive-state energy is pumped up transiently while the displaced
family's passive energy relaxes monotonically.  This module locates that
crossing in closed form, cross-validates it with a bisection oracle that
searches and bisects a whole batch of parameter points at once, one array
entry per point, finds equal-charge displacement amplitudes, and sweeps
the crossing time over bath/seed temperature axes.  Its reports and sweep
rows (CrossingReport, ScanRow) are NamedTuples: copy one with _replace.

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
the gap precedes a sure sample.  Likewise the resolved samples that are
sure negative, erg_displaced ahead by more than _GAP_SIGNIFICANCE of the
sum, follow every other resolved one, and the unresolved samples come last.
So a window's samples run: sure, insignificant (resolved, of either sign),
sure negative, unresolved.  The gap's sign can be trusted on significant
samples (sure or sure negative) only, so the oracle's bracket of the sign
change, two samples with g > 0 at the first and not at the second, lies at
one of three places.  With L the last sure sample, it is L, L + 1 where
sample L + 1 reads g <= 0.  Otherwise let Q be the first sample after L
that is unresolved or sure negative.  Where Q is sure negative, the bracket
is Q - 1, Q where sample Q - 1 reads g > 0, and L, Q where it does not: the
sign change then lies between two insignificant samples.  Where Q is
unresolved, no significant sample follows L, and the point has no crossing
on the window.  L and Q are found by bisecting over the sample indices:
the samples that are not sure form a suffix of the window, and so do those
that are unresolved or sure negative.

Certificate: the oracle takes each point's closed-form tau_c as a hint, and
the hint only decides where it looks, never what it reports.  Where sample
k = floor(tau_c / scan_step) is sure and sample k + 1 is not, the sure
prefix ends at k, so L = k without a search.  The bisection first reads
a, b = tau_c (1 -+ _HINT_RTOL).  Where a is sure, b is sure negative and the
bracket's upper end is resolved, a halving whose midpoint lies outside
(a, b) is decided from a or b alone, and only the others are evaluated.  A
midpoint at or below a comes no later than a sure point, so by the lemma it
reads erg_squeezed > erg_displaced, with no tie: g > 0, as evaluating it
would give.  A midpoint at or above b, and below the upper end, has charges
at least the upper end's, to a few ulps, so they are normal floats computed
to a few ulps, and its relative gap is below b's, more than
_GAP_SIGNIFICANCE below 0: it reads erg_squeezed < erg_displaced, with no
tie, so g <= 0, as evaluating it would give.  So every report is the same
bit for bit whatever the hint; a wrong or missing hint fails its
certificate and costs evaluations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product, repeat
from typing import NamedTuple

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
# The bisection decides its halvings outside (a, b) = hint (1 -+ _HINT_RTOL)
# without evaluating them where the gap's sign at a and b certifies it
# (_bisect).  Wide enough that the gap is significant at a and b for nearly
# every crossing (2 of 2,000 random crossing points miss it, 18 at 1e-11),
# and narrow enough that about 22 of a grid's some 50 halvings are evaluated.
_HINT_RTOL = 1e-10


class CrossingReport(NamedTuple):
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


class ScanRow(NamedTuple):
    r: float
    nbar_pi: float
    nbar: float
    mu: float
    report: CrossingReport


@dataclass(frozen=True)
class ScanResult:
    """Sweep table: one ScanRow per grid point, in mpemba_scan's row order."""

    rows: tuple


@dataclass(frozen=True, eq=False)
class DischargePair:
    """Equal-charge squeezed/displaced trajectories (squeezed loses faster); == and hash by identity."""

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
    """(seeds, closed) of finite axes, with nonnegative occupations, at |mu| = mu_abs.

    seeds is the oracle's (N, 5) array, one seed pair (lam_s, |m_s|, |mu|^2, f,
    omega) per point in row order (r outer, nbar inner), and closed holds each
    point's closed-form tau_c, None unless r > 0 (at r = 0 an |mu|^2 that
    underflowed to 0 would read as the degenerate boundary) and mu != 0
    (_closed_form_time would divide by a zero mantissa).  |mu| and the
    occupations are taken as Python floats, so that numpy scalars, whose
    overflow warns, do the same arithmetic.  The axes are checked once each,
    not once per point: |mu|^2 once, (nbar + 1/2)^2 once per nbar, and the seed
    and its energy range once per pair, at the largest nbar.  Raises
    ValueError for a seed beyond float range (its V^2, |mu|^2, (nbar + 1/2)^2
    or omega times an energy), as the states would.
    """
    mu_abs = float(mu_abs)
    fs = [float(nbar) + 0.5 for nbar in nbar_values]
    if not _finite(mu_abs * mu_abs, *(f * f for f in fs)):
        raise ValueError("crossing point exceeds float range: |mu|^2 or (nbar + 1/2)^2 overflows")
    mu_sq = mu_abs ** 2
    pairs = [(r, float(nbar_pi) + 0.5) for r in r_values for nbar_pi in nbar_pi_values]
    # every seed is checked before the closed form takes sinh r and cosh r
    moduli, f_max = [], max(fs)
    for r, f_pi in pairs:
        v_s, m_s, lam_s = _squeezed_seed(f_pi, max(r, 0.0))
        _check_energy(v_s, mu_sq, omega, f_max)  # it grows with f, so f_max covers the pair
        moduli.append((lam_s, m_s))
    seeds = np.empty((len(pairs), len(fs), 5))
    seeds[:, :, :2] = np.array(moduli)[:, None, :]
    seeds[:, :, 2], seeds[:, :, 3], seeds[:, :, 4] = mu_sq, fs, omega
    gaps = [_closed_form_gap(r, mu_sq, f_pi) if r > 0.0 and mu_abs != 0.0 else None for r, f_pi in pairs]
    closed = [p if not p else _closed_form_time(p, mu_abs, mu_sq, f) for p in gaps for f in fs]
    return seeds.reshape(-1, 5), closed


def crossing_time_closed_form(r, mu, nbar_pi, nbar) -> float | None:
    """Dimensionless time tau_c at which the squeezed charge drops to the displaced one.

    Requires the anomalous ordering |mu|^2 < 2 f_pi sinh^2(r) (squeezed state
    strictly more charged at tau = 0); returns None when the ordering fails
    and 0.0 on the degenerate equal-charge boundary.
    """
    return _seed_axes((r,), (nbar_pi,), (nbar,), _check_point(r, mu, nbar_pi, nbar))[1][0]


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


def _charges(tau, lam_s, m_s, v_sq, f, omega):
    """Squeezed and displaced ergotropy at tau, elementwise, from seeds relaxed to x = exp(-tau) (1 at tau = 0).

    The squeezed seed has no mean and the displaced one no M, so one core pass over
    (lam_s, |m_s|, |v_d|^2) gives both: its covariance and its displacement share.
    """
    _, erg_d, erg_s = _work(*_relax(lam_s, m_s, v_sq, f, np.exp(-tau)), omega)
    return erg_s, erg_d


def _bisect(lo, hi, moments, floor, hint, settled):
    """Bisect every bracket [lo, hi] of the gap at once; each argument has one column or entry per bracket.

    g > 0 holds at lo and not at hi, settled marks the brackets whose hi is
    resolved, and hint is where each root is expected (nan where unknown).
    Each round halves every bracket, and one whose midpoint has g exactly 0
    with both charges resolved (at least floor) collapses to lo = hi = mid.  A
    bracket down to adjacent floats, or collapsed, returns the same midpoint
    in every later round, and once every midpoint equals an endpoint, mid is
    returned, within an ulp of where g > 0 flips, or nan where the charges
    there are not resolved.  Charges that underflowed to 0 give g = 0 too, but
    that is no root: such a midpoint counts as g <= 0, as any other.  One
    evaluation first reads a, b = hint (1 -+ _HINT_RTOL).  Where every bracket
    is certified there, a sure, b sure negative and hi settled, a round in
    which some midpoints lie at or below their a, or at or above their b, and
    short of their endpoints, halves only those brackets, without evaluation:
    g > 0 at or below a and g <= 0 at or above b, as evaluating would give
    (the module docstring's certificate).  The other rounds are evaluated.
    So the hint changes no result, only the number of evaluations.
    """
    a, b = hint * (1.0 - _HINT_RTOL), hint * (1.0 + _HINT_RTOL)
    positive, _, significant = _flags(*_charges(np.stack([a, b]), *moments), floor)
    # a bracket that is not certified takes more evaluated rounds than the others
    # could skip, so halvings are skipped only where every bracket is certified
    certified = (settled & significant[0] & positive[0] & significant[1] & ~positive[1]).all()
    while True:
        mid = 0.5 * (lo + hi)
        if certified:
            # a midpoint equal to an endpoint (no halving left) is left to an evaluated round
            below, above = (mid <= a) & (lo < mid), (mid >= b) & (mid < hi)
            if (below | above).any():
                lo, hi = np.where(below, mid, lo), np.where(above, mid, hi)
                continue
        erg_s, erg_d = _charges(mid, *moments)
        if ((mid == lo) | (mid == hi)).all():
            return np.where(np.minimum(erg_s, erg_d) >= floor, mid, math.nan)
        # g > 0 exactly when erg_s > erg_d, and g = 0 exactly when erg_s == erg_d (as in _flags)
        positive = erg_s > erg_d
        lo, hi = np.where(positive, mid, lo), np.where(positive, hi, mid)
        if (erg_s == erg_d).any():
            root = (erg_s == erg_d) & (erg_s >= floor)
            lo, hi = np.where(root, mid, lo), np.where(root, mid, hi)


def _flags(erg_s, erg_d, floor):
    """g > 0, resolved and significant, elementwise, for gap samples with charges erg_s and erg_d.

    g > 0 exactly when erg_s > erg_d: the exact difference of two doubles is a
    multiple of 2^-1074, so it rounds to a positive double when it is positive.
    A sample is resolved when both charges are at least floor, and significant
    when it is resolved and |g| exceeds _GAP_SIGNIFICANCE of their sum, so that
    its sign stands clear of the charges' roundoff.  A sample is sure when it is
    significant with g > 0, and sure negative when it is significant with g <= 0.
    """
    resolved = np.minimum(erg_s, erg_d) >= floor
    significant = resolved & (np.abs(erg_s - erg_d) > _GAP_SIGNIFICANCE * (erg_s + erg_d))
    return erg_s > erg_d, resolved, significant


def _search(tau, moments, floor, lo, hi, negative):
    """Each point's first sample after its sure sample lo that is not sure, or with negative unresolved or sure negative.

    tau is _window's, and moments and floor have one column, and lo and hi
    one entry, per point; the sample searched for lies in (lo, hi], where hi
    is the window's size if the point may have none, and a point without one
    gets hi back.  By the module docstring's lemma the samples searched for
    form a suffix of the window, so bisecting over the sample indices finds
    the first of them, for all points at once, forming only the samples read:
    each round keeps lo short of the suffix and hi in it (or where it was),
    until hi = lo + 1; an empty batch runs no rounds.
    """
    for _ in range(int((hi - lo).max(initial=1) - 1).bit_length()):
        mid = (lo + hi) // 2
        positive, resolved, significant = _flags(*_charges(tau(mid), *moments), floor)
        done = ~resolved | (significant & ~positive) if negative else ~(significant & positive)
        lo, hi = np.where(done, lo, mid), np.where(done, mid, hi)
    return hi


def _window(tau_max, scan_step) -> tuple:
    """(size, tau): the scan window's sample count, and tau(k), the tau of each sample index in k.

    The samples are the multiples of scan_step below tau_max (so not one beyond
    float range, which tau never forms), then tau_max.  Within _MAX_SCAN_STEPS
    steps, rounding brings no multiple to tau_max but the top three, from
    ceil(tau_max / scan_step) - 2 up, so only those are formed to count them.
    """
    if not (_finite(tau_max, scan_step) and tau_max > 0.0 and scan_step > 0.0):
        raise ValueError("tau_max and scan_step must be finite and positive")
    if tau_max / scan_step > _MAX_SCAN_STEPS:
        raise ValueError(f"the scan window holds more than {_MAX_SCAN_STEPS} steps of scan_step")
    first = max(math.ceil(tau_max / scan_step) - 2, 0)
    with np.errstate(over="ignore"):
        size = first + int(np.count_nonzero(np.arange(first, first + 3) * scan_step < tau_max)) + 1
    return size, lambda k: np.where(k < size - 1, np.minimum(k, size - 2) * scan_step, tau_max)


def _numeric_crossings(seeds, tau_max, scan_step, hints=None) -> tuple:
    """Bisection oracle for a batch of seed pairs: lists (times, erg0_s, erg0_d), one entry per point.

    seeds holds the moments of one seed pair per point, and hints, if given,
    where each point's crossing is expected (nan where unknown), such as its
    closed-form tau_c.  Each gap g(tau) = erg_squeezed(tau) - erg_displaced(tau)
    is sampled on the window (_window), forming only the samples read; each
    point that crosses gets the bracket that the module docstring places, two
    samples with g > 0 at the first and not at the second, and all bracketed
    points are bisected together, so no crossing beyond tau_max is reported.
    A hint only decides where the oracle looks: the sample pair k, k + 1
    around it is read first, and where k is sure and k + 1 not, k is the last
    sure sample L with no search; elsewhere the pair narrows the search.  The
    bisection takes the hint too (_bisect), so a wrong or missing hint costs
    evaluations and changes no result.  A point gets 0.0 when its tau = 0
    charges coincide, and None when it has no bracket or its bracket's root
    lies where the charges are not resolved (a scan step coarser than their
    decay can bracket it).  erg0_s and erg0_d are the charges of its first
    sample, at tau = 0.  Raises ValueError as _window does.
    """
    size, tau = _window(tau_max, scan_step)
    # one column per moment and entry per point
    moments = np.array(seeds, dtype=float).reshape(-1, 5).T
    # a hint below 0 reads as 0, so that the charges the certificates read are at tau >= 0
    hints = np.full(moments.shape[1], math.nan) if hints is None else np.maximum(hints, 0.0)
    # a charge below the smallest normal float (times omega, so that the
    # moment products behind it are normal too) has lost its relative
    # precision, and so has the gap's sign
    floor = sys.float_info.min * np.maximum(1.0, moments[-1])
    erg_s, erg_d = _charges(0.0, *moments)
    positive, resolved, significant = _flags(erg_s, erg_d, floor)
    equal = resolved & (np.abs(erg_s - erg_d) <= _EQUAL_CHARGE_RTOL * (erg_s + erg_d))
    times = np.where(equal, 0.0, math.nan)
    # only a point whose tau = 0 sample is sure, its charges apart, can cross
    pending = np.flatnonzero(significant & positive & ~equal)
    moments, floor = moments[:, pending], floor[pending]
    # the samples k, k + 1 around the hint (k = size - 2 where it is nan or past the window)
    k = np.clip(np.floor(np.fmin(hints[pending], tau_max) / scan_step), 0, size - 2).astype(int)
    positive, _, significant = _flags(*_charges(tau(np.stack([k, k + 1])), *moments), floor)
    sure = significant & positive
    # L + 1, each point's first sample that is not sure, is k + 1 where k is sure and
    # k + 1 not, beyond k + 1 where that is sure, and before k where k is not (sample
    # 0 is sure); without one, g > 0 on the whole window
    lo = np.where(sure[1], k + 1, np.where(sure[0], k, 0))
    hi = _search(tau, moments, floor, lo, np.where(sure[1], size, np.where(sure[0], k + 1, k)), False)
    ahead = hi < size
    pending, hi, moments, floor = pending[ahead], hi[ahead], moments[:, ahead], floor[ahead]
    lo = hi - 1
    # where sample L + 1 reads g > 0, the bracket ends at Q, if Q is sure negative
    unbracketed, settled, _ = _flags(*_charges(tau(hi), *moments), floor)
    rest = np.flatnonzero(unbracketed)
    q = _search(tau, moments[:, rest], floor[rest], lo[rest], np.full(rest.size, size), True)
    ends = np.minimum([q - 1, q], size - 1)
    positive, _, significant = _flags(*_charges(tau(ends), *moments[:, rest]), floor[rest])
    unbracketed[rest] = (q == size) | ~significant[1]
    lo[rest], hi[rest], settled[rest] = np.where(positive[0], q - 1, lo[rest]), q, significant[1]
    points = np.flatnonzero(~unbracketed)
    times[pending[points]] = _bisect(
        tau(lo[points]), tau(hi[points]), moments[:, points], floor[points], hints[pending[points]], settled[points]
    )
    return [None if math.isnan(t) else t for t in times.tolist()], erg_s.tolist(), erg_d.tolist()


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
    mu_abs = _check_point(r, mu, nbar_pi, nbar)
    return _reports((r,), (nbar_pi,), (nbar,), mu_abs, spec, _TAU_MAX, _SCAN_STEP)[0].tau_c_numeric


def _reports(r_values, nbar_pi_values, nbar_values, mu_abs, spec, tau_max, scan_step) -> list:
    """Crossing reports for every point of axes as _seed_axes takes them, with one oracle call for all.

    The oracle takes every point's seed pair, one row of _seed_axes's seeds:
    where r <= 0 or mu = 0, a tau = 0 charge is 0, not resolved, so it gives
    None.  The reported tau = 0 charges are the oracle's own, its first sample.
    """
    omega = 1.0 if spec is None else spec.omega
    seeds, closed = _seed_axes(r_values, nbar_pi_values, nbar_values, mu_abs, omega)
    hints = [math.nan if tau_c is None else tau_c for tau_c in closed]
    numeric, erg0_s, erg0_d = _numeric_crossings(seeds, tau_max, scan_step, hints)
    notes = [
        NOTE_NO_PRECONDITION if tau_c is None
        else NOTE_DEGENERATE if tau_c == 0.0
        else NOTE_NO_CROSSING if tau_n is None
        else ""
        for tau_c, tau_n in zip(closed, numeric)
    ]
    exists = [note == "" for note in notes]
    return list(map(CrossingReport, exists, closed, numeric, erg0_s, erg0_d, notes))


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
    return _reports((r,), (nbar_pi,), (nbar,), mu_abs, spec, tau_max, scan_step)[0]


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
    batched oracle call serves the whole grid, and every report is what the
    point gets alone.  Rows follow the axis order r (outer), nbar_pi, nbar
    (inner).
    """
    axes = grid.r_values, grid.nbar_pi_values, grid.nbar_values
    reports = _reports(*axes, abs(grid.mu), spec, _TAU_MAX, _SCAN_STEP)
    rs, pis, nbars = zip(*product(*axes))
    return ScanResult(tuple(map(ScanRow, rs, pis, nbars, repeat(grid.mu), reports)))


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
