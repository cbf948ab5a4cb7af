"""Crossing times, equal-charge amplitudes, sweeps, and the discharge demo."""

import math
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ergoflow import (
    CrossingReport,
    ScanRow,
    SweepGrid,
    SystemBathSpec,
    crossing_report,
    crossing_time_closed_form,
    crossing_time_numeric,
    displaced_thermal,
    equal_charge_amplitude,
    ergotropy,
    faster_discharge_demo,
    mpemba_scan,
    squeezed_thermal,
)
from ergoflow import mpemba
from ergoflow.dynamics import _relax
from ergoflow.factory import _MAX_SQUEEZING
from ergoflow.mpemba import NOTE_DEGENERATE, NOTE_NO_CROSSING, NOTE_NO_PRECONDITION
from ergoflow.states import _work

from helpers import (
    literal_crossing_scan,
    reference_squeezed,
    relative_error,
    rng_for,
    seed_row,
    strictly_monotone,
)

# bisection-validated closed form value for r=1, mu=1, nbar_pi=0.2, nbar=0.4
TAU_C_FIG2 = 0.7931038912544939
MU_EQUAL_R1 = 1.3905168045581262  # sqrt(0.7 (cosh 2 - 1))


def amplitude_crossing_at(tau, r, nbar_pi, nbar):
    """The displacement amplitude whose closed-form crossing time is tau.

    y = mu^2 solves (y - 2 f_pi cosh^2 r)(y - 2 f_pi sinh^2 r) = 2 f (e^tau - 1) y;
    the smaller root, taken in its rationalised form, is the one below the squeezed charge.
    """
    f_pi = nbar_pi + 0.5
    a, b = 2.0 * f_pi * math.cosh(r) ** 2, 2.0 * f_pi * math.sinh(r) ** 2
    total = a + b + 2.0 * (nbar + 0.5) * math.expm1(tau)
    return math.sqrt(2.0 * a * b / (total + math.sqrt(total * total - 4.0 * a * b)))


def regime_points(rng, count):
    """count crossing points (r, mu, nbar_pi, nbar), cycling through five regimes."""
    points = []
    for i in range(count):
        nbar_pi, nbar = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        regime = i % 5
        if regime == 0:  # ordinary points
            r = rng.uniform(0.05, 3.0)
            mu = rng.uniform(0.01, 1.3) * equal_charge_amplitude(r, nbar_pi)
        elif regime == 1:  # hot seeds near equal charge
            r, nbar_pi = rng.uniform(0.3, 2.0), 10.0 ** rng.uniform(6.0, 13.0)
            mu = equal_charge_amplitude(r, nbar_pi) * (1.0 - 10.0 ** rng.uniform(-12.0, -6.0))
        elif regime == 2:  # |mu| down to 1e-150 and below
            r = 10.0 ** rng.uniform(-150.0, -100.0)
            mu = rng.uniform(0.01, 1.0) * equal_charge_amplitude(r, nbar_pi)
        elif regime == 3:  # late crossings
            r, mu, nbar = rng.uniform(2.5, 4.0), 10.0 ** rng.uniform(-8.0, -4.0), 0.0
        else:  # charges near equal on either side
            r = rng.uniform(0.05, 3.0)
            excess = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -1.0)
            mu = equal_charge_amplitude(r, nbar_pi) * (1.0 + excess)
        points.append((r, mu, nbar_pi, nbar))
    return points


class TestClosedForm:
    def test_fig2_value(self):
        value = crossing_time_closed_form(1.0, 1.0, 0.2, 0.4)
        assert value == pytest.approx(TAU_C_FIG2, rel=1e-13)

    def test_degenerate_boundary(self):
        mu = equal_charge_amplitude(1.0, 0.2)
        assert crossing_time_closed_form(1.0, mu, 0.2, 0.4) == 0.0

    def test_missing_precondition(self):
        # |mu|^2 = 2.25 exceeds the squeezed charge 1.9335
        assert crossing_time_closed_form(1.0, 1.5, 0.2, 0.4) is None

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 1.0, 0.2, 0.4),  # no squeezing
            (1.0, 0.0, 0.2, 0.4),  # no displacement
            (1.0, 1.0, -0.1, 0.4),
            (1.0, 1.0, 0.2, -0.4),
            (1.0, float("nan"), 0.2, 0.4),
        ],
    )
    def test_bad_arguments(self, args):
        with pytest.raises(ValueError):
            crossing_time_closed_form(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (400.0, 1.0, 0.2, 0.4),  # cosh 2r overflows
            (200.0, 1.0, 0.2, 0.4),  # the seed's V^2 overflows
            (1.0, 1e200, 0.2, 0.4),  # |mu|^2 overflows
            (1.0, complex(1.5e308, 1.5e308), 0.2, 0.4),  # |mu| overflows: was an OverflowError
            (1.0, 1.0, 1e300, 0.4),
            (1.0, 1.0, 0.2, 1e300),  # (nbar + 1/2)^2 overflows
        ],
    )
    def test_parameters_beyond_float_range(self, args):
        for fn in (crossing_time_closed_form, crossing_time_numeric, crossing_report):
            with pytest.raises(ValueError, match="float range"):
                fn(*args)

    def test_complex_amplitude_uses_modulus(self):
        value = crossing_time_closed_form(1.0, 1j, 0.2, 0.4)
        assert value == pytest.approx(TAU_C_FIG2, rel=1e-13)

    @pytest.mark.parametrize(
        "r, mu",
        [
            (1.0, 1e-200),  # |mu|^2 underflows to 0
            (1.0, 1e-160),  # |mu|^2 is subnormal
            (100.0, 1e-150),  # the log argument overflows
        ],
    )
    def test_tiny_amplitude_is_finite(self, r, mu):
        # the 1 in log(1 + x) is negligible here, so tau_c = log(x) with
        # x = f_pi^2 sinh^2(2r) / (2 |mu|^2 f) to leading order
        f_pi, f = 0.7, 0.9
        expected = math.log(f_pi ** 2 * math.sinh(2.0 * r) ** 2 / (2.0 * f)) - 2.0 * math.log(mu)
        assert crossing_time_closed_form(r, mu, 0.2, 0.4) == pytest.approx(expected, rel=1e-13)


class TestNumericOracle:
    def test_matches_closed_form_fig2(self):
        for mu in (0.75, 1.0):
            closed = crossing_time_closed_form(1.0, mu, 0.2, 0.4)
            numeric = crossing_time_numeric(1.0, mu, 0.2, 0.4)
            assert abs(closed - numeric) <= 1e-9

    def test_no_sign_change_when_displaced_ahead(self):
        assert crossing_time_numeric(1.0, 1.5, 0.2, 0.4) is None

    def test_degenerate_amplitude(self):
        mu = equal_charge_amplitude(1.0, 0.2)
        assert crossing_time_numeric(1.0, mu, 0.2, 0.4) == 0.0

    def test_root_quality(self):
        tau_c = crossing_time_numeric(1.0, 1.0, 0.2, 0.4)
        spec = SystemBathSpec(nbar=0.4)
        from ergoflow import evolve_analytic

        gap = ergotropy(evolve_analytic(squeezed_thermal(0.2, 1.0), spec, tau_c), spec) - ergotropy(
            evolve_analytic(displaced_thermal(0.2, 1.0), spec, tau_c), spec
        )
        assert abs(gap) <= 1e-12

    def test_late_crossing_is_found(self):
        # both charges are ~5e-29 at tau_c = 37.53, far below a fixed noise
        # floor; the oracle must still resolve the sign change
        closed = crossing_time_closed_form(3.0, 1e-6, 0.2, 0.0)
        numeric = crossing_time_numeric(3.0, 1e-6, 0.2, 0.0)
        assert closed == pytest.approx(37.5313645784688, rel=1e-12)
        assert numeric is not None
        assert abs(numeric - closed) <= 1e-9

    @pytest.mark.parametrize("tau_max, last_sample", [(50.0, 49.99), (7.305, 7.3)])
    def test_batched_scan_is_the_per_point_scan(self, tau_max, last_sample):
        # a few hundred points, with flips on either side of sample 15 and in the
        # pair that ends at tau_max
        step = mpemba._SCAN_STEP
        edge = 15 * step
        brackets = [(edge - step, edge), (edge, edge + step), (last_sample, tau_max)]
        points = [
            (1.0, amplitude_crossing_at(0.5 * (lo + hi), 1.0, 0.2, 0.4), 0.2, 0.4)
            for lo, hi in brackets
        ]
        points += [
            (1.0, equal_charge_amplitude(1.0, 0.2), 0.2, 0.4),  # equal charges: 0.0
            (1.0, 1.5, 0.2, 0.4),  # no precondition
            (0.5, 3.0, 1.0, 0.0),  # no precondition
            (1e-150, 1e-160, 0.2, 0.4),  # the charges underflow before they cross: None
            (1e-7, 1e-8, 0.2, 0.4),  # weak charges that do cross
            (3.0, 1e-6, 0.2, 0.0),  # a late crossing, near tau = 37.5
        ]
        rng = rng_for("batched crossing scan")
        for _ in range(356):
            r, nbar_pi, nbar = rng.uniform(0.05, 3.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            mu = rng.uniform(0.0, 1.3) * equal_charge_amplitude(r, nbar_pi)
            points.append((r, mu, nbar_pi, nbar))
        seeds = [seed_row(*p) for p in points]
        times, _, _ = mpemba._numeric_crossings(seeds, tau_max, step)
        assert times == literal_crossing_scan(seeds, tau_max, step)
        # the edge cases are where they were placed
        for (lo, hi), found in zip(brackets, times):
            assert lo < found < hi
        assert times[3:8] == [0.0, None, None, None, pytest.approx(4.69236673101826, rel=1e-9)]
        # the random points both cross and miss
        assert sum(t is None for t in times) > 10
        assert sum(t is not None and t > 0.0 for t in times) > 100

    def test_scan_stops_at_the_first_sign_change(self, monkeypatch):
        samples = []

        def counting(tau, *moments):
            erg_s, erg_d = charges(tau, *moments)
            if erg_s.size:  # a step of the oracle that no point reaches forms no sample
                samples.append(erg_s.size)
            return erg_s, erg_d

        charges = mpemba._charges
        monkeypatch.setattr(mpemba, "_charges", counting)
        window = round(mpemba._TAU_MAX / mpemba._SCAN_STEP) + 1
        assert crossing_time_numeric(1.0, 1.0, 0.2, 0.4) == pytest.approx(TAU_C_FIG2, abs=1e-9)
        # tau_c = 0.79 is sample 79 of 5001; the bisection's samples count too
        assert sum(samples) < window // 10
        samples.clear()
        # a point that starts ahead and crosses past the window costs its tau = 0 sample
        # and the pair around its hint; without a hint that is the window's last pair,
        # both sure, so nothing more is sampled
        seed = seed_row(1.0, 1.0, 0.2, 0.4)
        assert mpemba._numeric_crossings([seed], 0.5, mpemba._SCAN_STEP)[0] == [None]
        assert samples == [1, 2]
        samples.clear()
        # a hint at tau = 0 reads the sure samples 0 and 1, and the 6 rounds that search
        # the window's other 50 samples for its last sure one find the last sample
        assert mpemba._numeric_crossings([seed], 0.5, mpemba._SCAN_STEP, [0.0])[0] == [None]
        assert samples == [1, 2] + [1] * 6
        samples.clear()
        # a point that starts below never crosses: the oracle evaluates only its tau = 0 sample
        below = seed_row(1.0, 1.5, 0.2, 0.4)
        assert mpemba._numeric_crossings([below], mpemba._TAU_MAX, mpemba._SCAN_STEP)[0] == [None]
        assert samples == [1]
        samples.clear()
        # and so does the point function, whose report's starting charges are that sample
        assert crossing_time_numeric(1.0, 1.5, 0.2, 0.4) is None
        assert samples == [1]
        samples.clear()
        # the gap of this hot seed, short of equal charge by a relative 1e-11, moves by
        # about _GAP_SIGNIFICANCE per sample, so its sign changes between two
        # insignificant samples; the search for the first sure negative one brackets
        # it without walking the window
        assert crossing_time_numeric(1.0, 1661985.4665519095, 1e12, 0.0) == 3.7135791015625
        assert sum(samples) < 200
        samples.clear()
        # 400 points whose displaced charge, near 1e-20 of the squeezed one, is below the
        # smallest normal float at tau = 0 or falls there while the gap is still sure:
        # both charges only fall, so no sample past the first unresolved one can count,
        # and each point costs at most its tau = 0 sample, the pair that a missing hint
        # reads at the window's end, two searches of 13 rounds over the window's samples
        # and 3 more samples
        rng = rng_for("underflowing charges")
        points = [(r, 1e-10 * r, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
                  for r in 10.0 ** rng.uniform(-160.0, -140.0, 400)]
        seeds = [seed_row(*p) for p in points]
        times, _, _ = mpemba._numeric_crossings(seeds, mpemba._TAU_MAX, mpemba._SCAN_STEP)
        assert times == [None] * len(seeds)
        assert sum(samples) <= (1 + 2 + 2 * 13 + 3) * len(seeds)
        assert times == literal_crossing_scan(seeds, mpemba._TAU_MAX, mpemba._SCAN_STEP)

    @pytest.mark.parametrize("window, count", [((1e4, 2e3), 200), ((50.0, 0.01), 200), ((50.0, 5e-5), 10)])
    def test_hints_only_decide_where_the_oracle_looks(self, window, count):
        # on windows of 6, 5,001 and 10^6 + 1 samples the oracle reports the per-point
        # scan's times with the closed-form hints, with none, and with hints that are
        # off by 1e-6 either way, random in the window, negative or nan: a hint whose
        # certificate fails costs evaluations, never a different time
        rng = rng_for(f"crossing hints {window}")
        points = regime_points(rng, count)
        seeds = [seed_row(*p) for p in points]
        closed = [crossing_time_closed_form(*p) for p in points]
        closed = np.array([math.nan if t is None else t for t in closed])
        expected = literal_crossing_scan(seeds, *window)
        hints = [closed, None, closed * (1.0 + 1e-6), closed * (1.0 - 1e-6)]
        hints += [rng.uniform(0.0, window[0], count), -closed, np.full(count, math.nan)]
        # the batch, each regime on its own, where the bisection's certificate more
        # often holds at every bracket, and each hot seed alone, whose gap near the
        # crossing is often of either sign, but not significant
        for hint in hints:
            assert mpemba._numeric_crossings(seeds, *window, hint)[0] == expected
            for i in range(5):
                part = None if hint is None else hint[i::5]
                assert mpemba._numeric_crossings(seeds[i::5], *window, part)[0] == expected[i::5]
            for i in range(1, count, 5):
                alone = None if hint is None else hint[i : i + 1]
                assert mpemba._numeric_crossings(seeds[i : i + 1], *window, alone)[0] == expected[i : i + 1]
        # the draws both cross and miss
        assert sum(t is None for t in expected) > 0 and sum(t is not None and t > 0.0 for t in expected) > 0

    def test_halvings_below_an_unresolved_upper_end_are_evaluated(self, monkeypatch):
        # synthetic charges whose gap is sure down to tau = 1 and sure negative up to
        # tau = 2, where they fall below the smallest normal float and read g > 0 up to
        # tau = 4 and g <= 0 past it: the hint tau = 1 is certified at a and b, but the
        # bracket [0, 5] ends where the charges are not resolved, so its halvings above
        # b are evaluated, run into the unresolved g > 0 and find no resolved root, as
        # the per-point scan does; with the upper end resolved, at 1.5, they are skipped
        def charges(tau, *moments):
            erg_d = sys.float_info.min * math.exp(2.0) * np.exp(-tau) * np.ones_like(moments[0])
            ratio = np.where(tau < 2.0, 1.0 + 0.1 * (1.0 - tau), np.where(tau < 4.0, 1.5, 0.5))
            return ratio * erg_d, erg_d

        monkeypatch.setattr(mpemba, "_charges", charges)
        seeds = [(1.0, 0.0, 0.0, 0.0)]
        assert literal_crossing_scan(seeds, 5.0, 5.0) == [None]
        assert mpemba._numeric_crossings(seeds, 5.0, 5.0, [1.0])[0] == [None]
        found = mpemba._numeric_crossings(seeds, 1.5, 1.5, [1.0])[0]
        assert found == literal_crossing_scan(seeds, 1.5, 1.5) and found[0] == pytest.approx(1.0, abs=1e-12)

    def test_hints_save_evaluations(self, monkeypatch):
        # the grid of the benchmark's seeded sweep, Sweep(1): its 160 crossing points
        # take at most 40 evaluations of the charges with the closed-form hints, and
        # more than 60 without
        calls = []

        def counting(tau, *moments):
            calls.append(1)
            return charges(tau, *moments)

        rng = np.random.default_rng(1)
        r_values = tuple(float(r) for r in (rng.uniform(0.2, 0.4), *sorted(rng.uniform(1.1, 1.5, 2))))
        nbar_pi_values = tuple(np.linspace(0.0, rng.uniform(0.8, 1.5), 8).tolist())
        nbar_values = tuple(np.linspace(0.0, rng.uniform(1.5, 2.5), 10).tolist())
        grid = SweepGrid(r_values, nbar_pi_values, nbar_values, float(rng.uniform(0.9, 1.3)))
        spec = SystemBathSpec(omega=rng.uniform(0.5, 2.0), gamma=rng.uniform(0.5, 2.0), nbar=0.0)
        charges = mpemba._charges
        monkeypatch.setattr(mpemba, "_charges", counting)
        rows = mpemba_scan(grid, spec).rows
        assert len(calls) <= 40 and sum(row.report.exists for row in rows) == 160
        seeds, _ = mpemba._seed_axes(grid.r_values, grid.nbar_pi_values, grid.nbar_values, grid.mu, spec.omega)
        calls.clear()
        times, _, _ = mpemba._numeric_crossings(seeds, mpemba._TAU_MAX, mpemba._SCAN_STEP)
        assert len(calls) > 60 and times == [row.report.tau_c_numeric for row in rows]

    @pytest.mark.parametrize("window", [(50.0, 0.01), (7.305, 0.01), (1e4, 2e3)])
    def test_points_that_start_below_never_cross(self, window):
        # the gap changes sign at most once, from + to - (mpemba's module docstring),
        # so the oracle does not scan points that start below; the per-point scan of
        # the whole window confirms that none of them crosses
        rng = rng_for("points that start below")
        points = []
        for i in range(600):
            nbar_pi, nbar = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            if i % 3 == 0:  # just above the equal-charge amplitude
                r, excess = rng.uniform(0.05, 3.0), 10.0 ** rng.uniform(-12.0, -3.0)
            elif i % 3 == 1:  # tiny squeezing and amplitude
                r, excess = 10.0 ** rng.uniform(-160.0, -100.0), 10.0 ** rng.uniform(-12.0, 0.0)
            else:
                r, excess = rng.uniform(0.05, 3.0), rng.uniform(1e-3, 2.0)
            points.append((r, equal_charge_amplitude(r, nbar_pi) * (1.0 + excess), nbar_pi, nbar))
        seeds = [seed_row(*p) for p in points]
        erg_s, erg_d = mpemba._charges(0.0, *np.array(seeds).T)
        assert np.all(erg_s <= erg_d)
        assert literal_crossing_scan(seeds, *window) == [None] * len(seeds)
        assert mpemba._numeric_crossings(seeds, *window)[0] == [None] * len(seeds)

    @pytest.mark.parametrize("window", [(50.0, 0.01), (7.305, 0.01), (1e4, 2e3), (3.0, 0.37)])
    def test_search_for_the_last_sure_sample_is_the_scan_from_tau_0(self, window):
        # the oracle starts its first-flip rule at each point's last sure sample, found by
        # bisecting over the samples (mpemba's module docstring); on physical draws that
        # is the per-point scan of every sample from tau = 0: initial charges within
        # 1e-15 to 1e-1 of each other on either side, tiny amplitudes, and weak and huge
        # squeezing
        rng = rng_for(f"last sure sample {window}")
        points = []
        for i in range(400):
            nbar_pi, nbar = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            r = (rng.uniform(0.05, 3.0), 10.0 ** rng.uniform(-160.0, 0.0), rng.uniform(3.0, 170.0))[i % 3]
            if i % 2:
                sign = rng.choice([-1.0, 1.0])
                mu = equal_charge_amplitude(r, nbar_pi) * (1.0 + sign * 10.0 ** rng.uniform(-15.0, -1.0))
            else:
                mu = 10.0 ** rng.uniform(-160.0, 0.0)
            points.append((r, mu, nbar_pi, nbar))
        seeds = [seed_row(*p) for p in points]
        times, _, _ = mpemba._numeric_crossings(seeds, *window)
        assert times == literal_crossing_scan(seeds, *window)
        # the draws both cross and miss
        assert sum(t is None for t in times) > 10
        assert sum(t is not None and t > 0.0 for t in times) > 10

    def test_scan_sign_matches_the_gap_sign(self):
        # the scan takes g > 0 as erg_s > erg_d; the two agree on ties, signed
        # zeros, subnormals, the largest floats and random bit patterns
        tiny, huge = 5e-324, sys.float_info.max
        special = [0.0, -0.0, tiny, -tiny, 1e-310, sys.float_info.min, 1.0, math.nextafter(1.0, 2.0)]
        special += [huge, math.nextafter(huge, 0.0), -huge, math.inf, -math.inf, math.nan]
        bits = rng_for("gap sign").integers(0, 2**64, 4000, dtype=np.uint64)
        values = np.concatenate([special, bits.view(float)])
        with np.errstate(over="ignore", invalid="ignore"):
            erg_s, erg_d = values[:, None], np.concatenate([values, values[:200] * (1.0 + 2.0**-52)])[None, :]
            assert np.array_equal(erg_s > erg_d, (erg_s - erg_d) > 0.0)

    def test_window_is_the_explicit_window(self):
        # _window counts the window from its top three multiples only, and forms a
        # sample's tau only where it is read; the reference builds every multiple of
        # scan_step up to ceil(tau_max / scan_step), keeps those below tau_max and
        # appends tau_max, on seeded pairs and at the edges
        def explicit(tau_max, scan_step):
            with np.errstate(over="ignore"):
                taus = np.arange(math.ceil(tau_max / scan_step) + 1) * scan_step
            return np.append(taus[taus < tau_max], tau_max)

        huge = sys.float_info.max
        pairs = [(huge, 1e303), (huge, 1.7976931348623157e302), (1e-300, 1e-306), (5e-324, 1.0)]
        pairs += [(0.005, 0.01), (1e-310, 1e-300), (1.0, 1e300), (1e4, 1e-2), (50.0, 5e-5), (1.0, 1e-6)]
        # exact multiples, and 1 ulp either side, up to the largest window
        steps = (0.01, 0.37, 1e-3, 2e3, 0.1, 1.0 / 3.0, 5e-324, 1e300)
        multiples = [(n * step, step) for step, n in product(steps, (1, 2, 3, 7, 100, 4999, 5000, 5001))]
        multiples += [(n * step, step) for step, n in product((0.01, 1.0 / 3.0, 1e300), (10**6,))]
        for tau_max, step in multiples:
            pairs += [(tau_max, step), (math.nextafter(tau_max, 0.0), step), (math.nextafter(tau_max, huge), step)]
        # seeded pairs over the whole float range, half of them snapped to a multiple and nudged
        # by up to 2 ulps; most windows are short, so that the reference stays cheap
        rng = rng_for("scan window")
        for i in range(20_000):
            ratio = 10.0 ** rng.uniform(-3.0, 6.0 if i % 400 == 0 else 3.0)
            step = 10.0 ** rng.uniform(-323.0, 307.0 - max(math.log10(ratio), 0.0)) * rng.uniform(1.0, 10.0)
            tau_max = ratio * step
            if i % 2:
                tau_max = math.ceil(ratio) * step
                for _ in range(int(rng.integers(-2, 3)) % 3):
                    tau_max = math.nextafter(tau_max, huge if rng.integers(2) else 0.0)
            pairs.append((tau_max, step))
        pairs = [(t, s) for t, s in pairs if 0.0 < t < math.inf and t / s <= mpemba._MAX_SCAN_STEPS]
        assert len(pairs) > 20_000
        for tau_max, step in pairs:
            size, tau = mpemba._window(tau_max, step)
            taus = explicit(tau_max, step)
            assert size == taus.size and tau(np.arange(size)).tobytes() == taus.tobytes(), (tau_max, step)
        # the edges reach the largest window, and tau never forms a last multiple that
        # overflows (a RuntimeWarning fails the suite)
        assert mpemba._window(1e4, 1e-2)[0] == 10**6 + 1
        assert mpemba._window(huge, 1.7976931348623157e302)[1](np.array([10**6])) == huge

    @pytest.mark.parametrize("tau_max", [mpemba._TAU_MAX, 7.305])
    def test_scan_significance_only_at_flips(self, monkeypatch, tau_max):
        # synthetic charges with a chosen gap at every scan sample (linear between
        # samples), in the order that mpemba's module docstring proves: sure samples,
        # then insignificant ones of either sign, then sure negative ones, then
        # unresolved ones; point i's first moment is i, and its gap is gaps[i] in
        # units of its charge scales[i]; 1e-14 is noise, 1e-3 is significant, and
        # charges of 1e-310 lie below the smallest normal float; every gap starts at
        # 1e-3, clear of the equal-charge rule at tau = 0
        step, noise, big = mpemba._SCAN_STEP, 1e-14, 1e-3
        n, tau = mpemba._window(tau_max, step)
        taus = tau(np.arange(n))
        gaps, scales, placed = [], [], []

        def point(last, middle=(), negatives=n, tail=-big, bracket=None, scale=1.0):
            """sure samples up to last, the insignificant middle, that many sure negative
            samples, then unresolved ones with gap tail (one value, or one per sample) to
            the window's end; bracket is where its crossing is placed, None for none"""
            gap, middle = np.full(n, big), np.asarray(middle)[:n - 1 - last]
            gap[last + 1:last + 1 + middle.size] = middle
            start = last + 1 + middle.size
            gap[start:start + negatives] = -big
            end = min(start + negatives, n)
            gap[end:] = tail if np.ndim(tail) == 0 else tail[:n - end]
            gaps.append(gap)
            scales.append(np.where(np.arange(n) < end, scale, 1e-310))
            placed.append(bracket)

        # a sure sample next to a sure negative one, at tau = 0, early, late and at the window's end
        for last in (0, 15, 40, 500, n - 2):
            point(last, bracket=(last, last + 1))
        # sure to the window's end
        point(n - 1)
        # g = 0, or <= 0 noise, right after the last sure sample: that pair is the bracket
        point(20, (0.0,), bracket=(20, 21))
        point(20, (-noise, noise), bracket=(20, 21))
        # insignificant samples whose last reads g > 0 next to a sure negative one
        point(20, (noise,), bracket=(21, 22))
        point(20, (noise, -noise, 0.0, noise), bracket=(24, 25))
        point(n - 4, (noise, noise), bracket=(n - 2, n - 1))
        # insignificant samples whose last reads g <= 0: the sign change lies between the
        # last sure sample and the first sure negative one
        point(20, (noise, -noise), bracket=(20, 23))
        point(20, (noise, noise, 0.0), 3, bracket=(20, 24))
        point(n - 5, (-noise, noise, -noise), bracket=(n - 5, n - 1))
        # no sure negative sample: noise to the window's end, or down to unresolved charges
        point(20, (noise, -noise) * n)
        point(20, (noise, -noise, noise), 0, big)
        point(20, (noise, -noise, noise), 0, -big)
        # charges that underflow right after the last sure sample, reading g > 0 and
        # chattering, or g <= 0, which is a counted flip into resolved midpoints
        point(99, (), 0, big * (-1.0) ** np.arange(n))
        point(99, (), 0, -big, bracket=(99, 100))
        # sure negative samples, then unresolved ones that read g <= 0 and chatter
        point(30, (noise, -noise), 4, -big * (-1.0) ** np.arange(n), bracket=(30, 33))
        # charges of 1e-300 are resolved, and so are charges at the smallest normal float,
        # but not an ulp below it: the smaller charge of the sure negative samples after an
        # insignificant middle is the smallest normal float times 1 +- 1.1e-15
        point(35, bracket=(35, 36), scale=1e-300)
        point(35, (noise, -noise), bracket=(35, 38), scale=sys.float_info.min / (1.0 - big) * (1.0 + 1e-15))
        point(35, (noise, -noise), scale=sys.float_info.min / (1.0 - big) * (1.0 - 1e-15))
        # an unresolved sample that reads g > 0 after sure negative ones, with no counted
        # flip before them: a flip into g > 0 does not count, so the bracket is the last
        # sure sample and the first sure negative one
        point(40, (noise, -noise), 3, big, bracket=(40, 43))
        # random insignificant samples and tails, the pattern above among them
        rng = rng_for("flip significance")
        for _ in range(24):
            last, middle = int(rng.integers(0, n - 20)), rng.choice([noise, -noise, 0.0], rng.integers(0, 6))
            point(last, middle, int(rng.integers(0, 4)), rng.choice([-big, big]), ...)
        gaps, scales = np.array(gaps), np.array(scales)

        def charges(at, ident, *_):
            ident = np.asarray(ident).astype(int)
            # a scan sample is an entry of taus; a bisection midpoint lies between two
            j = np.searchsorted(taus, at)
            exact = taus[np.minimum(j, n - 1)] == at
            lo, hi = np.maximum(j - 1, 0), np.minimum(j, n - 1)
            t = np.where(exact, 1.0, (at - taus[lo]) / (taus[hi] - taus[lo] + exact))

            def between(table):
                at_lo, at_hi = table[ident, lo], table[ident, hi]
                return np.where(exact, at_hi, at_lo + t * (at_hi - at_lo))

            scale = between(scales)
            return scale * (1.0 + between(gaps)), scale

        monkeypatch.setattr(mpemba, "_charges", charges)
        seeds = [(float(i), 0.0, 0.0, 0.0) for i in range(len(gaps))]
        times, _, _ = mpemba._numeric_crossings(seeds, tau_max, step)
        assert times == literal_crossing_scan(seeds, tau_max, step)
        # each crossing lies in the bracket where it was placed, and the others have none
        for found, bracket in zip(times, placed):
            if bracket is ...:  # a random point
                continue
            if bracket is None:
                assert found is None
            else:
                assert taus[bracket[0]] < found < taus[bracket[1]]
        # the random points, the last 24, both cross and miss
        assert 0 < sum(t is None for t in times[-24:]) < 24

    def test_charges_are_the_shared_core_bit_for_bit(self):
        # _charges is states._work(*dynamics._relax(...)) at omega = 1 on the scan's, the
        # bisection's, the tau = 0 and the helpers' shapes
        def core(tau, lam, m, v_sq, f):
            _, erg_d, erg_s = _work(*_relax(lam, m, v_sq, f, np.exp(-tau)), 1.0)
            return erg_s, erg_d

        specials = [0.0, 5e-324, 1e-310, 1e-300, 0.25, 1.0, 7.5, 1e300]
        rng = rng_for("charges in place")
        columns = [rng.choice(specials, 200) for _ in range(4)]
        # the last two decay to 5e-324 and 0
        taus = np.concatenate([0.01 * np.arange(300), [math.log(2.0), 690.7755, 744.44, math.inf]])
        seed = seed_row(1.0, 1.0, 0.2, 0.4)
        cases = [
            (taus, [column[:, None] for column in columns]),  # the scan's (P, 1) x (S,)
            (rng.choice(taus, 200), columns),  # the bisection's (P,) x (P,)
            (0.0, columns),  # the tau = 0 charges
            (taus, seed),  # the helpers' scalar moments
            (taus, (1e-300, 1e300, 5e-324, 0.5)),
        ]
        with np.errstate(all="ignore"):
            for tau, moments in cases:
                expected = [np.asarray(a) for a in core(tau, *moments)]
                found = mpemba._charges(tau, *moments)
                for a, b in zip(found, expected):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        # a report's tau = 0 charges are the core's times omega, and two oracle calls in a
        # row each see only their own points
        report = crossing_report(1.0, 1.0, 0.2, 0.4, SystemBathSpec(omega=1e10))
        assert (report.erg0_squeezed, report.erg0_displaced) == tuple(float(1e10 * a) for a in core(0.0, *seed))
        points = [(3.0, 1e-6, 0.2, 0.0), (1.0, 1.5, 0.2, 0.4), (1e-7, 1e-8, 0.2, 0.4)]
        late, missing, weak = [seed_row(*p) for p in points]
        batches, window = [[seed, late, missing], [weak]], (mpemba._TAU_MAX, mpemba._SCAN_STEP)
        times = [mpemba._numeric_crossings(seeds, *window)[0] for seeds in batches]
        assert times == [literal_crossing_scan(seeds, *window) for seeds in batches]
        assert None in times[0] and None not in times[1]

    def test_scaling_invariance(self):
        # tau_c is a function of tau = gamma t only; omega never enters
        reference = crossing_time_numeric(1.0, 1.0, 0.2, 0.4)
        for omega, gamma in ((0.5, 2.0), (3.0, 0.25), (1.7, 1.3)):
            spec = SystemBathSpec(omega=omega, gamma=gamma, nbar=0.4)
            assert crossing_time_numeric(1.0, 1.0, 0.2, 0.4, spec) == reference

    def test_reports_are_the_omega_1_reports(self):
        # the oracle works in charges over omega, so a report at any omega is the omega = 1
        # report with its starting charges times omega, bit for bit: on the five regimes,
        # r = 0, mu = 0, and a crossing whose charges over omega, near 1e-300, were taken
        # for unresolved at omega = 1e-10
        rng = rng_for("reports at any omega")
        points = regime_points(rng, 200)
        points += [(0.0, rng.uniform(0.0, 2.0), 0.2, 0.4) for _ in range(10)]
        points += [(rng.uniform(0.05, 3.0), 0.0, 0.2, 0.4) for _ in range(10)]
        points.append((3e-150, 1e-150, 0.2, 0.4))
        omegas = [*10.0 ** rng.uniform(-10.0, 10.0, len(points) - 1), 1e-10]
        for point, omega in zip(points, omegas):
            unit, report = crossing_report(*point), crossing_report(*point, SystemBathSpec(omega=omega))
            erg0 = omega * unit.erg0_squeezed, omega * unit.erg0_displaced
            assert report == unit._replace(erg0_squeezed=erg0[0], erg0_displaced=erg0[1]), (point, omega)
        assert report.tau_c_numeric == 2.3048048497323586


class TestCrossingReport:
    def test_fig2_report(self):
        report = crossing_report(1.0, 1.0, 0.2, 0.4)
        assert report.exists
        assert report.validity_note == ""
        assert abs(report.tau_c_closed - report.tau_c_numeric) <= 1e-9
        assert report.erg0_squeezed > report.erg0_displaced
        assert report.erg0_displaced == pytest.approx(1.0, rel=1e-13)

    def test_precondition_failure_notes(self):
        report = crossing_report(1.0, 1.5, 0.2, 0.4)
        assert not report.exists
        assert report.tau_c_closed is None
        assert report.validity_note == NOTE_NO_PRECONDITION

    def test_no_squeezing_with_underflowing_amplitude_has_no_precondition(self):
        # at r = 0 and |mu|^2 underflowing to 0 both initial charges read 0, which the
        # closed form's gap would take for the equal-charge boundary; the r > 0 gate
        # reports the missing precondition instead, for a point and for a sweep row
        point = crossing_report(0.0, 1e-170, 0.2, 0.4)
        row = mpemba_scan(SweepGrid((0.0, 1.0), (0.2,), (0.4,), 1e-170)).rows[0]
        for report in (point, row.report):
            assert not report.exists
            assert report.tau_c_closed is None
            assert report.validity_note == NOTE_NO_PRECONDITION

    def test_degenerate_note(self):
        report = crossing_report(1.0, equal_charge_amplitude(1.0, 0.2), 0.2, 0.4)
        assert not report.exists
        assert report.tau_c_closed == 0.0
        assert report.validity_note == NOTE_DEGENERATE

    def test_tiny_amplitude_has_no_crossing_in_window(self):
        report = crossing_report(1.0, 1e-200, 0.2, 0.4)
        assert not report.exists
        assert math.isfinite(report.tau_c_closed) and report.tau_c_closed > 50.0
        assert report.tau_c_numeric is None
        assert report.validity_note == NOTE_NO_CROSSING

    @pytest.mark.parametrize(
        "shortfall, tau_max, tau_c",
        [
            (1e-3, 0.001, 0.0015609741006315544),  # window shorter than one scan step
            (0.018, 0.026, 0.029745525364655065),  # last whole step would end at 0.03
        ],
    )
    def test_crossing_beyond_window_is_not_reported(self, shortfall, tau_max, tau_c):
        mu = equal_charge_amplitude(1.0, 0.2) * (1.0 - shortfall)
        report = crossing_report(1.0, mu, 0.2, 0.4, tau_max=tau_max, scan_step=0.01)
        assert report.tau_c_closed == pytest.approx(tau_c, rel=1e-12)
        assert not report.exists
        assert report.tau_c_numeric is None
        assert report.validity_note == NOTE_NO_CROSSING
        # a window just past the crossing finds it
        longer = crossing_report(1.0, mu, 0.2, 0.4, tau_max=1.1 * tau_c, scan_step=0.01)
        assert abs(longer.tau_c_numeric - tau_c) <= 1e-15

    @pytest.mark.parametrize(
        "r, mu, tau_c",
        [
            (1e-7, 1e-8, 4.69236673101826),  # tau = 0 charges 1.4e-14 and 1.6e-16
            (1e-100, 1e-110, 46.13685966822122),  # the gap near tau_c is below 1e-162
        ],
    )
    def test_weak_charges_cross(self, r, mu, tau_c):
        report = crossing_report(r, mu, 0.2, 0.4)
        assert report.tau_c_closed == pytest.approx(tau_c, rel=1e-13)
        assert report.exists
        assert abs(report.tau_c_numeric - report.tau_c_closed) <= 1e-9

    @pytest.mark.parametrize(
        "r, mu, squeezed, displaced, rtol_displaced",
        [
            # 2 f_pi sinh^2 r and |mu|^2 (omega = 1), where V - f_pi cancels
            (1e-7, 1e-8, 1.4e-14, 1e-16, 1e-14),
            (1e-100, 1e-110, 1.4e-200, 1e-220, 1e-12),
        ],
    )
    def test_weak_initial_charges(self, r, mu, squeezed, displaced, rtol_displaced):
        report = crossing_report(r, mu, 0.2, 0.4)
        assert abs(report.erg0_squeezed - squeezed) <= 1e-12 * squeezed
        assert abs(report.erg0_displaced - displaced) <= rtol_displaced * displaced

    @pytest.mark.parametrize(
        "args", [(8.0, 0.5, 0.0, 0.3), (9.5, 1.0, 0.1, 0.5), (9.7, 1.0, 0.0, 0.4)]
    )
    def test_large_squeezing_crosses(self, args):
        # valid seeds whose V^2 - |M|^2 lost most of its digits, or at r = 9.7
        # rounded below 0 and raised InvalidStateError
        report = crossing_report(*args)
        assert report.exists
        assert abs(report.tau_c_numeric - report.tau_c_closed) <= 1e-9
        assert math.isfinite(report.erg0_squeezed)

    def test_large_squeezing_initial_charge(self):
        # where V^2 - |M|^2 rounded to about 0, erg0_squeezed was off by f_pi / V
        # (1.1e-8 relative here); the bound is the decimal scan's
        v, _, f_pi, _ = reference_squeezed(0.1, 9.5, 0.5, 0.0)
        report = crossing_report(9.5, 1.0, 0.1, 0.5)
        assert relative_error(report.erg0_squeezed, v - f_pi) <= 2e-15

    def test_energy_beyond_float_range(self):
        # omega |mu|^2 = 1e500 overflowed with a numpy RuntimeWarning
        with pytest.raises(ValueError, match="exceeds float range"):
            crossing_report(1.0, 1e150, 0.2, 0.4, SystemBathSpec(omega=1e200))
        report = crossing_report(1.0, 1e150, 0.2, 0.4, SystemBathSpec(omega=1e-10))
        assert report.erg0_displaced == pytest.approx(1e290, rel=1e-15)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 1.0, -0.1, 0.4),
            (1.0, 1.0, math.nan, 0.4),
            (1.0, math.inf, 0.2, 0.4),
            (1.0, math.nan, 0.2, 0.4),
            (1.0, complex(math.inf, 0.0), 0.2, 0.4),
            (math.inf, 1.0, 0.2, 0.4),
            (math.nan, 1.0, 0.2, 0.4),
            (1.0, 1.0, 0.2, -1.0),
            (0.0, 0.0, -0.1, 0.4),  # no precondition, but still an invalid seed
        ],
    )
    def test_invalid_points_raise(self, args):
        with pytest.raises(ValueError):
            crossing_report(*args)

    def test_numpy_scalar_inputs(self):
        # numpy scalars took the closed form's P / (2 |mu|^2 f) into numpy's scalar
        # division, whose overflow is a RuntimeWarning (an error here); each report
        # is the one that the same Python floats give
        point = (30.0, 1e-150, 1e13, 0.4)
        expected = crossing_report(*point)
        assert expected.tau_c_closed == 868.6686592900369
        for args in [[np.float64(v) if j == i else v for j, v in enumerate(point)] for i in range(4)] + [
            [np.float64(v) for v in point]
        ]:
            assert repr(crossing_report(*args)) == repr(expected)
            assert crossing_time_closed_form(*args) == expected.tau_c_closed
        # a grid of numpy axes, as np.linspace gives, reports what its float values do
        axes = np.linspace(29.0, 30.0, 3), np.linspace(1e12, 1e13, 2), np.linspace(0.0, 0.4, 2)
        rows = mpemba_scan(SweepGrid(*(tuple(axis) for axis in axes), mu=np.float64(1e-150))).rows
        floats = mpemba_scan(SweepGrid(*(tuple(axis.tolist()) for axis in axes), mu=1e-150)).rows
        assert [repr(row.report) for row in rows] == [repr(row.report) for row in floats]
        assert rows[-1].report == expected

    def test_underflowing_charges_are_not_a_crossing(self):
        # |mu|^2 is subnormal and both charges underflow before they cross:
        # the oracle sees no resolved sign change, so the report says so
        # instead of claiming a crossing at tau = 0
        report = crossing_report(1e-150, 1e-160, 0.2, 0.4)
        assert report.tau_c_closed == pytest.approx(46.13685966822118, rel=1e-13)
        assert not report.exists
        assert report.tau_c_numeric is None
        assert report.validity_note == NOTE_NO_CROSSING

    @pytest.mark.parametrize("tau_max, scan_step", [(1e4, 2e3), (1e4, 1e300), (1.7e308, 1e308)])
    def test_coarse_window_bisects_past_underflowed_charges(self, tau_max, scan_step):
        # the first bracket's far end, near tau = 1e4 or beyond, has both charges
        # underflowed to 0, so g = 0 at a midpoint there is no root: the oracle reported
        # 1000, 5000 and 5e307; and the last multiple of 1e308 scanned, 2e308,
        # overflowed to inf with a RuntimeWarning
        report = crossing_report(1.0, 1.0, 0.2, 0.4, tau_max=tau_max, scan_step=scan_step)
        assert report.exists
        assert abs(report.tau_c_numeric - TAU_C_FIG2) <= 1e-9

    def test_fine_window_memory(self):
        # the oracle forms only the samples that its searches read, so a window of
        # 10^6 samples stays small; built whole, it took about 23 MB
        crossing_report(1, 1, 0.2, 0.4, None, 50, 5e-5)
        tracemalloc.start()
        try:
            report = crossing_report(1, 1, 0.2, 0.4, None, 50, 5e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(report.tau_c_numeric - TAU_C_FIG2) <= 1e-9
        assert peak < 2**20

    def test_thermal_vs_thermal_absent(self):
        # r <= 0 is no squeezing; the oracle sees these points too, and its zero charges give None
        for r in (0.0, -0.5):
            report = crossing_report(r, 0.0, 0.2, 0.2)
            assert not report.exists
            assert report.tau_c_closed is None and report.tau_c_numeric is None
            assert report.erg0_squeezed == 0.0 and report.erg0_displaced == 0.0
            assert report.validity_note == NOTE_NO_PRECONDITION

    def test_precondition_soundness(self):
        # closed form exists precisely when the sampled curves really cross
        rng = rng_for("soundness")
        for _ in range(150):
            r = rng.uniform(0.2, 2.0)
            nbar_pi, nbar = rng.uniform(0.0, 2.0, size=2)
            mu = rng.uniform(0.05, 1.8) * math.sqrt(2.0 * (nbar_pi + 0.5)) * math.sinh(r)
            report = crossing_report(r, mu, nbar_pi, nbar)
            if report.validity_note == NOTE_DEGENERATE:
                continue
            closed_found = report.tau_c_closed is not None
            numeric_found = report.tau_c_numeric is not None
            assert closed_found == numeric_found == report.exists
            if report.exists:
                assert abs(report.tau_c_closed - report.tau_c_numeric) <= 1e-9
                assert report.erg0_squeezed > report.erg0_displaced


class TestEqualChargeAmplitude:
    def test_zero_squeezing(self):
        assert equal_charge_amplitude(0.0, 0.7) == 0.0

    def test_frozen_values(self):
        assert equal_charge_amplitude(1.0, 0.2) == pytest.approx(MU_EQUAL_R1, rel=1e-14)
        assert equal_charge_amplitude(1.0, 0.0) == pytest.approx(math.sinh(1.0), rel=1e-13)

    def test_charges_match_at_start(self):
        rng = rng_for("eqcharge")
        spec = SystemBathSpec(nbar=0.3)
        for _ in range(100):
            r, nbar_pi = rng.uniform(0.05, 2.0), rng.uniform(0.0, 2.0)
            mu = equal_charge_amplitude(r, nbar_pi)
            squeezed = ergotropy(squeezed_thermal(nbar_pi, r), spec)
            displaced = ergotropy(displaced_thermal(nbar_pi, mu), spec)
            assert abs(squeezed - displaced) <= 1e-12 * max(1.0, squeezed)

    @pytest.mark.parametrize("r", [1e-9, 1e-6])
    def test_weak_squeezing(self, r):
        # f_pi (cosh 2r - 1) cancelled: 0.0 at r = 1e-9, 1.1e-5 off at r = 1e-6
        expected = math.sqrt(1.4) * math.sinh(r)
        assert equal_charge_amplitude(r, 0.2) == pytest.approx(expected, rel=1e-15)
        # so the displaced battery of the demo started with no charge
        pair = faster_discharge_demo(r, 0.2, 0.4)
        assert pair.displaced.erg_v[0] == pytest.approx(pair.squeezed.erg_theta[0], rel=1e-12)

    @pytest.mark.parametrize("r, nbar_pi", [(-0.5, 0.2), (math.nan, 0.2), (1.0, -0.1), (1.0, math.inf)])
    def test_invalid_input(self, r, nbar_pi):
        with pytest.raises(ValueError, match="r and nbar_pi must be finite and nonnegative"):
            equal_charge_amplitude(r, nbar_pi)

    def test_squeezing_beyond_float_range(self):
        # math.cosh(2r) raised OverflowError
        with pytest.raises(ValueError, match="float range"):
            equal_charge_amplitude(400, 0.2)
        with pytest.raises(ValueError, match="float range"):
            equal_charge_amplitude(355.0, 1e300)  # mu^2 overflows
        mu = equal_charge_amplitude(_MAX_SQUEEZING, 0.2)
        assert mu == pytest.approx(math.sqrt(0.7 * math.cosh(2.0 * _MAX_SQUEEZING)), rel=1e-12)


class TestScan:
    def test_single_point(self):
        grid = SweepGrid((1.0,), (0.2,), (0.4,), mu=1.0)
        result = mpemba_scan(grid)
        assert len(result.rows) == 1
        assert result.rows[0].report.tau_c_closed == pytest.approx(TAU_C_FIG2, rel=1e-13)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepGrid((), (0.5,), (0.5,), mu=1.0)
        with pytest.raises(ValueError):
            SweepGrid((1.0,), (0.5,), (-0.5,), mu=1.0)
        for mu in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="mu must be finite and nonnegative"):
                SweepGrid((1.0,), (0.5,), (0.5,), mu=mu)

    def test_fixed_seed_occupation_sweep(self):
        # higher bath temperature brings the crossing earlier
        grid = SweepGrid((0.8, 1.2), (0.5,), tuple(np.linspace(0.0, 2.0, 9)), mu=1.0)
        rows = mpemba_scan(grid).rows
        assert len(rows) == 2 * 9 and all(row.report.exists for row in rows)
        assert strictly_monotone(rows, -1)

    def test_fixed_bath_occupation_sweep(self):
        # hotter seeds push the crossing later
        grid = SweepGrid((0.8, 1.2), tuple(np.linspace(0.2, 2.0, 9)), (0.5,), mu=1.0)
        rows = mpemba_scan(grid).rows
        assert len(rows) == 2 * 9 and all(row.report.exists for row in rows)
        assert strictly_monotone(rows, 1)

    def test_rows_match_single_point_reports(self):
        # one batched oracle call for the grid gives, bit for bit, what each
        # point gets alone; the grid mixes boundary, no-precondition and
        # crossing points
        grid = SweepGrid((0.0, 0.3, 0.8, 1.2), (0.0, 0.5, 1.5), (0.0, 0.7, 2.0), mu=1.0)
        spec = SystemBathSpec(omega=1.7, gamma=0.6)
        result = mpemba_scan(grid, spec)
        assert {row.report.validity_note for row in result.rows} == {"", NOTE_NO_PRECONDITION}
        for row in result.rows:
            alone = crossing_report(row.r, grid.mu, row.nbar_pi, row.nbar, spec)
            assert repr(row.report) == repr(alone)

    def test_each_seed_is_validated_once(self, monkeypatch):
        # the grid is checked per axis: one squeezed seed per (r, nbar_pi) pair,
        # and no per-point check at all; a single point is a grid of one
        seeds, points = [], []

        def counting_seed(*args):
            seeds.append(args)
            return squeezed_seed(*args)

        def counting_point(*args, **kwargs):
            points.append(args)
            return check_point(*args, **kwargs)

        squeezed_seed, check_point = mpemba._squeezed_seed, mpemba._check_point
        monkeypatch.setattr(mpemba, "_squeezed_seed", counting_seed)
        monkeypatch.setattr(mpemba, "_check_point", counting_point)
        result = mpemba_scan(SweepGrid((0.0, 1.0), (0.2, 0.5), (0.4, 0.9, 2.0), mu=1.0))
        assert len(result.rows) == 12 and sum(row.report.exists for row in result.rows) == 6
        assert seeds == [(0.7, 0.0), (1.0, 0.0), (0.7, 1.0), (1.0, 1.0)]
        assert points == []
        seeds.clear()
        assert crossing_report(1.0, 1.0, 0.2, 0.4).exists
        assert seeds == [(0.7, 1.0)]
        assert points == [(1.0, 1.0, 0.2, 0.4)]

    def test_rows_are_the_point_reports(self):
        # the rows, built by column, equal ScanRow(r, nbar_pi, nbar, mu, crossing_report(...))
        # at every point of a grid that holds all four validity notes
        grid = SweepGrid((0.3, 1.0, 15.0), (0.2, 0.5), (0.4, 1.0), mu=equal_charge_amplitude(1.0, 0.2))
        spec = SystemBathSpec(omega=1.3, gamma=0.7)
        rows = mpemba_scan(grid, spec).rows
        notes = {row.report.validity_note for row in rows}
        assert notes == {"", NOTE_NO_PRECONDITION, NOTE_DEGENERATE, NOTE_NO_CROSSING}
        assert rows == tuple(
            ScanRow(r, nbar_pi, nbar, grid.mu, crossing_report(r, grid.mu, nbar_pi, nbar, spec))
            for r in grid.r_values for nbar_pi in grid.nbar_pi_values for nbar in grid.nbar_values
        )  # fmt: skip

    def test_row_ordering(self):
        grid = SweepGrid((0.8, 1.0), (0.3, 0.6), (0.1, 0.9), mu=1.0)
        rows = mpemba_scan(grid).rows
        keys = [(row.r, row.nbar_pi, row.nbar) for row in rows]
        assert keys == [
            (r, npi, nb) for r in (0.8, 1.0) for npi in (0.3, 0.6) for nb in (0.1, 0.9)
        ]


class TestRecords:
    def test_fields_order_and_default(self):
        assert CrossingReport._fields == (
            "exists", "tau_c_closed", "tau_c_numeric", "erg0_squeezed", "erg0_displaced", "validity_note",
        )  # fmt: skip
        assert CrossingReport._field_defaults == {"validity_note": ""}
        assert ScanRow._fields == ("r", "nbar_pi", "nbar", "mu", "report")
        assert ScanRow._field_defaults == {}
        assert CrossingReport(True, 0.5, 0.5, 2.0, 1.0) == (True, 0.5, 0.5, 2.0, 1.0, "")

    def test_fields_are_read_only_and_replace_copies(self):
        report = crossing_report(1.0, 1.0, 0.2, 0.4)
        row = ScanRow(1.0, 0.2, 0.4, 1.0, report)
        for record, name in ((report, "tau_c_numeric"), (report, "validity_note"), (row, "mu"), (row, "report")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        missing = report._replace(exists=False, tau_c_numeric=None, validity_note=NOTE_NO_CROSSING)
        assert missing == (False, report.tau_c_closed, None, *report[3:5], NOTE_NO_CROSSING)
        assert report.exists and report.validity_note == ""
        assert row._replace(mu=2.0) == (1.0, 0.2, 0.4, 2.0, report) and row.mu == 1.0


class TestFasterDischarge:
    def test_fig4_parameters(self):
        pair = faster_discharge_demo(1.0, 0.2, 0.4)
        assert pair.mu == pytest.approx(MU_EQUAL_R1, rel=1e-14)
        assert abs(pair.squeezed.ergotropy[0] - pair.displaced.ergotropy[0]) <= 1e-12
        assert np.all(pair.displaced.ergotropy[1:] > pair.squeezed.ergotropy[1:])

    def test_equality_and_hash_are_identity(self):
        # a field-wise __eq__ over the trajectories' ndarray fields raised on ==, in and hash
        tau = np.arange(0, 6) * 0.2
        pair, other = faster_discharge_demo(1.0, 0.2, 0.4, tau), faster_discharge_demo(1.0, 0.2, 0.4, tau)
        assert pair == pair and pair != other
        assert pair in [other, pair] and pair not in [other]
        assert hash(pair) == hash(pair) and len({pair, other, pair}) == 2

    def test_zero_squeezing_is_all_flat(self):
        pair = faster_discharge_demo(0.0, 0.2, 0.4)
        assert np.all(pair.squeezed.ergotropy == 0.0)
        assert np.all(pair.displaced.ergotropy == 0.0)

    def test_bath_at_seed_temperature(self):
        pair = faster_discharge_demo(1.0, 0.3, 0.3)
        assert abs(pair.squeezed.ergotropy[0] - pair.displaced.ergotropy[0]) <= 1e-12
        assert np.all(pair.displaced.ergotropy[1:] > pair.squeezed.ergotropy[1:])

    def test_custom_grid(self):
        tau = np.arange(0, 26) * 0.2
        pair = faster_discharge_demo(0.8, 0.1, 0.6, tau_grid=tau)
        assert len(pair.squeezed) == tau.size

    def test_squeezing_beyond_float_range(self):
        # equal_charge_amplitude's math.cosh(2r) raised OverflowError
        with pytest.raises(ValueError, match="float range"):
            faster_discharge_demo(400, 0.2, 0.4)

    def test_finite_or_value_error_up_to_the_squeezing_limit(self):
        tau = np.arange(0, 26) * 0.2
        for r in np.linspace(0.0, _MAX_SQUEEZING, 120):
            for nbar_pi in (0.0, 0.2, 1e100):
                try:
                    pair = faster_discharge_demo(r, nbar_pi, 0.4, tau_grid=tau)
                except ValueError:
                    continue
                assert math.isfinite(pair.mu)
                for traj in (pair.squeezed, pair.displaced):
                    assert all(np.all(np.isfinite(column)) for column in vars(traj).values())


BIG = 10**400  # an int that no float holds


@pytest.mark.parametrize(
    "fn, args",
    [
        (crossing_report, (1.0, BIG, 0.2, 0.4)),
        (crossing_report, (BIG, 1.0, 0.2, 0.4)),
        (crossing_report, (1.0, 10**200, 0.2, 0.4)),  # a float, but its square is not
        (crossing_time_closed_form, (1.0, 1.0, BIG, 0.4)),
        (crossing_time_numeric, (1.0, 1.0, 0.2, BIG)),
        (equal_charge_amplitude, (BIG, 0.2)),
        (equal_charge_amplitude, (1.0, BIG)),
        (SweepGrid, ((BIG,), (0.2,), (0.4,), 1.0)),
        (SweepGrid, ((1.0,), (0.2,), (0.4,), BIG)),
        (mpemba_scan, (SweepGrid((1.0,), (0.2,), (0.4,), 10**200),)),
    ],
    ids=["report-mu", "report-r", "report-mu-squared", "closed-nbar_pi", "numeric-nbar", "amplitude-r",
         "amplitude-nbar_pi", "grid-axis", "grid-mu", "scan-mu-squared"],  # fmt: skip
)
def test_ints_beyond_float_range_are_value_errors(fn, args):
    # math.isfinite raised OverflowError: int too large to convert to float
    with pytest.raises(ValueError, match="finite|float range"):
        fn(*args)
