"""Seeded contract fuzzer for the crossing oracle's public surface.

Every input either gets a finite answer (or None where the function documents
one) or raises the documented ValueError (InvalidStateError is one), and the
CLI maps the error to exit code 2.  Inputs are drawn with random.Random(seed)
from edge values: signed zeros, subnormals, 1e+-300, 1.7e308, infinities, nan,
negatives and squeezing near the float-range limits r = 177 (V^2) and 356
(cosh 2r), mixed with ordinary values so that valid calls run too.  numpy's
RuntimeWarnings are errors.
"""

import math
import random
import warnings

import pytest

from ergoflow import (
    SweepGrid,
    SystemBathSpec,
    cli,
    crossing_report,
    crossing_time_closed_form,
    crossing_time_numeric,
    equal_charge_amplitude,
    mpemba_scan,
)

EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan, -1.0, -0.5,
]  # fmt: skip
ORDINARY = [0.2, 0.4, 0.5, 0.9, 1.0, 1.3, 2.0, 3.0]
SQUEEZING = [176.5, 177.0, 177.3, 355.0, 355.2, 355.3, 356.0]
# scan windows and steps: ordinary ones, and ones whose last multiple leaves float range
WINDOWS = [0.001, 0.026, 0.3, 7.305, 50.0, 1e4, 1.7e308]
STEPS = [0.01, 0.3, 1e300, 1e308]
CASES = 150


class Draw:
    """Seeded draws of ordinary values, each replaced by an edge value with probability edge."""

    def __init__(self, seed, edge):
        self.rng, self.edge = random.Random(seed), edge

    def __call__(self, ordinary=ORDINARY):
        return self.rng.choice(EDGES if self.rng.random() < self.edge else ordinary)

    def r(self):
        return self.rng.choice(SQUEEZING) if self.rng.random() < self.edge else self()

    def mu(self):
        return complex(self(), self()) if self.rng.random() < 0.3 else self()

    def spec(self):
        return None if self.rng.random() < 0.3 else SystemBathSpec(omega=self(), gamma=self(), nbar=self())

    def window(self):
        return self(WINDOWS), self(STEPS)


def outcome(call):
    """call()'s result, or the ValueError it raised; other errors and RuntimeWarnings propagate."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except ValueError as err:
            return err


def finite_or_none(value):
    return value is None or (isinstance(value, float) and math.isfinite(value))


def assert_report(report):
    assert finite_or_none(report.tau_c_closed) and finite_or_none(report.tau_c_numeric), report
    assert math.isfinite(report.erg0_squeezed) and math.isfinite(report.erg0_displaced), report
    assert report.erg0_squeezed >= 0.0 and report.erg0_displaced >= 0.0, report
    assert report.exists == (report.validity_note == ""), report
    if report.exists:
        # where both are defined, the closed form and the oracle agree
        assert report.tau_c_closed > 0.0, report
        assert abs(report.tau_c_numeric - report.tau_c_closed) <= 1e-9 * max(1.0, report.tau_c_closed), report


def test_crossing_functions_keep_their_contract():
    draw = Draw(20, 0.2)
    for _ in range(CASES):
        point = (draw.r(), draw.mu(), draw(), draw())
        for fn in (crossing_time_closed_form, crossing_time_numeric):
            result = outcome(lambda: fn(*point))
            assert isinstance(result, ValueError) or finite_or_none(result), (fn.__name__, point, result)
            assert result is None or isinstance(result, ValueError) or result >= 0.0, (fn.__name__, point)
        report = outcome(lambda: crossing_report(*point, draw.spec(), *draw.window()))
        if not isinstance(report, ValueError):
            assert_report(report)
        amplitude = outcome(lambda: equal_charge_amplitude(draw.r(), draw()))
        assert isinstance(amplitude, ValueError) or (math.isfinite(amplitude) and amplitude >= 0.0)


def test_sweep_keeps_its_contract():
    draw = Draw(21, 0.05)
    for _ in range(CASES // 3):
        axes = [tuple(draw.r() for _ in range(draw.rng.randint(1, 3)))]
        axes += [tuple(draw() for _ in range(draw.rng.randint(1, 3))) for _ in range(2)]
        result = outcome(lambda: mpemba_scan(SweepGrid(*axes, mu=draw()), draw.spec()))
        if isinstance(result, ValueError):
            continue
        assert len(result.rows) == math.prod(len(axis) for axis in axes)
        for row in result.rows:
            assert_report(row.report)
        assert 0 <= result.nbar_decreasing_violations <= result.nbar_comparisons
        assert 0 <= result.nbar_pi_increasing_violations <= result.nbar_pi_comparisons


@pytest.mark.parametrize("command, seed", [("crossing", 22), ("sweep", 23)])
def test_cli_exits_0_or_2(command, seed, capsys):
    draw = Draw(seed, 0.1)
    counts = [1.0, 2.0, 3.0, 0.0, -1.0, 2.5, math.nan, math.inf, 1e300]
    for _ in range(CASES // 2):
        argv = [command] + [f"--{flag}={draw()!r}" for flag in ("omega", "gamma", "nbar", "nbar-pi")]
        if command == "crossing":
            tau_max, scan_step = draw.window()
            argv += [f"--r={draw.r()!r}", f"--mu={draw.mu()!r}"]
            argv += [f"--tau-max={tau_max!r}", f"--scan-step={scan_step!r}"]
        else:
            argv += ["--r", *(repr(draw.r()) for _ in range(draw.rng.randint(1, 2))), f"--mu={draw()!r}"]
            for flag in ("--nbar-axis", "--nbar-pi-axis"):
                if draw.rng.random() < 0.5:
                    argv += [flag, repr(draw()), repr(draw()), repr(draw.rng.choice(counts))]
        try:
            code = outcome(lambda: cli.main(argv))
        except SystemExit as usage:  # argparse's own usage errors, such as an unquoted -inf
            code = usage.code
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, code, err)
        assert (code == 2) == ("error: " in err), (argv, err)
