"""Seeded contract tests of the public surface.

Every input either gets a finite answer (or None where the function documents
one) or raises the documented ValueError (InvalidStateError is one), and the
CLI maps the error to exit code 2.  The crossing functions are fuzzed with
inputs drawn with random.Random(seed) from edge values: signed zeros,
subnormals, 1e+-300, 1.7e308, infinities, nan, negatives and squeezing near
the float-range limits r = 177 (V^2) and 356 (cosh 2r), mixed with ordinary
values so that valid calls run too.  Every public function of states,
factory, dynamics, mpemba and the oracles refuses a number out of float
range (an int that no float holds, inf or nan) in any of its numeric
arguments.  numpy's RuntimeWarnings are errors.
"""

import math
import random
import warnings

import pytest

import ergoflow
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
from ergoflow import dynamics, factory, mpemba, states
from ergoflow.oracles import fock, lyapunov, quadrature

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
# the sweep fuzzer's squeezing, weighted toward values that the states admit
SWEEP_SQUEEZING = [0.0, 1e-150, 0.3, 170.0, 177.3, 355.3, 356.0]
SWEEP_WEIGHTS = [2, 2, 3, 2, 1, 1, 1]


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


def test_oracle_finds_the_crossings_of_the_closed_form_near_equal_charge():
    # seeds up to nbar_pi = 1e14 and squeezing up to r = 30, with mu off the equal-charge
    # amplitude by a relative 3e-12 to 1e-6 on either side: for hot seeds the relative gap
    # moves by about _GAP_SIGNIFICANCE per scan step near the crossing, so that often no
    # sample next to it is significant; the oracle must still find every crossing that the
    # closed form puts inside its window, and no other
    rng = random.Random(25)
    crossings = 0
    for _ in range(300):
        r = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        nbar_pi, nbar = 10.0 ** rng.uniform(-3.0, 14.0), 10.0 ** rng.uniform(-3.0, 3.0)
        shortfall = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.5, -6.0)
        mu = equal_charge_amplitude(r, nbar_pi) * (1.0 - shortfall)
        report = outcome(lambda: crossing_report(r, mu, nbar_pi, nbar))
        assert not isinstance(report, ValueError), (r, mu, nbar_pi, nbar)
        inside = report.tau_c_closed is not None and 0.0 < report.tau_c_closed < mpemba._TAU_MAX
        assert (report.tau_c_numeric is not None) == inside, (r, mu, nbar_pi, nbar, report)
        assert report.exists == inside
        crossings += inside
    assert 100 < crossings < 200


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


def test_sweep_refuses_and_reports_as_its_points_do():
    # crossing_report checks a point as SweepGrid checks a grid, then both go through
    # the sweep's per-axis seeding, on one-point axes for crossing_report: they must
    # refuse the same grids and, otherwise, report every point alike
    rng = random.Random(24)

    def occupation():
        return rng.choice([0.0, rng.choice(ORDINARY), rng.choice(ORDINARY), 10.0 ** rng.uniform(-3.0, 200.0)])

    def axis(draw):
        return tuple(draw() for _ in range(rng.randint(1, 3)))

    for _ in range(2 * CASES):
        r_values = axis(lambda: rng.choices(SWEEP_SQUEEZING, SWEEP_WEIGHTS)[0])
        mu = rng.choice([0.0, 1e-160, 1.4e154, rng.choice(ORDINARY), 10.0 ** rng.uniform(-170.0, 154.0)])
        grid = SweepGrid(r_values, axis(occupation), axis(occupation), mu)
        spec = SystemBathSpec(omega=10.0 ** rng.uniform(-300.0, 300.0))
        points = [(r, grid.mu, nbar_pi, nbar) for r in grid.r_values
                  for nbar_pi in grid.nbar_pi_values for nbar in grid.nbar_values]  # fmt: skip
        alone = [outcome(lambda: crossing_report(*point, spec)) for point in points]
        result = outcome(lambda: mpemba_scan(grid, spec))
        refused = any(isinstance(report, ValueError) for report in alone)
        assert isinstance(result, ValueError) == refused, (grid, spec, result)
        if not refused:
            assert [repr(row.report) for row in result.rows] == [repr(report) for report in alone], grid


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


# a Python int that no float holds, and the two non-finite floats
OUT_OF_RANGE = [10**400, math.inf, math.nan]
SURFACE = (states, factory, dynamics, mpemba, fock, lyapunov, quadrature)
# the public names that take no number: functions of states alone, result records and errors
NUMBERLESS = {
    "InvalidStateError", "wigner_entropy", "relative_wigner_entropy", "mean_energy", "passive_occupation",
    "passive_state", "ergotropy", "ergotropy_split", "random_state", "EffectiveParameters", "Trajectory",
    "ErgotropyRate", "CrossingReport", "ScanRow", "ScanResult", "DischargePair", "mpemba_scan",
    "CutoffError", "fock_ergotropy", "fock_moments",
}  # fmt: skip


def valid_calls(seed):
    """(function, args) of one valid call of each public function that takes numbers, args drawn from seed."""
    rng = random.Random(seed)

    def u(lo, hi):
        return rng.uniform(lo, hi)

    occ, amp, r, theta = u(0.0, 0.3), complex(u(0.1, 0.5), u(-0.5, 0.5)), u(0.1, 0.4), u(0.0, 3.0)
    nbar_pi, nbar, t = u(0.0, 1.0), u(0.0, 1.0), u(0.01, 0.03)
    spec = SystemBathSpec(u(0.5, 2.0), u(0.5, 2.0), nbar)
    state = ergoflow.squeezed_displaced_thermal(occ, amp, ergoflow.SqueezingParameter(r, theta))
    variance = u(0.6, 1.0)
    p, dim, n = u(0.2, 0.8), 30, 20
    rho = fock.fock_gaussian_state(occ, amp, r, theta, dim)
    return [
        (SystemBathSpec, (spec.omega, spec.gamma, nbar)),
        (ergoflow.SqueezingParameter, (r, theta)),
        (ergoflow.GaussianState.from_moments, (amp, variance, 0.1 * variance)),
        (ergoflow.thermal_state, (occ,)),
        (ergoflow.displace, (state, amp)),
        (ergoflow.squeeze, (state, r)),
        (ergoflow.displaced_thermal, (occ, amp)),
        (ergoflow.squeezed_thermal, (occ, r)),
        (ergoflow.squeezed_displaced_thermal, (occ, amp, r)),
        (ergoflow.evaluate_wigner, (state, amp)),
        (ergoflow.evolve_analytic, (state, spec, t)),
        (ergoflow.effective_parameters, (occ, r, spec, t)),
        (ergoflow.sample_trajectory, (state, spec, [0.0, t])),
        (ergoflow.ergotropy_rate, (state, spec, t)),
        (crossing_time_closed_form, (1.0 + r, amp, nbar_pi, nbar)),
        (crossing_time_numeric, (1.0 + r, amp, nbar_pi, nbar, spec)),
        (crossing_report, (1.0 + r, amp, nbar_pi, nbar, spec, 5.0, 0.1)),
        (equal_charge_amplitude, (r, nbar_pi)),
        (SweepGrid, ((r, 1.0 + r), (nbar_pi,), (nbar, 2.0 * nbar), abs(amp))),
        (ergoflow.faster_discharge_demo, (1.0 + r, nbar_pi, nbar, [0.0, t])),
        (fock.annihilation, (dim,)),
        (fock.displacement_operator, (amp, dim)),
        (fock.squeezing_operator, (r, theta, dim)),
        (fock.fock_gaussian_state, (occ, amp, r, theta, dim)),
        (fock.FockDensityMatrix, ([[p, 0.0], [0.0, 1.0 - p]],)),
        (fock.fock_lindblad_path, (rho, spec, [t], t / 2.0)),
        (lyapunov.rk4_moment_path, ([state], spec, t / 2.0, [t])),
        (lyapunov.convergence_order, (state, spec, t, [t / 2.0, t / 4.0])),
        (quadrature.norm_energy_entropy, (state, spec.omega, 6.0, n)),
        (quadrature.relative_entropy_quadrature, (state, ergoflow.passive_state(state), 6.0, n)),
    ]


def replaced(value):
    """Copies of value with one of its numbers, in lists and tuples too, replaced by each OUT_OF_RANGE value."""
    if isinstance(value, (int, float, complex)):
        yield from OUT_OF_RANGE
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            for new in replaced(item):
                yield value[:i] + type(value)([new]) + value[i + 1 :]


def test_public_surface_refuses_numbers_out_of_float_range():
    calls = valid_calls(25)
    # every public name that takes a number has a call here (GaussianState's is from_moments)
    covered = {fn.__qualname__.split(".")[0] for fn, _ in calls}
    assert covered | NUMBERLESS == {name for module in SURFACE for name in module.__all__}
    wrong = []
    for fn, args in calls:
        assert not isinstance(outcome(lambda: fn(*args)), ValueError), (fn.__qualname__, args)
        for k, bad_args in enumerate(replaced(args)):
            try:
                result = outcome(lambda: fn(*bad_args))
            except Exception as err:  # an OverflowError, a RuntimeWarning, ...: listed below
                result = err
            if not isinstance(result, ValueError):
                # the k-th replacement: OUT_OF_RANGE[k % 3] in the (k // 3)-th number of args
                wrong.append((fn.__qualname__, k, type(result).__name__))
    assert wrong == []
