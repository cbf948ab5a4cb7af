"""Seeded fuzz of valid calls across the admitted ranges.

Occupations, |mu|, r, omega, gamma and t are drawn log-uniform across the
ranges that the library admits (occupations and |mu| up to where their
squares leave float range, r up to where V^2 does, omega and gamma over
1e-300..1e300), with signed zeros and exact zeros mixed in.  Every call
returns finite values or raises the documented ValueError (InvalidStateError
is one); numpy's RuntimeWarnings are errors.  The quadrature oracle runs
on n = 8 grids.  The four thermal-seed constructors and faster_discharge_demo
are callees of their own, with r of either sign.  The simulate command runs through cli.main on grids of 1 to
20 steps of a drawn --dt, and exits 0 with finite cells or 2 with a message;
so does the crossing command, with or without its one-row CSV on stdout.
"""

import cmath
import functools
import math
import random
import re

import numpy as np
import pytest

from ergoflow import (
    SqueezingParameter,
    SystemBathSpec,
    crossing_report,
    displaced_thermal,
    effective_parameters,
    equal_charge_amplitude,
    ergotropy,
    ergotropy_rate,
    ergotropy_split,
    evolve_analytic,
    faster_discharge_demo,
    mean_energy,
    passive_state,
    relative_wigner_entropy,
    sample_trajectory,
    squeezed_displaced_thermal,
    squeezed_thermal,
    thermal_state,
    wigner_entropy,
)
from ergoflow import cli
from ergoflow.oracles.quadrature import norm_energy_entropy, relative_entropy_quadrature

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEEDS = (1, 2, 3)
CASES = 120
# log10 ranges: an occupation or |mu| whose square is a float, r whose V^2 can be
# (about 177 at a vacuum seed), and omega, gamma and t well inside float range
OCCUPATION = (-300.0, 154.0)
AMPLITUDE = (-300.0, 154.0)
SQUEEZING = (-300.0, math.log10(177.0))
RATE = (-300.0, 300.0)
TIME = (-300.0, 300.0)


class Draw:
    """Seeded log-uniform draws; each value is 0 instead with a small probability."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def log(self, exponents, zero=0.1):
        if self.rng.random() < zero:
            return 0.0
        return 10.0 ** self.rng.uniform(*exponents)

    def amplitude(self):
        return self.log(AMPLITUDE) * cmath.exp(2j * math.pi * self.rng.random())

    def squeezing(self):
        return SqueezingParameter(self.log(SQUEEZING), 2.0 * math.pi * self.rng.random())

    def spec(self):
        return SystemBathSpec(self.log(RATE, 0.0), self.log(RATE, 0.0), self.log(OCCUPATION))

    def state(self):
        kind, occ = self.rng.randrange(4), self.log(OCCUPATION)
        if kind == 0:
            return thermal_state(occ)
        if kind == 1:
            return displaced_thermal(occ, self.amplitude())
        if kind == 2:
            return squeezed_thermal(occ, self.squeezing())
        return squeezed_displaced_thermal(occ, self.amplitude(), self.squeezing())

    def tau_grid(self):
        return [0.0, *sorted({self.log(TIME, 0.0) for _ in range(5)})]


def finite(value) -> bool:
    """True when every number in value (a float, complex, array or a tuple of them) is finite."""
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    return bool(np.all(np.isfinite(value)))


def attempt(call):
    """call()'s result, or None where it raised the documented ValueError."""
    try:
        return call()
    except ValueError:
        return None


@pytest.fixture
def main(monkeypatch):
    """cli.main with its parser built once: building it is most of a fuzzed call's time."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    return cli.main


def state_moments(state):
    return state.alpha_mean, state.symmetric_variance, state.anomalous_variance


@pytest.mark.parametrize("seed", SEEDS)
def test_valid_calls_are_finite_or_refused(seed):
    draw = Draw(seed)
    answered = dict.fromkeys(
        ("state", "evolve", "effective", "rate", "trajectory", "ergotropy", "split", "energy", "entropy",
         "relative", "grid", "grid relative", "crossing"), 0)  # fmt: skip
    for _ in range(CASES):
        state, spec, t = attempt(draw.state), attempt(draw.spec), draw.log(TIME)
        occ, z = draw.log(OCCUPATION), draw.squeezing()
        if state is not None:
            answered["state"] += 1
            assert finite(state_moments(state)), state
            for name, call in (
                ("entropy", lambda: wigner_entropy(state)),
                ("relative", lambda: relative_wigner_entropy(state, passive_state(state))),
                # the quadrature oracle on n = 8 grids, the relative entropy both ways round
                ("grid", lambda: norm_energy_entropy(state, n=8)),
                ("grid relative", lambda: relative_entropy_quadrature(state, passive_state(state), n=8)),
                ("grid relative", lambda: relative_entropy_quadrature(passive_state(state), state, n=8)),
            ):
                result = attempt(call)
                if result is not None:
                    answered[name] += 1
                    assert finite(result) and (name != "relative" or result >= 0.0), (name, state, result)
        if state is not None and spec is not None:
            for name, call in (
                ("evolve", lambda: state_moments(evolve_analytic(state, spec, t))),
                ("rate", lambda: ergotropy_rate(state, spec, t)),
                ("trajectory", lambda: tuple(vars(sample_trajectory(state, spec, draw.tau_grid())).values())),
                ("ergotropy", lambda: ergotropy(state, spec)),
                ("split", lambda: ergotropy_split(state, spec)),
                ("energy", lambda: mean_energy(state, spec)),
            ):
                result = attempt(call)
                if result is not None:
                    answered[name] += 1
                    assert finite(result), (name, state, spec, t, result)
        if spec is not None:
            result = attempt(lambda: effective_parameters(occ, z, spec, t))
            if result is not None:
                answered["effective"] += 1
                assert finite(tuple(vars(result).values())), (occ, z, spec, t, result)
        # r = 0, r < 0 and mu = 0 among the crossing points, which the oracle sees too,
        # and amplitudes short of equal charge by a relative 1e-15..1, which cross
        r, nbar_pi = draw.rng.choice([0.0, -1.0, 1.0, 1.0]) * draw.log(SQUEEZING, 0.0), draw.log(OCCUPATION)
        equal = attempt(lambda: equal_charge_amplitude(abs(r), nbar_pi)) or 0.0
        short = (1.0 - 10.0 ** draw.rng.uniform(-15.0, 0.0)) * equal
        point = (r, draw.rng.choice([0.0, draw.amplitude(), short]), nbar_pi, draw.log(OCCUPATION))
        report = attempt(lambda: crossing_report(*point, spec))
        if report is not None:
            answered["crossing"] += 1
            times = [v for v in (report.tau_c_closed, report.tau_c_numeric) if v is not None]
            assert finite((*times, report.erg0_squeezed, report.erg0_displaced)), (point, spec, report)
            assert report.exists == (report.validity_note == ""), (point, spec, report)
    # the draws reach every function with valid arguments, not only its refusals
    assert min(answered.values()) >= CASES // 10, answered


@pytest.mark.parametrize("seed", SEEDS)
def test_constructors_and_demo_are_finite_or_refused(seed):
    draw = Draw(seed)
    answered = dict.fromkeys(("thermal", "displaced", "squeezed", "squeezed displaced", "demo"), 0)
    for _ in range(CASES):
        occ, amp = draw.log(OCCUPATION), draw.amplitude()
        # a SqueezingParameter, or a bare r that the constructors wrap, which may be negative
        z = draw.rng.choice([draw.squeezing(), draw.rng.choice([-1.0, 1.0]) * draw.log(SQUEEZING)])
        for name, call in (
            ("thermal", lambda: thermal_state(occ)),
            ("displaced", lambda: displaced_thermal(occ, amp)),
            ("squeezed", lambda: squeezed_thermal(occ, z)),
            ("squeezed displaced", lambda: squeezed_displaced_thermal(occ, amp, z)),
        ):
            state = attempt(call)
            if state is not None:
                answered[name] += 1
                assert finite(state_moments(state)), (name, occ, amp, z, state)
        # the demo's default grid, or a drawn one reaching tau = 1e300
        r, nbar_pi = draw.rng.choice([-1.0, 1.0]) * draw.log(SQUEEZING), draw.log(OCCUPATION)
        nbar = draw.log(OCCUPATION)
        grid = draw.rng.choice([None, draw.tau_grid()])
        pair = attempt(lambda: faster_discharge_demo(r, nbar_pi, nbar, grid))
        if pair is not None:
            answered["demo"] += 1
            trajectories = [tuple(vars(t).values()) for t in (pair.squeezed, pair.displaced)]
            assert finite((pair.mu, *trajectories)), (r, nbar_pi, nbar, grid)
    # the draws reach every callee with valid arguments, not only its refusals
    assert min(answered.values()) >= CASES // 10, answered


@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_exits_0_or_2_with_finite_cells(seed, main, capsys):
    draw = Draw(seed)
    exits = []
    for _ in range(CASES):
        dt = draw.log(TIME, 0.0)
        argv = [
            "simulate", f"--family={draw.rng.choice(cli.FAMILIES)}", f"--nbar-pi={draw.log(OCCUPATION)!r}",
            f"--nbar={draw.log(OCCUPATION)!r}", f"--mu={draw.amplitude()!r}", f"--r={draw.log(SQUEEZING)!r}",
            f"--theta={2.0 * math.pi * draw.rng.random()!r}", f"--omega={draw.log(RATE, 0.0)!r}",
            f"--gamma={draw.log(RATE, 0.0)!r}", f"--dt={dt!r}", f"--tmax={dt * draw.rng.uniform(1.0, 20.0)!r}",
            *(["--absolute-time"] if draw.rng.random() < 0.5 else []), "-o", "-",
        ]  # fmt: skip
        code = main(argv)
        out, err = capsys.readouterr()
        exits.append(code)
        if code == 0:
            header, *rows = out.splitlines()
            assert header == cli.TRAJECTORY_HEADER and rows, argv
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",")), argv
        else:
            assert code == 2 and out == "" and err.startswith("error: "), (argv, code, err)
    # the draws reach the CSV, not only its refusals
    assert exits.count(0) >= CASES // 10, exits


@pytest.mark.parametrize("seed", SEEDS)
def test_crossing_exits_0_or_2(seed, main, capsys):
    draw = Draw(seed)
    exits = []
    for _ in range(CASES):
        csv = draw.rng.random() < 0.3
        argv = [
            "crossing", f"--r={draw.log(SQUEEZING)!r}", f"--mu={draw.amplitude()!r}",
            f"--nbar-pi={draw.log(OCCUPATION)!r}", f"--nbar={draw.log(OCCUPATION)!r}",
            f"--omega={draw.log(RATE, 0.0)!r}", f"--gamma={draw.log(RATE, 0.0)!r}", *(["--csv", "-"] if csv else []),
        ]  # fmt: skip
        code = main(argv)
        out, err = capsys.readouterr()
        exits.append(code)
        if code == 0:
            values = re.findall(r"= ([^,()\s]+)", out)
            assert len(values) >= 8 and all(math.isfinite(float(v)) for v in values), (argv, out)
            assert out.count(cli.SWEEP_HEADER) == csv, (argv, out)
        else:
            assert code == 2 and out == "" and err.startswith("error: "), (argv, code, err)
    # the draws reach the report, not only its refusals
    assert exits.count(0) >= CASES // 10, exits
