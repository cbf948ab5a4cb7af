"""Command-line interface: deterministic CSV datasets and verification suites.

Subcommands
-----------
simulate   relaxation trajectory of one state family, written as CSV
crossing   closed-form vs bisection crossing time for one parameter set
sweep      crossing-time table over temperature/squeezing axes, as CSV
verify     run the independent oracle suites and report pass/fail

Times are entered and reported as the dimensionless tau = gamma * t unless
--absolute-time is given.  A flat "key = value" config file can supply any
flag of the invoked subcommand; explicit flags win over the file.

Exit codes: 0 success, 1 tolerance breach, 2 usage error or unwritable output.
Every command, --help too, writes stdout through main: a reader that closes
stdout early, as `| head` does, ends the command quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .dynamics import evolve_analytic, sample_trajectory
from .factory import (
    SqueezingParameter,
    displaced_thermal,
    random_state,
    squeezed_displaced_thermal,
    squeezed_thermal,
    thermal_state,
)
from .mpemba import _MAX_SCAN_STEPS, _SCAN_STEP, _TAU_MAX, NOTE_DEGENERATE, NOTE_NO_CROSSING, NOTE_NO_PRECONDITION
from .mpemba import ScanRow, SweepGrid, crossing_report, mpemba_scan
from .states import SystemBathSpec, ergotropy, mean_energy, wigner_entropy

__all__ = ["main", "build_parser", "parse_config_text"]

TRAJECTORY_HEADER = "tau,E_state,E_passive,ergotropy,erg_v,erg_theta,wigner_entropy,f_beta_t,r_t"
SWEEP_HEADER = (
    "r,nbar_pi,nbar,mu,exists,tau_c_closed,tau_c_numeric,erg0_squeezed,erg0_displaced,validity_note"
)

FAMILIES = ("thermal", "displaced", "squeezed", "squeezed-displaced")
# the most steps a simulate grid and the most points a sweep grid may hold,
# the bound the crossing scan puts on its window
_MAX_GRID = _MAX_SCAN_STEPS
# the most random states verify's RK4 batch and the most points its Fock trajectory
# may hold, for run time: 10^4 states take tens of seconds, 10^3 points at cutoff 200 about 13 s
_MAX_STATES = 10**4
_MAX_POINTS = 10**3
# the largest Fock cutoff verify builds: its dense matrices grow as the square of the
# cutoff and its run time faster, about 5 s at 200, 14 s at 300 and 30 s at 400
_MAX_CUTOFF = 200


class CliError(Exception):
    """User-facing failure with an explicit exit code."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


# full-precision decimal text of a float, locale independent, and a CSV line in one %-format
_FLOAT = "%.17g"
_TRAJECTORY_ROW = ",".join([_FLOAT] * 9) + "\n"
_SWEEP_ROW = ",".join([_FLOAT] * 4 + ["%s"] * 3 + [_FLOAT] * 2 + ["%s"]) + "\n"
# trajectory rows formatted at a time: 0.65 MB traced, so 10^6 rows peak with their arrays
_BLOCK_ROWS = 1000


def parse_config_text(text: str) -> dict:
    """Parse flat 'key = value' lines; '#' starts a comment line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _config_tokens(path: str) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot read config file {path!r}: {err}")
    tokens = []
    for key, value in parse_config_text(text).items():
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() == "false":
            pass  # switch defaults are off
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _inject_config(argv: list) -> list:
    """Insert config-file tokens right after the subcommand.

    Explicit command-line flags come later in argv and therefore override the file
    (argparse keeps the last occurrence).  argparse finds --config or a prefix of it;
    the subcommand's parser refuses an ambiguous prefix and a --config without PATH.
    """
    finder = argparse.ArgumentParser(prog="ergoflow", add_help=False)
    finder.add_argument("--config", nargs="?")
    path = finder.parse_known_args(argv)[0].config
    return argv if path is None else [argv[0]] + _config_tokens(path) + argv[1:]


def _write_csv(path: str, header: str, lines):
    """Write header, then each text of whole lines as lines yields it, to path ('-' is stdout)."""
    try:
        with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(header + "\n")
            handle.writelines(lines)
            handle.flush()  # before the caller goes on, as sweep does to its stderr summary
    except OSError as err:
        if path == "-":
            raise  # main handles stdout for every command
        raise CliError(f"cannot write output file {path!r}: {err}")


# ---------------------------------------------------------------- simulate


def _build_family(args):
    z = SqueezingParameter(args.r, args.theta)
    if args.family == "thermal":
        return thermal_state(args.nbar_pi)
    if args.family == "displaced":
        return displaced_thermal(args.nbar_pi, args.mu)
    if args.family == "squeezed":
        return squeezed_thermal(args.nbar_pi, z)
    return squeezed_displaced_thermal(args.nbar_pi, args.mu, z)


def _trajectory_lines(time_values, traj):
    """The trajectory CSV's rows, _BLOCK_ROWS to a text: time_values, then traj's fields after tau."""
    columns = (time_values, *list(vars(traj).values())[1:])
    for start in range(0, time_values.size, _BLOCK_ROWS):
        rows = zip(*(column[start : start + _BLOCK_ROWS].tolist() for column in columns))
        yield "".join([_TRAJECTORY_ROW % row for row in rows])


def cmd_simulate(args) -> int:
    for flag, value in (("--dt", args.dt), ("--tmax", args.tmax)):
        if not 0.0 < value < math.inf:
            raise CliError(f"{flag} must be finite and positive")
    if args.tmax < args.dt:
        raise CliError("--tmax must be at least one step --dt")
    if args.tmax / args.dt > _MAX_GRID:
        raise CliError(f"the time grid holds more than {_MAX_GRID} steps of --dt")
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    steps = int(round(args.tmax / args.dt))
    # the grid's last tau, as numpy forms it below
    if steps * args.dt * (args.gamma if args.absolute_time else 1.0) == math.inf:
        raise CliError("the time grid ends beyond float range in tau = gamma t")
    state = _build_family(args)
    grid_in = np.arange(steps + 1) * args.dt
    tau_grid = grid_in * args.gamma if args.absolute_time else grid_in
    # a product in subnormal floats can round neighbouring steps to one value
    if args.absolute_time and not np.all(np.diff(tau_grid) > 0.0):
        raise CliError("--dt times --gamma rounds the steps of tau = gamma t to ties")
    traj = sample_trajectory(state, spec, tau_grid)
    _write_csv(args.output, TRAJECTORY_HEADER, _trajectory_lines(grid_in, traj))
    return 0


# ---------------------------------------------------------------- crossing


def _sweep_line(row: ScanRow) -> str:
    r, nbar_pi, nbar, mu, (exists, closed, numeric, erg_s, erg_d, note) = row
    closed = "" if closed is None else _FLOAT % closed
    numeric = "" if numeric is None else _FLOAT % numeric
    exists = "true" if exists else "false"
    return _SWEEP_ROW % (r, nbar_pi, nbar, mu, exists, closed, numeric, erg_s, erg_d, note)


def cmd_crossing(args) -> int:
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    report = crossing_report(
        args.r, args.mu, args.nbar_pi, args.nbar, spec, args.tau_max, args.scan_step
    )
    print(
        f"parameters: r = {args.r}, |mu| = {abs(args.mu)}, nbar_pi = {args.nbar_pi}, "
        f"nbar = {args.nbar} (omega = {args.omega}, gamma = {args.gamma})"
    )
    print(f"initial ergotropy squeezed  = {report.erg0_squeezed:.17g}")
    print(f"initial ergotropy displaced = {report.erg0_displaced:.17g}")
    if report.exists:
        print(f"tau_c closed form = {report.tau_c_closed:.17g}")
        print(f"tau_c numeric     = {report.tau_c_numeric:.17g}")
        print(f"|difference|      = {abs(report.tau_c_closed - report.tau_c_numeric):.17g}")
    else:
        print(f"no crossing: {report.validity_note}")
    if args.csv:
        row = ScanRow(args.r, args.nbar_pi, args.nbar, abs(args.mu), report)
        _write_csv(args.csv, SWEEP_HEADER, [_sweep_line(row)])
    return 0


# ---------------------------------------------------------------- sweep


def _axis_count(axis_args, name) -> int:
    """Points on a MIN MAX COUNT axis, 1 when the value is fixed; checked before any grid is made."""
    if axis_args is None:
        return 1
    lo, hi, count = axis_args
    if not (0.0 <= lo < math.inf and 0.0 <= hi < math.inf):
        raise CliError(f"the {name} axis needs a finite, nonnegative MIN and MAX")
    if not (count.is_integer() and count >= 1):
        raise CliError(f"the {name} axis needs a whole COUNT of at least one point")
    return int(count)


def _axis(axis_args, fixed, count):
    if axis_args is None:
        return (float(fixed),)
    return tuple(float(v) for v in np.linspace(axis_args[0], axis_args[1], count))


def cmd_sweep(args) -> int:
    counts = (_axis_count(args.nbar_pi_axis, "nbar_pi"), _axis_count(args.nbar_axis, "nbar"))
    if len(args.r) * counts[0] * counts[1] > _MAX_GRID:
        raise CliError(f"the sweep grid holds more than {_MAX_GRID} points")
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=0.0)
    grid = SweepGrid(
        r_values=tuple(args.r),
        nbar_pi_values=_axis(args.nbar_pi_axis, args.nbar_pi, counts[0]),
        nbar_values=_axis(args.nbar_axis, args.nbar, counts[1]),
        mu=args.mu,
    )
    rows = mpemba_scan(grid, spec).rows
    _write_csv(args.output, SWEEP_HEADER, map(_sweep_line, rows))
    notes = dict.fromkeys(("", NOTE_NO_PRECONDITION, NOTE_DEGENERATE, NOTE_NO_CROSSING), 0)
    largest = -math.inf
    for *_, rep in rows:
        notes[rep.validity_note] += 1
        if rep.exists:
            largest = max(largest, abs(rep.tau_c_closed - rep.tau_c_numeric))
    tally = ", ".join(f"{note or 'crossing'} {count}" for note, count in notes.items())
    largest = _FLOAT % largest if largest >= 0.0 else "none"
    print(f"sweep rows: {tally}; largest |tau_c_closed - tau_c_numeric|: {largest}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- verify
# Each check takes (args, spec, seeds), seeds being the squeezed, thermal and
# displaced seeds as (Gaussian state, Fock density matrix) pairs, and returns
# its largest deviation.  It imports its oracle when it runs, so only verify
# loads the oracles.  Energies (ergotropy, mean energy) scale with omega, so
# their deviations are in units of omega: every row then reads the same, to
# roundoff, for every omega at one omega / gamma.


def _moment_deviation(mean, cov, state) -> float:
    """Largest deviation of an RK4 record's mean and covariance from the state's."""
    return max(float(np.max(np.abs(cov - state.cov))), abs(complex(mean) - state.alpha_mean))


# the RK4 batch's randomized omega and gamma ranges: gamma is bounded away from 1
# so a wrong noise prefactor cannot hide behind gamma = 1
_BATCH_OMEGA, _BATCH_GAMMA = (0.5, 2.0), (1.25, 2.0)
# the tau steps of the RK4 convergence-order probe
_ORDER_DTS = (0.04, 0.02, 0.01)


def _rk4_batch(args, spec, seeds):
    from .oracles.lyapunov import rk4_moment_path
    rng = np.random.default_rng(args.seed)
    states = [random_state(rng) for _ in range(args.states)]
    batch_spec = SystemBathSpec(
        omega=rng.uniform(*_BATCH_OMEGA), gamma=rng.uniform(*_BATCH_GAMMA), nbar=rng.uniform(0.0, 2.0)
    )
    times = [float(t) for t in np.linspace(0.5, 5.0, 10) / batch_spec.gamma]
    means, covs = rk4_moment_path(states, batch_spec, args.rk4_dt / batch_spec.gamma, times)
    return max(
        _moment_deviation(means[ti, si], covs[ti, si], evolve_analytic(state0, batch_spec, t))
        for ti, t in enumerate(times)
        for si, state0 in enumerate(states)
    )


def _rk4_order(args, spec, seeds):
    from .oracles.lyapunov import convergence_order
    probe = squeezed_displaced_thermal(0.2, 0.8, SqueezingParameter(1.0, 0.3))
    dts = [dt / spec.gamma for dt in _ORDER_DTS]
    return abs(convergence_order(probe, spec, 1.0 / spec.gamma, dts) - 4.0)


def _rk4_thermal(args, spec, seeds):
    from .oracles.lyapunov import rk4_moment_path
    thermal, _ = seeds[1]
    means, covs = rk4_moment_path([thermal], spec, args.rk4_dt / spec.gamma, [1.0 / spec.gamma])
    return _moment_deviation(means[0, 0], covs[0, 0], thermal)


def _fock_seed(args, spec, seeds):
    from .oracles.fock import fock_ergotropy
    gauss, rho = seeds[0]
    return abs(fock_ergotropy(rho, spec) - ergotropy(gauss, spec)) / spec.omega


def _fock_trajectory(args, spec, seeds):
    # each record is reduced as it is reached, so one density matrix is held at a time
    from .oracles.fock import _fock_records, fock_ergotropy
    gauss, rho0 = seeds[0]
    times = np.linspace(3.0 / args.points, 3.0, args.points) / spec.gamma
    records = _fock_records(rho0, spec, [float(t) for t in times], args.fock_dt / spec.gamma)
    return max(
        abs(fock_ergotropy(rho, spec) - ergotropy(evolve_analytic(gauss, spec, t), spec))
        for rho, t in zip(records, times)
    ) / spec.omega


def _fock_thermal(args, spec, seeds):
    from .oracles.fock import fock_lindblad_path
    _, rho0 = seeds[1]
    rho = fock_lindblad_path(rho0, spec, [1.0 / spec.gamma], dt=args.fock_dt / spec.gamma)[0]
    return float(np.max(np.abs(np.diag(rho.matrix).real - np.diag(rho0.matrix).real)))


def _fock_displaced(args, spec, seeds):
    from .oracles.fock import fock_lindblad_path, fock_moments
    gauss, rho0 = seeds[2]
    rho = fock_lindblad_path(rho0, spec, [1.0 / spec.gamma], dt=args.fock_dt / spec.gamma)[0]
    exact = evolve_analytic(gauss, spec, 1.0 / spec.gamma)
    return abs(fock_moments(rho)[0] - exact.alpha_mean)


def _quadrature(args, spec, seeds):
    from .oracles.quadrature import norm_energy_entropy
    deviations = []
    # compact states whose 5-sigma support fits inside the default grid
    for state in (
        thermal_state(0.0),
        thermal_state(0.4),
        displaced_thermal(0.2, 0.9 + 0.3j),
        squeezed_thermal(0.2, SqueezingParameter(0.4, 1.1)),
        squeezed_displaced_thermal(0.1, 0.6j, SqueezingParameter(0.3, 0.5)),
    ):
        norm, energy, entropy = norm_energy_entropy(state, spec.omega)
        energy_deviation = abs(energy - mean_energy(state, spec)) / spec.omega
        deviations += [abs(norm - 1.0), energy_deviation, abs(entropy - wigner_entropy(state))]
    return max(deviations)


# verify's checks in print order: (printed name, check, tolerance)
_CHECKS = (
    ("rk4 vs analytic moments", _rk4_batch, 1e-8),
    ("rk4 convergence order (|order - 4|)", _rk4_order, 0.2),
    ("rk4 stationary thermal state", _rk4_thermal, 1e-12),
    ("fock vs gaussian ergotropy at tau=0", _fock_seed, 1e-4),
    ("fock vs gaussian ergotropy on trajectory", _fock_trajectory, 1e-3),
    ("fock thermal-state stationarity", _fock_thermal, 1e-8),
    ("fock displaced-state mean decay", _fock_displaced, 1e-6),
    ("quadrature norm/energy/entropy", _quadrature, 1e-6),
)


def _check_rk4_steps(args, spec):
    """Raise CliError, naming the flag, for the first RK4 step verify takes outside RK4's stability region.

    A step of tau length dt is stable when |R(dt rate)| <= 1 for every rate
    (in tau units) of the ODE it steps, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    (lyapunov._rk4_stable).  The moment ODE's rates are -(1/2 + i omega/gamma),
    -1 and -(1 +- 2i omega/gamma); the Fock master equation's are
    -i (omega/gamma) d plus real rates that grow with the cutoff and nbar
    (fock._rhs_rates).  The largest step of each ODE decides, since the
    region is star-shaped about 0, and so does the batch's largest omega /
    gamma, since each vertical section of the region is one interval.
    """
    from .oracles.fock import _rhs_rates
    from .oracles.lyapunov import _moment_rates, _rk4_stable

    moments = _moment_rates(spec)
    batch = _moment_rates(SystemBathSpec(omega=_BATCH_OMEGA[1], gamma=_BATCH_GAMMA[0]))
    fock = _rhs_rates(args.cutoff, spec)
    at = f"at omega / gamma = {spec.omega / spec.gamma:g}"
    for flag, dt, rates, ode in (
        ("--omega / --gamma", _ORDER_DTS[0], moments, f"the convergence-order probe's moment ODE {at}"),
        ("--rk4-dt", args.rk4_dt, moments, f"the moment ODE {at}"),
        ("--rk4-dt", args.rk4_dt, batch, "the randomized moment batch"),
        ("--fock-dt", args.fock_dt, fock, f"the cutoff-{args.cutoff} master equation {at}"),
    ):
        if not _rk4_stable(dt, rates):
            raise CliError(f"{flag}: the RK4 tau step {dt:g} on {ode} leaves RK4's stability region")


def cmd_verify(args) -> int:
    from .oracles.fock import CutoffError, fock_gaussian_state

    # an empty batch or trajectory would pass its check without checking anything
    for flag, count, most in (
        ("--states", args.states, _MAX_STATES),
        ("--points", args.points, _MAX_POINTS),
        ("--cutoff", args.cutoff, _MAX_CUTOFF),
    ):
        if not 1 <= count <= most:
            raise CliError(f"{flag} must be at least 1 and at most {most}")
    if args.seed < 0:  # numpy's generators refuse it
        raise CliError("--seed must be nonnegative")
    # the RK4 batch runs to tau = 5 and the Fock trajectory to tau = 3
    for flag, dt, span in (("--rk4-dt", args.rk4_dt, 5.0), ("--fock-dt", args.fock_dt, 3.0)):
        if not 0.0 < dt < math.inf:
            raise CliError(f"{flag} must be finite and positive")
        if span / dt > _MAX_GRID:
            raise CliError(f"{flag} takes more than {_MAX_GRID} steps")
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    # the Gaussian seeds first, so a seed beyond float range is a usage error (exit code 2)
    gaussians = (
        squeezed_thermal(args.nbar_pi, args.r),
        thermal_state(spec.nbar),
        displaced_thermal(args.nbar_pi, args.mu),
    )
    # Fock-space ground truth; a cutoff too small for a seed is a breach (exit code 1)
    try:
        focks = (
            fock_gaussian_state(args.nbar_pi, 0j, args.r, 0.0, args.cutoff),
            fock_gaussian_state(spec.nbar, dim=args.cutoff),
            fock_gaussian_state(args.nbar_pi, complex(args.mu), 0.0, 0.0, args.cutoff),
        )
    except CutoffError as err:
        raise CliError(str(err), code=1) from err
    seeds = tuple(zip(gaussians, focks))
    # after the seeds, so a bath too warm for the cutoff is reported as that
    _check_rk4_steps(args, spec)
    width = max(len(name) for name, _, _ in _CHECKS)
    failed = False
    for name, check, tol in _CHECKS:
        # an oracle that rejects its own result or diverges fails its row
        try:
            dev = check(args, spec, seeds)
        except ValueError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            dev = math.nan
        ok = dev <= tol
        failed = failed or not ok
        print(f"{name:<{width}}  max deviation {dev:10.3e}  tolerance {tol:8.1e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        print("verification FAILED: at least one check breached its tolerance")
        return 1
    print("verification passed: all checks within tolerance")
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own drops a failed write, which main must see
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ergoflow",
        description="Gaussian quantum-battery datasets and verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="flat key = value file with defaults; flags win")
        p.add_argument("--omega", type=float, default=1.0, help="mode frequency (hbar = 1)")
        p.add_argument("--gamma", type=float, default=1.0, help="damping rate")

    sim = sub.add_parser("simulate", help="relaxation trajectory of one state family, as CSV")
    common(sim)
    sim.add_argument("--family", choices=FAMILIES, required=True)
    sim.add_argument("--nbar", type=float, default=0.0, help="bath occupation")
    sim.add_argument("--nbar-pi", type=float, default=0.0, help="seed thermal occupation")
    sim.add_argument(
        "--mu",
        type=complex,
        default=0j,
        help="displacement amplitude, python complex syntax (use --mu=-0.5+0.5j for negatives)",
    )
    sim.add_argument("--r", type=float, default=0.0, help="squeezing magnitude")
    sim.add_argument("--theta", type=float, default=0.0, help="squeezing phase (radians)")
    sim.add_argument("--tmax", type=float, default=5.0, help="end of the time grid")
    sim.add_argument("--dt", type=float, default=0.01, help="time grid spacing")
    sim.add_argument(
        "--absolute-time",
        action="store_true",
        help="interpret and report times as raw t instead of tau = gamma t",
    )
    sim.add_argument("--output", "-o", default="-", help="CSV destination ('-' for stdout)")
    sim.set_defaults(handler=cmd_simulate)

    cross = sub.add_parser("crossing", help="crossing time of squeezed vs displaced charge")
    common(cross)
    cross.add_argument("--nbar", type=float, default=0.4, help="bath occupation")
    cross.add_argument("--nbar-pi", type=float, default=0.2, help="seed thermal occupation")
    cross.add_argument("--r", type=float, default=1.0, help="squeezing magnitude")
    cross.add_argument("--mu", type=complex, default=1 + 0j, help="displacement amplitude")
    cross.add_argument("--tau-max", type=float, default=_TAU_MAX, help="end of the bracketing scan")
    cross.add_argument("--scan-step", type=float, default=_SCAN_STEP, help="bracketing scan step")
    cross.add_argument("--csv", metavar="PATH", help="also write the report as a one-row CSV")
    cross.set_defaults(handler=cmd_crossing)

    sweep = sub.add_parser("sweep", help="crossing-time table over parameter axes, as CSV")
    common(sweep)
    sweep.add_argument("--r", type=float, nargs="+", default=[1.0], help="squeezing magnitudes")
    sweep.add_argument("--mu", type=float, default=1.0, help="fixed displacement amplitude")
    sweep.add_argument("--nbar", type=float, default=0.5, help="fixed bath occupation")
    sweep.add_argument(
        "--nbar-axis",
        type=float,
        nargs=3,
        metavar=("MIN", "MAX", "COUNT"),
        help="sweep the bath occupation instead of fixing it",
    )
    sweep.add_argument("--nbar-pi", type=float, default=0.5, help="fixed seed occupation")
    sweep.add_argument(
        "--nbar-pi-axis",
        type=float,
        nargs=3,
        metavar=("MIN", "MAX", "COUNT"),
        help="sweep the seed occupation instead of fixing it",
    )
    sweep.add_argument("--output", "-o", default="-", help="CSV destination ('-' for stdout)")
    sweep.set_defaults(handler=cmd_sweep)

    verify = sub.add_parser("verify", help="run the oracle suites; nonzero exit on any breach")
    common(verify)
    verify.add_argument("--nbar", type=float, default=0.4, help="bath occupation")
    verify.add_argument("--nbar-pi", type=float, default=0.2, help="seed thermal occupation")
    verify.add_argument("--r", type=float, default=1.0, help="squeezing magnitude for the Fock checks")
    verify.add_argument("--mu", type=float, default=1.0, help="displacement amplitude for the Fock checks")
    verify.add_argument("--cutoff", type=int, default=60, help=f"Fock-space cutoff (1 to {_MAX_CUTOFF})")
    verify.add_argument(
        "--states", type=int, default=20, help=f"random states for the RK4 batch (1 to {_MAX_STATES})"
    )
    verify.add_argument(
        "--points",
        type=int,
        default=5,
        help=f"trajectory sample points for the Fock check (1 to {_MAX_POINTS})",
    )
    verify.add_argument("--rk4-dt", type=float, default=1e-3, help="RK4 step (tau units)")
    verify.add_argument("--fock-dt", type=float, default=1e-3, help="Fock RK4 step (tau units)")
    verify.add_argument("--seed", type=int, default=1234, help="seed for the randomized suites")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            argv = _inject_config(argv)
            args = build_parser().parse_args(argv)
            return args.handler(args)
        finally:  # on argparse's exits too, such as --help's, so a failed write ends below
            sys.stdout.flush()
    except (CliError, ValueError) as err:  # a ValueError, InvalidStateError among them, is a usage error
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, CliError) else 2
    except OSError as err:  # only stdout's writes reach here
        # what stdout still buffers goes to devnull, not to the flush at exit
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(err, BrokenPipeError):
            return 0  # the reader has gone, as after `| head`
        print(f"error: cannot write output file '-': {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
