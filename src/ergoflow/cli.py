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

Exit codes: 0 success, 1 tolerance breach, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
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
from .mpemba import _MAX_SCAN_STEPS, ScanRow, SweepGrid, crossing_report, mpemba_scan
from .states import InvalidStateError, SystemBathSpec, ergotropy, mean_energy, wigner_entropy

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
# may hold: 10^4 states run for tens of seconds, and each point keeps a density matrix
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


def _fmt(x) -> str:
    # full-precision decimal text, locale independent
    return format(float(x), ".17g")


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

    Explicit command-line flags come later in argv and therefore override
    the file (argparse keeps the last occurrence).
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None or not argv:
        return argv
    return [argv[0]] + _config_tokens(path) + argv[1:]


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as err:
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


def _trajectory_csv(time_values, traj) -> str:
    columns = (
        time_values,
        traj.e_state,
        traj.e_passive,
        traj.ergotropy,
        traj.erg_v,
        traj.erg_theta,
        traj.wigner_entropy,
        traj.f_beta_t,
        traj.r_t,
    )
    lines = [TRAJECTORY_HEADER]
    for i in range(len(time_values)):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    for flag, value in (("--dt", args.dt), ("--tmax", args.tmax)):
        if not 0.0 < value < math.inf:
            raise CliError(f"{flag} must be finite and positive")
    if args.tmax < args.dt:
        raise CliError("--tmax must be at least one step --dt")
    if args.tmax / args.dt > _MAX_GRID:
        raise CliError(f"the time grid holds more than {_MAX_GRID} steps of --dt")
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    state = _build_family(args)
    steps = int(round(args.tmax / args.dt))
    grid_in = np.arange(steps + 1) * args.dt
    tau_grid = grid_in * args.gamma if args.absolute_time else grid_in
    traj = sample_trajectory(state, spec, tau_grid)
    _write_text(args.output, _trajectory_csv(grid_in, traj))
    return 0


# ---------------------------------------------------------------- crossing


def _sweep_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        rep = row.report
        cells = [
            _fmt(row.r),
            _fmt(row.nbar_pi),
            _fmt(row.nbar),
            _fmt(row.mu),
            "true" if rep.exists else "false",
            _fmt(rep.tau_c_closed) if rep.tau_c_closed is not None else "",
            _fmt(rep.tau_c_numeric) if rep.tau_c_numeric is not None else "",
            _fmt(rep.erg0_squeezed),
            _fmt(rep.erg0_displaced),
            rep.validity_note,
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_crossing(args) -> int:
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    report = crossing_report(
        args.r, args.mu, args.nbar_pi, args.nbar, spec, args.tau_max, args.scan_step
    )
    print(
        f"parameters: r = {args.r}, |mu| = {abs(args.mu)}, nbar_pi = {args.nbar_pi}, "
        f"nbar = {args.nbar} (omega = {args.omega}, gamma = {args.gamma})"
    )
    print(f"initial ergotropy squeezed  = {_fmt(report.erg0_squeezed)}")
    print(f"initial ergotropy displaced = {_fmt(report.erg0_displaced)}")
    if report.exists:
        print(f"tau_c closed form = {_fmt(report.tau_c_closed)}")
        print(f"tau_c numeric     = {_fmt(report.tau_c_numeric)}")
        print(f"|difference|      = {_fmt(abs(report.tau_c_closed - report.tau_c_numeric))}")
    else:
        print(f"no crossing: {report.validity_note}")
    if args.csv:
        row = ScanRow(args.r, args.nbar_pi, args.nbar, abs(args.mu), report)
        _write_text(args.csv, _sweep_csv([row]))
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
    result = mpemba_scan(grid, spec)
    _write_text(args.output, _sweep_csv(result.rows))
    print(
        f"monotonicity: tau_c decreasing along nbar in "
        f"{result.nbar_comparisons - result.nbar_decreasing_violations}/{result.nbar_comparisons} "
        f"adjacent pairs; increasing along nbar_pi in "
        f"{result.nbar_pi_comparisons - result.nbar_pi_increasing_violations}/"
        f"{result.nbar_pi_comparisons}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- verify


def _quadrature_states():
    # compact states whose 5-sigma support fits inside the default grid
    return (
        thermal_state(0.0),
        thermal_state(0.4),
        displaced_thermal(0.2, 0.9 + 0.3j),
        squeezed_thermal(0.2, SqueezingParameter(0.4, 1.1)),
        squeezed_displaced_thermal(0.1, 0.6j, SqueezingParameter(0.3, 0.5)),
    )


def cmd_verify(args) -> int:
    # the oracles are imported here, so the other subcommands never load them
    from .oracles.fock import (
        CutoffError,
        fock_ergotropy,
        fock_gaussian_state,
        fock_lindblad_path,
        fock_moments,
    )
    from .oracles.lyapunov import convergence_order, rk4_moment_path
    from .oracles.quadrature import norm_energy_entropy

    # an empty batch or trajectory would pass its check without checking anything
    for flag, count, most in (
        ("--states", args.states, _MAX_STATES),
        ("--points", args.points, _MAX_POINTS),
        ("--cutoff", args.cutoff, _MAX_CUTOFF),
    ):
        if not 1 <= count <= most:
            raise CliError(f"{flag} must be at least 1 and at most {most}")
    # the RK4 batch runs to tau = 5 and the Fock trajectory to tau = 3
    for flag, dt, span in (("--rk4-dt", args.rk4_dt, 5.0), ("--fock-dt", args.fock_dt, 3.0)):
        if not 0.0 < dt < math.inf:
            raise CliError(f"{flag} must be finite and positive")
        if span / dt > _MAX_GRID:
            raise CliError(f"{flag} takes more than {_MAX_GRID} steps")
    rng = np.random.default_rng(args.seed)
    spec = SystemBathSpec(omega=args.omega, gamma=args.gamma, nbar=args.nbar)
    checks = []

    # closed-form evolution vs batched RK4 moments at ten trajectory points;
    # the spec is randomized with gamma bounded away from 1 so a wrong noise
    # prefactor cannot hide behind gamma = 1
    states = [random_state(rng) for _ in range(args.states)]
    batch_spec = SystemBathSpec(
        omega=rng.uniform(0.5, 2.0), gamma=rng.uniform(1.25, 2.0), nbar=rng.uniform(0.0, 2.0)
    )
    taus = np.linspace(0.5, 5.0, 10)
    times = [float(t) for t in taus / batch_spec.gamma]
    means, covs = rk4_moment_path(states, batch_spec, args.rk4_dt / batch_spec.gamma, times)
    deviation = 0.0
    for ti, t in enumerate(times):
        for si, state0 in enumerate(states):
            exact = evolve_analytic(state0, batch_spec, t)
            deviation = max(
                deviation,
                float(np.max(np.abs(covs[ti, si] - exact.cov))),
                abs(complex(means[ti, si]) - exact.alpha_mean),
            )
    checks.append(("rk4 vs analytic moments", deviation, 1e-8))

    t_one = 1.0 / spec.gamma
    probe = squeezed_displaced_thermal(0.2, 0.8, SqueezingParameter(1.0, 0.3))
    order = convergence_order(probe, spec, t_one, [dt / spec.gamma for dt in (0.04, 0.02, 0.01)])
    checks.append(("rk4 convergence order (|order - 4|)", abs(order - 4.0), 0.2))

    thermal = thermal_state(spec.nbar)
    means, covs = rk4_moment_path([thermal], spec, args.rk4_dt / spec.gamma, [t_one])
    checks.append(
        (
            "rk4 stationary thermal state",
            max(float(np.max(np.abs(covs[0, 0] - thermal.cov))), abs(complex(means[0, 0]))),
            1e-12,
        )
    )

    # Fock-space ground truth; a cutoff too small for a seed is a breach (exit code 1)
    try:
        squeezed_rho = fock_gaussian_state(args.nbar_pi, 0j, args.r, 0.0, args.cutoff)
        thermal_rho = fock_gaussian_state(spec.nbar, dim=args.cutoff)
        displaced_rho = fock_gaussian_state(args.nbar_pi, complex(args.mu), 0.0, 0.0, args.cutoff)
    except CutoffError as err:
        raise CliError(str(err), code=1) from err
    gauss_squeezed = squeezed_thermal(args.nbar_pi, args.r)
    checks.append(
        (
            "fock vs gaussian ergotropy at tau=0",
            abs(fock_ergotropy(squeezed_rho, spec) - ergotropy(gauss_squeezed, spec)),
            1e-4,
        )
    )

    sample_taus = np.linspace(3.0 / args.points, 3.0, args.points)
    records = fock_lindblad_path(
        squeezed_rho, spec, [float(t) for t in sample_taus / spec.gamma], dt=args.fock_dt / spec.gamma
    )
    traj_dev = max(
        abs(fock_ergotropy(record, spec) - ergotropy(evolve_analytic(gauss_squeezed, spec, t), spec))
        for record, t in zip(records, sample_taus / spec.gamma)
    )
    checks.append(("fock vs gaussian ergotropy on trajectory", traj_dev, 1e-3))

    evolved_rho = fock_lindblad_path(thermal_rho, spec, [t_one], dt=args.fock_dt / spec.gamma)[0]
    checks.append(
        (
            "fock thermal-state stationarity",
            float(np.max(np.abs(np.diag(evolved_rho.matrix).real - np.diag(thermal_rho.matrix).real))),
            1e-8,
        )
    )

    evolved_rho = fock_lindblad_path(displaced_rho, spec, [t_one], dt=args.fock_dt / spec.gamma)[0]
    expected_mean = evolve_analytic(displaced_thermal(args.nbar_pi, args.mu), spec, t_one).alpha_mean
    checks.append(
        ("fock displaced-state mean decay", abs(fock_moments(evolved_rho)[0] - expected_mean), 1e-6)
    )

    quad_dev = 0.0
    for state in _quadrature_states():
        norm, energy, entropy = norm_energy_entropy(state, spec.omega)
        quad_dev = max(
            quad_dev,
            abs(norm - 1.0),
            abs(energy - mean_energy(state, spec)),
            abs(entropy - wigner_entropy(state)),
        )
    checks.append(("quadrature norm/energy/entropy", quad_dev, 1e-6))

    width = max(len(name) for name, _, _ in checks)
    failed = False
    for name, dev, tol in checks:
        ok = dev <= tol
        failed = failed or not ok
        print(f"{name:<{width}}  max deviation {dev:10.3e}  tolerance {tol:8.1e}  {'PASS' if ok else 'FAIL'}")
    if failed:
        print("verification FAILED: at least one check breached its tolerance")
        return 1
    print("verification passed: all checks within tolerance")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    cross.add_argument("--tau-max", type=float, default=50.0, help="end of the bracketing scan")
    cross.add_argument("--scan-step", type=float, default=0.01, help="bracketing scan step")
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
        argv = _inject_config(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (InvalidStateError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
