"""The benchmark's four workloads.

Each workload builds its inputs from a seed in ``__init__``, warms up, and
then runs one operation at a time (a closed loop with a single caller).
``run`` is the timed operation and returns ``(output, parts)``, where
``parts`` holds named sub-timings; ``check`` verifies an output outside the
timed interval at the library's acceptance tolerances.  ``trace_run`` is
the operation as the span tracer sees it (``run`` itself, except for the
CLI, whose subprocesses it cannot see).  ``detail`` turns the medians into
the workload's own named metrics.

Library functions are looked up on their modules at call time, never bound
to local names, so the tracer's patched bindings see every call.  Each
workload imports only the modules it uses.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from ergoflow import dynamics, factory, mpemba, states

TRAJECTORY_HEADER = "tau,E_state,E_passive,ergotropy,erg_v,erg_theta,wigner_entropy,f_beta_t,r_t"


def _rel_close(a, b, rtol=1e-12) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class Sweep:
    """One ``mpemba_scan`` over a seeded (r, nbar_pi, nbar) grid at fixed mu."""

    name = "sweep"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        n_r, n_pi, n_nbar = (3, 2, 2) if tiny else (3, 8, 10)
        # With mu in [0.9, 1.3] and nbar_pi <= 1.5, the weakest squeezing
        # r <= 0.4 fails the anomalous ordering |mu|^2 < 2 f_pi sinh^2 r at
        # every point and the others (r >= 1.1) meet it at every point: a
        # third of the grid has no crossing and skips the bisection, whatever
        # the seed, so every seed asks for the same amount of work.
        r_values = (rng.uniform(0.2, 0.4), *sorted(rng.uniform(1.1, 1.5, n_r - 1)))
        self.grid = mpemba.SweepGrid(
            r_values=tuple(float(x) for x in r_values),
            nbar_pi_values=tuple(float(x) for x in np.linspace(0.0, rng.uniform(0.8, 1.5), n_pi)),
            nbar_values=tuple(float(x) for x in np.linspace(0.0, rng.uniform(1.5, 2.5), n_nbar)),
            mu=float(rng.uniform(0.9, 1.3)),
        )
        self.spec = states.SystemBathSpec(omega=rng.uniform(0.5, 2.0), gamma=rng.uniform(0.5, 2.0), nbar=0.0)
        self.points = n_r * n_pi * n_nbar
        self.crossing_share = 0.0
        g = self.grid
        mpemba.mpemba_scan(mpemba.SweepGrid(g.r_values[-1:], g.nbar_pi_values[:1], g.nbar_values[:2], g.mu), self.spec)

    def run(self):
        return mpemba.mpemba_scan(self.grid, self.spec), {}

    trace_run = run

    def check(self, result) -> bool:
        if len(result.rows) != self.points:
            return False
        for row in result.rows:
            rep = row.report
            closed, numeric = rep.tau_c_closed, rep.tau_c_numeric
            closed_exists = closed is not None and closed > 0.0
            numeric_exists = numeric is not None and numeric > 0.0
            if not rep.exists == closed_exists == numeric_exists:
                return False
            if closed_exists and not abs(numeric - closed) <= 1e-9:
                return False
        self.crossing_share = sum(row.report.exists for row in result.rows) / self.points
        return True

    def detail(self, op_s, parts) -> dict:
        return {
            "sweep_points_per_s": (self.points / median(op_s), "1/s"),
            "sweep_crossing_share": (self.crossing_share, "ratio"),
        }


class Oracles:
    """One checked pass of the RK4, truncated-Fock and quadrature oracles."""

    name = "oracles"
    CUTOFF = 60

    def __init__(self, seed: int, tiny: bool = False):
        from ergoflow.oracles import fock, lyapunov, quadrature

        self.fock, self.lyapunov, self.quadrature = fock, lyapunov, quadrature
        rng = np.random.default_rng(seed)
        self.spec = states.SystemBathSpec(
            omega=rng.uniform(0.5, 2.0), gamma=rng.uniform(1.25, 2.0), nbar=rng.uniform(0.0, 2.0)
        )
        gamma = self.spec.gamma
        tau_end = 0.01 if tiny else 0.25
        # RK4 moments: a random_state batch at tau step 1e-4, five records
        self.rk4_states = [factory.random_state(rng) for _ in range(2 if tiny else 4)]
        self.rk4_dt = 1e-4 / gamma
        self.rk4_times = [float(t) for t in np.linspace(tau_end / 5, tau_end, 5) / gamma]
        # Fock: a squeezed and a displaced seed at cutoff 60, tau step 1e-3;
        # ranges stay inside what cutoff 60 represents to 1e-5 tail population
        nbar_pi = rng.uniform(0.0, 0.2)
        squeezing = factory.SqueezingParameter(rng.uniform(0.6, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        amplitude = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.uniform())
        self.fock_seeds = (
            ((nbar_pi, 0j, squeezing.r, squeezing.theta), factory.squeezed_thermal(nbar_pi, squeezing)),
            ((nbar_pi, amplitude, 0.0, 0.0), factory.displaced_thermal(nbar_pi, amplitude)),
        )
        self.fock_dt = 1e-3 / gamma
        self.fock_times = [float(t) for t in np.linspace(tau_end / 5, tau_end, 5) / gamma]
        # quadrature: compact states, whose density the default grid
        # (|Re alpha|, |Im alpha| <= 6) holds to the 1e-6 gate
        self.quad_states = [
            factory.squeezed_displaced_thermal(
                rng.uniform(0.0, 0.3),
                rng.uniform(0.0, 0.6) * cmath.exp(2j * math.pi * rng.uniform()),
                factory.SqueezingParameter(rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0 * math.pi)),
            )
            for _ in range(1 if tiny else 3)
        ]
        self.check(self.run()[0])  # warm-up operation

    def run(self):
        lyapunov, fock, quadrature = self.lyapunov, self.fock, self.quadrature
        rk4 = lyapunov.rk4_moment_path(self.rk4_states, self.spec, self.rk4_dt, self.rk4_times)
        fock_ergs = []
        for args, _gaussian in self.fock_seeds:
            rho0 = fock.fock_gaussian_state(*args, dim=self.CUTOFF)
            path = fock.fock_lindblad_path(rho0, self.spec, self.fock_times, dt=self.fock_dt)
            fock_ergs.append([fock.fock_ergotropy(rho, self.spec) for rho in [rho0, *path]])
        quad = [quadrature.norm_energy_entropy(s, self.spec.omega) for s in self.quad_states]
        return (rk4, fock_ergs, quad), {}

    trace_run = run

    def check(self, result) -> bool:
        (means, covs), fock_ergs, quad = result
        spec = self.spec
        rk4_dev = 0.0
        for ti, t in enumerate(self.rk4_times):
            for si, state0 in enumerate(self.rk4_states):
                exact = dynamics.evolve_analytic(state0, spec, t)
                rk4_dev = max(
                    rk4_dev,
                    float(np.max(np.abs(covs[ti, si] - exact.cov))),
                    abs(complex(means[ti, si]) - exact.alpha_mean),
                )
        ok = rk4_dev <= 1e-8
        for (_args, gaussian), ergs in zip(self.fock_seeds, fock_ergs):
            exact = [states.ergotropy(gaussian, spec)] + [
                states.ergotropy(dynamics.evolve_analytic(gaussian, spec, t), spec) for t in self.fock_times
            ]
            ok = ok and abs(ergs[0] - exact[0]) <= 1e-4
            ok = ok and max(abs(a - b) for a, b in zip(ergs[1:], exact[1:])) <= 1e-3
        for state, (norm, energy, entropy) in zip(self.quad_states, quad):
            ok = ok and abs(norm - 1.0) <= 1e-6
            ok = ok and abs(energy - states.mean_energy(state, spec)) <= 1e-6
            ok = ok and abs(entropy - states.wigner_entropy(state)) <= 1e-6
        return ok

    def detail(self, op_s, parts) -> dict:
        return {"oracle_pass_s": (median(op_s), "s")}


class ClosedForms:
    """Scalar closed-form calls on seeded tuples, then long ``sample_trajectory`` grids."""

    name = "closed_forms"
    CALLS_PER_TUPLE = 15

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.tuples = [
            (
                rng.uniform(0.0, 2.0),  # nbar_pi
                rng.uniform(0.1, 2.0) * cmath.exp(2j * math.pi * rng.uniform()),  # mu
                factory.SqueezingParameter(rng.uniform(0.1, 1.5), rng.uniform(0.0, 2.0 * math.pi)),
                states.SystemBathSpec(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)),
                rng.uniform(0.0, 3.0),  # t
            )
            for _ in range(10 if tiny else 200)
        ]
        self.state_seed = int(rng.integers(2**32))
        n_grids, rows = (1, 1000) if tiny else (10, 100_000)
        self.trajectories = [
            (
                factory.random_state(rng),
                states.SystemBathSpec(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)),
                np.arange(rows) * rng.uniform(1e-5, 1e-4),
            )
            for _ in range(n_grids)
        ]
        self.calls = self.CALLS_PER_TUPLE * len(self.tuples)
        self.rows = n_grids * rows
        self.check(self.run()[0])  # warm-up operation

    def _scalar(self):
        # a fresh generator per operation keeps every operation identical
        rng = np.random.default_rng(self.state_seed)
        out = []
        for nbar_pi, mu, z, spec, t in self.tuples:
            squeezed = factory.squeezed_thermal(nbar_pi, z)
            displaced = factory.displaced_thermal(nbar_pi, mu)
            state = factory.random_state(rng)
            passive = states.passive_state(state)
            evolved = dynamics.evolve_analytic(state, spec, t)
            out.append(
                (
                    state,
                    passive,
                    states.ergotropy(state, spec),
                    states.ergotropy_split(state, spec),
                    states.relative_wigner_entropy(state, passive),
                    states.wigner_entropy(state),
                    states.wigner_entropy(passive),
                    states.ergotropy(evolved, spec),
                    dynamics.ergotropy_rate(state, spec, t),
                    dynamics.effective_parameters(nbar_pi, z, spec, t),
                    states.ergotropy(squeezed, spec),
                    states.ergotropy(displaced, spec),
                    spec,
                )
            )
        return out

    def run(self):
        t0 = perf_counter()
        scalar = self._scalar()
        t1 = perf_counter()
        arrays = [dynamics.sample_trajectory(s, spec, tau) for s, spec, tau in self.trajectories]
        t2 = perf_counter()
        return (scalar, arrays), {"scalar_s": t1 - t0, "array_s": t2 - t1}

    trace_run = run

    def check(self, result) -> bool:
        scalar, arrays = result
        for state, passive, erg, (erg_v, erg_cov), rel, s_state, s_passive, *_rest, spec in scalar:
            f_pi = math.sqrt(state.cov_det)
            energy_route = states.mean_energy(state, spec) - spec.omega * f_pi
            entropy_route = spec.omega * f_pi * rel
            if not (_rel_close(erg, energy_route) and _rel_close(erg, entropy_route)):
                return False
            if not _rel_close(erg_v + erg_cov, erg) or s_state != s_passive:
                return False
        for traj, (_s, _spec, tau) in zip(arrays, self.trajectories):
            if len(traj) != tau.size or not np.array_equal(traj.e_state - traj.e_passive, traj.ergotropy):
                return False
        return True

    def detail(self, op_s, parts) -> dict:
        return {
            "closed_form_calls_per_s": (self.calls / median(p["scalar_s"] for p in parts), "1/s"),
            "trajectory_rows_per_s": (self.rows / median(p["array_s"] for p in parts), "1/s"),
        }


def _fmt(x) -> str:
    return format(float(x), ".17g")


class Cli:
    """One ``python -m ergoflow.cli`` subprocess at a time: ``simulate``, then ``crossing``."""

    name = "cli"
    # the crossing subcommand's default tuple
    CROSSING = (1.0, 1.0, 0.2, 0.4)

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = Path("."), env=None):
        import ergoflow.cli

        self.cli = ergoflow.cli
        self.env = env
        rng = np.random.default_rng(seed)
        nbar_pi, nbar, r = (float(rng.uniform(lo, hi)) for lo, hi in ((0.0, 1.0), (0.0, 1.0), (0.2, 1.5)))
        self.csv_path = workdir / "simulate.csv"
        self.simulate_argv = [
            "simulate", "--family", "squeezed", "--nbar-pi", repr(nbar_pi), "--nbar", repr(nbar),
            "--r", repr(r), "--tmax", "5", "--dt", "0.01", "-o", str(self.csv_path),
        ]  # fmt: skip
        self.crossing_argv = ["crossing"]
        # the CSV the CLI must reproduce byte for byte: 501 rows at .17g
        tau = np.arange(501) * 0.01
        traj = dynamics.sample_trajectory(
            factory.squeezed_thermal(nbar_pi, r), states.SystemBathSpec(nbar=nbar), tau
        )
        columns = (tau, traj.e_state, traj.e_passive, traj.ergotropy, traj.erg_v, traj.erg_theta,
                   traj.wigner_entropy, traj.f_beta_t, traj.r_t)  # fmt: skip
        rows = [",".join(_fmt(col[i]) for col in columns) for i in range(tau.size)]
        self.expected_csv = ("\n".join([TRAJECTORY_HEADER, *rows]) + "\n").encode("ascii")
        self.expected_tau_c = mpemba.crossing_time_closed_form(*self.CROSSING)
        self.crossing_stdout = None  # the first invocation's output; later ones must match it
        self.check(self.run()[0])  # warm-up operation

    def _subprocess(self, argv):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ergoflow.cli", *argv], capture_output=True, env=self.env, check=False
        )
        return proc.returncode, proc.stdout, perf_counter() - t0

    def run(self):
        sim_code, _out, sim_s = self._subprocess(self.simulate_argv)
        csv = self.csv_path.read_bytes() if sim_code == 0 else b""
        cross_code, cross_out, cross_s = self._subprocess(self.crossing_argv)
        return (sim_code, csv, cross_code, cross_out), {"simulate_s": sim_s, "crossing_s": cross_s}

    def trace_run(self):
        """The same two commands through ``ergoflow.cli.main`` in this process."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            sim_code = self.cli.main(self.simulate_argv)
        csv = self.csv_path.read_bytes() if sim_code == 0 else b""
        with contextlib.redirect_stdout(out):
            cross_code = self.cli.main(self.crossing_argv)
        return (sim_code, csv, cross_code, out.getvalue().encode()), {}

    def check(self, result) -> bool:
        sim_code, csv, cross_code, cross_out = result
        if sim_code != 0 or cross_code != 0 or csv != self.expected_csv:
            return False
        if self.crossing_stdout is None:
            text = cross_out.decode("ascii", "replace")
            values = {}
            for line in text.splitlines():
                key, sep, value = line.partition("=")
                if sep and key.strip() in ("tau_c closed form", "tau_c numeric"):
                    values[key.strip()] = float(value)
            closed, numeric = values.get("tau_c closed form"), values.get("tau_c numeric")
            if closed != self.expected_tau_c or numeric is None or not abs(numeric - closed) <= 1e-9:
                return False
            self.crossing_stdout = cross_out
        return cross_out == self.crossing_stdout

    def detail(self, op_s, parts) -> dict:
        return {
            "cli_simulate_s": (median(p["simulate_s"] for p in parts), "s"),
            "cli_crossing_s": (median(p["crossing_s"] for p in parts), "s"),
        }


WORKLOADS = {w.name: w for w in (Sweep, Oracles, ClosedForms, Cli)}
