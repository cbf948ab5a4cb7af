"""The checks of `ergoflow verify`: the closed forms against the three brute-force oracles.

Only this module imports the oracles; it calls them as module attributes, so a replaced oracle is
the one that runs.  Energy deviations are in units of omega.
"""

import numpy as np

from .dynamics import evolve_analytic
from .factory import SqueezingParameter, displaced_thermal, random_state, squeezed_displaced_thermal, squeezed_thermal
from .factory import thermal_state
from .oracles import fock, lyapunov, quadrature
from .oracles.fock import CutoffError
from .states import SystemBathSpec, ergotropy, mean_energy, wigner_entropy

__all__ = ["CHECKS", "CutoffError", "prepare"]


def _moment_deviation(mean, cov, state) -> float:
    """Largest deviation of an RK4 record's mean and covariance from the state's."""
    return max(float(np.max(np.abs(cov - state.cov))), abs(complex(mean) - state.alpha_mean))


# the RK4 batch's randomized omega and gamma ranges: gamma is bounded away from 1
# so a wrong noise prefactor cannot hide behind gamma = 1
_BATCH_OMEGA, _BATCH_GAMMA = (0.5, 2.0), (1.25, 2.0)
# the tau steps of the RK4 convergence-order probe
_ORDER_DTS = (0.04, 0.02, 0.01)


def _rk4_batch(args, spec, seeds):
    rng = np.random.default_rng(args.seed)
    states = [random_state(rng) for _ in range(args.states)]
    omega, gamma = rng.uniform(*_BATCH_OMEGA), rng.uniform(*_BATCH_GAMMA)
    batch_spec = SystemBathSpec(omega=omega, gamma=gamma, nbar=rng.uniform(0.0, 2.0))
    times = [float(t) for t in np.linspace(0.5, 5.0, 10) / batch_spec.gamma]
    means, covs = lyapunov.rk4_moment_path(states, batch_spec, args.rk4_dt / batch_spec.gamma, times)
    return max(
        _moment_deviation(means[ti, si], covs[ti, si], evolve_analytic(state0, batch_spec, t))
        for ti, t in enumerate(times)
        for si, state0 in enumerate(states)
    )


def _rk4_order(args, spec, seeds):
    probe = squeezed_displaced_thermal(0.2, 0.8, SqueezingParameter(1.0, 0.3))
    dts = [dt / spec.gamma for dt in _ORDER_DTS]
    return abs(lyapunov.convergence_order(probe, spec, 1.0 / spec.gamma, dts) - 4.0)


def _rk4_thermal(args, spec, seeds):
    thermal, _ = seeds[1]
    means, covs = lyapunov.rk4_moment_path([thermal], spec, args.rk4_dt / spec.gamma, [1.0 / spec.gamma])
    return _moment_deviation(means[0, 0], covs[0, 0], thermal)


def _fock_seed(args, spec, seeds):
    gauss, rho = seeds[0]
    return abs(fock.fock_ergotropy(rho, spec) - ergotropy(gauss, spec)) / spec.omega


def _fock_trajectory(args, spec, seeds):
    # each record is reduced as it is reached, so one density matrix is held at a time
    gauss, rho0 = seeds[0]
    times = np.linspace(3.0 / args.points, 3.0, args.points) / spec.gamma
    records = fock._fock_records(rho0, spec, [float(t) for t in times], args.fock_dt / spec.gamma)
    return max(
        abs(fock.fock_ergotropy(rho, spec) - ergotropy(evolve_analytic(gauss, spec, t), spec))
        for rho, t in zip(records, times)
    ) / spec.omega


def _fock_thermal(args, spec, seeds):
    _, rho0 = seeds[1]
    rho = fock.fock_lindblad_path(rho0, spec, [1.0 / spec.gamma], dt=args.fock_dt / spec.gamma)[0]
    return float(np.max(np.abs(np.diag(rho.matrix).real - np.diag(rho0.matrix).real)))


def _fock_displaced(args, spec, seeds):
    gauss, rho0 = seeds[2]
    rho = fock.fock_lindblad_path(rho0, spec, [1.0 / spec.gamma], dt=args.fock_dt / spec.gamma)[0]
    exact = evolve_analytic(gauss, spec, 1.0 / spec.gamma)
    return abs(fock.fock_moments(rho)[0] - exact.alpha_mean)


def _quadrature(args, spec, seeds):
    deviations = []
    # compact states whose 5-sigma support fits inside the default grid
    for state in (
        thermal_state(0.0),
        thermal_state(0.4),
        displaced_thermal(0.2, 0.9 + 0.3j),
        squeezed_thermal(0.2, SqueezingParameter(0.4, 1.1)),
        squeezed_displaced_thermal(0.1, 0.6j, SqueezingParameter(0.3, 0.5)),
    ):
        norm, energy, entropy = quadrature.norm_energy_entropy(state, spec.omega)
        energy_deviation = abs(energy - mean_energy(state, spec)) / spec.omega
        deviations += [abs(norm - 1.0), energy_deviation, abs(entropy - wigner_entropy(state))]
    return max(deviations)


# verify's checks in print order: (printed name, check(args, spec, seeds) -> largest deviation, tolerance)
CHECKS = (
    ("rk4 vs analytic moments", _rk4_batch, 1e-8),
    ("rk4 convergence order (|order - 4|)", _rk4_order, 0.2),
    ("rk4 stationary thermal state", _rk4_thermal, 1e-12),
    ("fock vs gaussian ergotropy at tau=0", _fock_seed, 1e-4),
    ("fock vs gaussian ergotropy on trajectory", _fock_trajectory, 1e-3),
    ("fock thermal-state stationarity", _fock_thermal, 1e-8),
    ("fock displaced-state mean decay", _fock_displaced, 1e-6),
    ("quadrature norm/energy/entropy", _quadrature, 1e-6),
)


def prepare(args, spec) -> tuple:
    """The squeezed, thermal and displaced seeds as (Gaussian, Fock) state pairs, once every RK4 step is stable."""
    # the Gaussian seeds first, so a seed beyond float range is a ValueError before any CutoffError
    gaussians = (
        squeezed_thermal(args.nbar_pi, args.r),
        thermal_state(spec.nbar),
        displaced_thermal(args.nbar_pi, args.mu),
    )
    focks = (
        fock.fock_gaussian_state(args.nbar_pi, 0j, args.r, 0.0, args.cutoff),
        fock.fock_gaussian_state(spec.nbar, dim=args.cutoff),
        fock.fock_gaussian_state(args.nbar_pi, complex(args.mu), 0.0, 0.0, args.cutoff),
    )
    # after the seeds, so a bath too warm for the cutoff is reported as that
    _check_rk4_steps(args, spec)
    return tuple(zip(gaussians, focks))


def _check_rk4_steps(args, spec) -> None:
    """Raise ValueError, naming the flag, for the first RK4 step verify takes outside RK4's stability region.

    A step of tau length dt is stable when |R(dt rate)| <= 1 for every rate
    (in tau units) of the ODE it steps, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    (lyapunov._rk4_stable).  The moment ODE's rates are -(1/2 + i omega/gamma),
    -1 and -(1 +- 2i omega/gamma); the Fock master equation's are
    -i (omega/gamma) d plus real rates that grow with the cutoff and nbar
    (fock._rhs_rates).  The largest step of each ODE decides, since the
    region is star-shaped about 0, and so does the batch's largest omega /
    gamma, since each vertical section of the region is one interval.
    """
    moments = lyapunov._moment_rates(spec)
    batch = lyapunov._moment_rates(SystemBathSpec(omega=_BATCH_OMEGA[1], gamma=_BATCH_GAMMA[0]))
    master = fock._rhs_rates(args.cutoff, spec)
    at = f"at omega / gamma = {spec.omega / spec.gamma:g}"
    for flag, dt, rates, ode in (
        ("--omega / --gamma", _ORDER_DTS[0], moments, f"the convergence-order probe's moment ODE {at}"),
        ("--rk4-dt", args.rk4_dt, moments, f"the moment ODE {at}"),
        ("--rk4-dt", args.rk4_dt, batch, "the randomized moment batch"),
        ("--fock-dt", args.fock_dt, master, f"the cutoff-{args.cutoff} master equation {at}"),
    ):
        if not lyapunov._rk4_stable(dt, rates):
            raise ValueError(f"{flag}: the RK4 tau step {dt:g} on {ode} leaves RK4's stability region")
