"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np

from ergoflow import (
    SystemBathSpec,
    crossing_time_closed_form,
    crossing_time_numeric,
    displaced_thermal,
    equal_charge_amplitude,
    ergotropy,
    ergotropy_rate,
    ergotropy_split,
    evolve_analytic,
    mean_energy,
    passive_occupation,
    passive_state,
    random_state,
    relative_wigner_entropy,
    sample_trajectory,
    squeezed_thermal,
    wigner_entropy,
)
from ergoflow.mpemba import SweepGrid, mpemba_scan
from ergoflow.oracles.fock import fock_ergotropy, fock_gaussian_state, fock_lindblad_path
from ergoflow.oracles.lyapunov import convergence_order, rk4_moment_path

from helpers import random_spec, rng_for, strictly_monotone

FIG_SPEC = SystemBathSpec(omega=1.0, gamma=1.0, nbar=0.4)
FIG_NBAR_PI = 0.2
FIG_R = 1.0


def _announce(name):
    print(f"PASS {name}")


def _sign_changes(values):
    signs = np.sign(values)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def test_fig2_reproduction():
    """Squeezed r=1 vs displaced mu in {0.75, 1.0}: single ergotropy crossing,
    no state-energy crossing, non-monotone squeezed passive energy."""
    start = time.perf_counter()
    tau = np.arange(501) * 0.01
    squeezed = sample_trajectory(squeezed_thermal(FIG_NBAR_PI, FIG_R), FIG_SPEC, tau)
    for mu in (0.75, 1.0):
        displaced = sample_trajectory(displaced_thermal(FIG_NBAR_PI, mu), FIG_SPEC, tau)
        # (a) exactly one ergotropy crossing on (0, 5]
        assert _sign_changes(squeezed.ergotropy - displaced.ergotropy) == 1
        # (b) the state energies never cross
        assert _sign_changes(squeezed.e_state - displaced.e_state) == 0
        assert np.all(squeezed.e_state > displaced.e_state)
    # (c) squeezed passive energy: interior maximum inside [1.20, 1.26] ...
    peak = int(np.argmax(squeezed.e_passive))
    assert 0 < peak < tau.size - 1
    assert 1.20 <= squeezed.e_passive[peak] <= 1.26
    # ... and equilibrium value 0.9 at tau = 50 within 1e-6
    late = evolve_analytic(squeezed_thermal(FIG_NBAR_PI, FIG_R), FIG_SPEC, 50.0)
    assert abs(FIG_SPEC.omega * passive_occupation(late) - 0.9) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(f"fig2 reproduction (crossings, passive maximum; {elapsed:.2f}s)")


def test_crossing_time_oracle_equivalence():
    """Closed form vs bisection within 1e-9 over 500 valid random tuples."""
    start = time.perf_counter()
    rng = rng_for("acceptance-tuples")
    worst = 0.0
    for _ in range(500):
        r = rng.uniform(0.2, 2.0)
        nbar = rng.uniform(0.0, 2.0)
        nbar_pi = rng.uniform(0.0, 2.0)
        # amplitude strictly inside the anomalous-ordering region
        mu = rng.uniform(0.05, 0.95) * math.sqrt(2.0 * (nbar_pi + 0.5)) * math.sinh(r)
        closed = crossing_time_closed_form(r, mu, nbar_pi, nbar)
        numeric = crossing_time_numeric(r, mu, nbar_pi, nbar)
        assert closed is not None and numeric is not None
        worst = max(worst, abs(closed - numeric))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(f"crossing-time oracle equivalence (500 tuples, worst {worst:.2e}; {elapsed:.2f}s)")


def test_fig4_reproduction():
    """Equal-charge amplitude: identical start, displaced strictly ahead after."""
    tau = np.arange(501) * 0.01
    mu = equal_charge_amplitude(FIG_R, FIG_NBAR_PI)
    squeezed = sample_trajectory(squeezed_thermal(FIG_NBAR_PI, FIG_R), FIG_SPEC, tau)
    displaced = sample_trajectory(displaced_thermal(FIG_NBAR_PI, mu), FIG_SPEC, tau)
    assert abs(squeezed.ergotropy[0] - displaced.ergotropy[0]) <= 1e-12
    assert np.all(displaced.ergotropy[1:] > squeezed.ergotropy[1:])
    _announce("fig4 reproduction (equal charge, strict displaced dominance)")


def test_fig3_monotonicity():
    """tau_c falls with bath occupation and rises with seed occupation, in closed form
    and by bisection."""
    nbar_axis = tuple(np.linspace(0.0, 2.0, 100))
    rows_a = mpemba_scan(SweepGrid((0.8, 1.0, 1.2), (0.5,), nbar_axis, mu=1.0)).rows
    assert len(rows_a) == 3 * 100 and all(row.report.exists for row in rows_a)
    assert strictly_monotone(rows_a, -1)

    # the precondition needs nbar_pi > ~0.134 at r = 0.8, mu = 1
    nbar_pi_axis = tuple(np.linspace(0.2, 2.0, 100))
    rows_b = mpemba_scan(SweepGrid((0.8, 1.0, 1.2), nbar_pi_axis, (0.5,), mu=1.0)).rows
    assert len(rows_b) == 3 * 100 and all(row.report.exists for row in rows_b)
    assert strictly_monotone(rows_b, 1)
    _announce("fig3 monotonicity (100-point axes, r in {0.8, 1.0, 1.2}, closed form and bisection strict)")


def test_analytic_vs_rk4():
    """RK4 at dt = 1e-4 tracks the closed form to 1e-8 for 100 random states;
    measured convergence order 4.0 +- 0.2."""
    rng = rng_for("acceptance-rk4")
    states = [random_state(rng) for _ in range(100)]
    taus = np.linspace(0.05, 5.0, 100)
    means, covs = rk4_moment_path(states, FIG_SPEC, 1e-4, [float(t) for t in taus])
    worst = 0.0
    for ti, t in enumerate(taus):
        for si, state in enumerate(states):
            exact = evolve_analytic(state, FIG_SPEC, float(t))
            worst = max(worst, float(np.max(np.abs(covs[ti, si] - exact.cov))))
            worst = max(worst, abs(complex(means[ti, si]) - exact.alpha_mean))
    assert worst <= 1e-8

    probe = random_state(rng_for("acceptance-order"))
    order = convergence_order(probe, FIG_SPEC, 1.0, [0.04, 0.02, 0.01, 0.005])
    assert abs(order - 4.0) <= 0.2
    _announce(f"analytic vs rk4 (worst {worst:.2e}, order {order:.3f})")


def test_fock_oracle_equivalence():
    """Definitional (spectrum-reordering) ergotropy vs the Gaussian closed form
    at cutoff 60: 1e-4 at tau = 0, 1e-3 at ten points in (0, 3]."""
    start = time.perf_counter()
    taus = np.linspace(0.3, 3.0, 10)
    seeds = (
        (squeezed_thermal(FIG_NBAR_PI, FIG_R), dict(r=FIG_R)),
        (displaced_thermal(FIG_NBAR_PI, 1.0), dict(mu=1.0)),
        (displaced_thermal(FIG_NBAR_PI, 0.75), dict(mu=0.75)),
    )
    for gaussian, params in seeds:
        rho = fock_gaussian_state(FIG_NBAR_PI, params.get("mu", 0j), params.get("r", 0.0), 0.0, 60)
        assert abs(fock_ergotropy(rho, FIG_SPEC) - ergotropy(gaussian, FIG_SPEC)) <= 1e-4
        records = fock_lindblad_path(rho, FIG_SPEC, [float(t) for t in taus], dt=1e-3)
        for record, t in zip(records, taus):
            exact = ergotropy(evolve_analytic(gaussian, FIG_SPEC, float(t)), FIG_SPEC)
            assert abs(fock_ergotropy(record, FIG_SPEC) - exact) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(f"fock oracle equivalence (cutoff 60, 3 seeds x 10 points; {elapsed:.1f}s)")


class TestPropertySuites:
    """Randomized, seeded invariants at 1000 cases each."""

    CASES = 1000

    def test_route_equivalence(self):
        # the paper's identity E_erg = omega f_pi K[W || W_passive] holds to an absolute
        # error of a few ulps of the mean energy E, which sets the scale of K's terms:
        # at most 8.5e-16 E over 20000 random states, each at t = 0, 0.3, 1 and 3,
        # so the bound 1e-14 E has more than 10x headroom
        rng = rng_for("prop-routes")
        for _ in range(self.CASES):
            state0 = random_state(rng)
            spec = random_spec(rng)
            for t in (0.0, 0.3, 1.0, 3.0):
                state = evolve_analytic(state0, spec, t)
                erg = ergotropy(state, spec)
                f_pi = passive_occupation(state)
                via_entropy = spec.omega * f_pi * relative_wigner_entropy(state, passive_state(state))
                direct = mean_energy(state, spec) - spec.omega * f_pi
                assert abs(via_entropy - erg) <= 1e-14 * mean_energy(state, spec)
                assert abs(direct - erg) <= 1e-12 * max(1.0, erg)
        _announce("property: relative-entropy route == energy-difference route == ergotropy (1000 x 4)")

    def test_split_equality(self):
        rng = rng_for("prop-split")
        for _ in range(self.CASES):
            state = random_state(rng)
            spec = random_spec(rng)
            total = ergotropy(state, spec)
            v_part, cov_part = ergotropy_split(state, spec)
            assert v_part >= 0.0 and cov_part >= 0.0
            assert abs(v_part + cov_part - total) <= 1e-12 * max(1.0, total)
        _announce("property: displacement + covariance split sums to ergotropy (1000)")

    def test_entropy_equality_exact(self):
        rng = rng_for("prop-entropy")
        for _ in range(self.CASES):
            state = random_state(rng)
            assert wigner_entropy(passive_state(state)) == wigner_entropy(state)
        _announce("property: S(W) == S(W_passive) bit-exact (1000)")

    def test_relative_entropy_nonnegative(self):
        rng = rng_for("prop-knonneg")
        for _ in range(self.CASES):
            a, b = random_state(rng), random_state(rng)
            assert relative_wigner_entropy(a, b) >= 0.0
            assert relative_wigner_entropy(a, a) == 0.0
        _announce("property: K >= 0 with K[W||W] == 0 (1000)")

    def test_uncertainty_preserved_by_dynamics(self):
        rng = rng_for("prop-det")
        for _ in range(self.CASES):
            state = random_state(rng)
            spec = random_spec(rng)
            evolved = evolve_analytic(state, spec, rng.uniform(0.0, 5.0))
            assert evolved.cov_det >= 0.25 - 1e-12
        _announce("property: det cov >= 1/4 along the dynamics (1000)")

    def test_rate_against_central_differences(self):
        rng = rng_for("prop-rate")
        step = 1e-5
        for _ in range(self.CASES):
            state = random_state(rng)
            spec = random_spec(rng)
            t = rng.uniform(0.01, 3.0)
            rate = ergotropy_rate(state, spec, t)
            finite_difference = (
                ergotropy(evolve_analytic(state, spec, t + step), spec)
                - ergotropy(evolve_analytic(state, spec, t - step), spec)
            ) / (2.0 * step)
            assert abs(rate.rate - finite_difference) <= 1e-6 * max(1.0, abs(rate.rate))
        _announce("property: discharge rate matches central differences (1000)")

    def test_passive_flux_relation(self):
        rng = rng_for("prop-passiveflux")
        step = 1e-5
        for _ in range(self.CASES):
            state = random_state(rng)
            spec = random_spec(rng)
            t = rng.uniform(0.01, 3.0)
            rate = ergotropy_rate(state, spec, t)
            evolved = evolve_analytic(state, spec, t)
            # passive flux by finite differences of the passive energy
            passive_flux = -(
                spec.omega * passive_occupation(evolve_analytic(state, spec, t + step))
                - spec.omega * passive_occupation(evolve_analytic(state, spec, t - step))
            ) / (2.0 * step)
            # entropy route: omega sqrt(det) dS/dt by finite differences
            entropy_route = (
                spec.omega
                * passive_occupation(evolved)
                * (
                    wigner_entropy(evolve_analytic(state, spec, t + step))
                    - wigner_entropy(evolve_analytic(state, spec, t - step))
                )
                / (2.0 * step)
            )
            scale = max(1.0, abs(passive_flux))
            assert abs(passive_flux + entropy_route) <= 1e-6 * scale
            assert abs(rate.entropy_term - entropy_route) <= 1e-6 * scale
        _announce("property: passive flux == -omega sqrt(det) dS/dt (1000)")
