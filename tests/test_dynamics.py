"""Closed-form relaxation: evolution, effective parameters, trajectories, rates."""

import math

import numpy as np
import pytest

from ergoflow import (
    SqueezingParameter,
    SystemBathSpec,
    displaced_thermal,
    effective_parameters,
    ergotropy,
    ergotropy_rate,
    ergotropy_split,
    evolve_analytic,
    mean_energy,
    passive_occupation,
    random_state,
    sample_trajectory,
    squeezed_thermal,
    thermal_state,
    wigner_entropy,
)

from ergoflow.factory import _MAX_SQUEEZING

from helpers import moments_close, random_spec, rng_for

SPEC = SystemBathSpec(omega=1.0, gamma=1.0, nbar=0.4)

# frozen oracle values for the squeezed seed (nbar_pi 0.2, r 1) at gamma t = 1
THETA11_AT_1 = 1.53773261683512
ABS_THETA12_AT_1 = 0.9339731660319135
F_BETA_AT_1 = 1.2216037516359017
# interior maximum of the squeezed passive energy, frozen from a bounded scalar search
PASSIVE_MAX = 1.2318817760754726
PASSIVE_MAX_TAU = 0.7907747108394108


class TestEvolveAnalytic:
    def test_zero_time_is_identity(self):
        rng = rng_for("evo0")
        for _ in range(50):
            state = random_state(rng)
            assert moments_close(evolve_analytic(state, SPEC, 0.0), state, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_analytic(thermal_state(0.1), SPEC, -0.5)

    def test_long_time_fixed_point(self):
        state = squeezed_thermal(0.2, 1.0)
        settled = evolve_analytic(state, SPEC, 50.0)
        assert moments_close(settled, thermal_state(0.4), 1e-12)
        # means decay at gamma/2, so a displaced seed needs ~2x longer
        displaced = evolve_analytic(displaced_thermal(0.2, 1.0), SPEC, 60.0)
        assert moments_close(displaced, thermal_state(0.4), 1e-12)

    def test_fig2_squeezed_covariance_at_unit_time(self):
        evolved = evolve_analytic(squeezed_thermal(0.2, 1.0), SPEC, 1.0)
        assert evolved.symmetric_variance == pytest.approx(THETA11_AT_1, rel=1e-13)
        assert abs(evolved.anomalous_variance) == pytest.approx(ABS_THETA12_AT_1, rel=1e-13)
        assert passive_occupation(evolved) == pytest.approx(F_BETA_AT_1, rel=1e-13)

    def test_semigroup_property(self):
        rng = rng_for("semigroup")
        for _ in range(100):
            state = random_state(rng)
            spec = random_spec(rng)
            t1, t2 = rng.uniform(0, 2.5, size=2)
            two_steps = evolve_analytic(evolve_analytic(state, spec, t1), spec, t2)
            one_step = evolve_analytic(state, spec, t1 + t2)
            assert moments_close(two_steps, one_step, 1e-12)

    def test_phase_beyond_float_range(self):
        # 2 omega t = 2e400: cmath.exp raised "math domain error"
        with pytest.raises(ValueError, match="exceeds float range"):
            evolve_analytic(displaced_thermal(0.2, 1.0), SystemBathSpec(omega=1e200), 1e200)
        settled = evolve_analytic(displaced_thermal(0.2, 1.0), SystemBathSpec(omega=1e200), 1e100)
        assert moments_close(settled, thermal_state(0.0), 0.0)

    def test_uncertainty_preserved(self):
        rng = rng_for("detfloor")
        for _ in range(200):
            state = random_state(rng)
            spec = random_spec(rng)
            evolved = evolve_analytic(state, spec, rng.uniform(0, 5))
            assert evolved.cov_det >= 0.25 - 1e-12


class TestEffectiveParameters:
    def test_initial_values(self):
        params = effective_parameters(0.2, 1.0, SPEC, 0.0)
        assert params.f_beta_t == 0.7
        assert math.cosh(2 * params.r_t) == pytest.approx(math.cosh(2.0), rel=1e-12)
        assert params.delta_beta == 0.7

    def test_equilibrium_limit(self):
        params = effective_parameters(0.2, 1.0, SPEC, 60.0)
        assert params.f_beta_t == pytest.approx(0.9, abs=1e-12)
        assert params.r_t == pytest.approx(0.0, abs=1e-10)

    def test_unit_time_value(self):
        params = effective_parameters(0.2, 1.0, SPEC, 1.0)
        assert params.f_beta_t == pytest.approx(F_BETA_AT_1, rel=1e-13)
        # same number as the passive occupation of the evolved state
        evolved = evolve_analytic(squeezed_thermal(0.2, 1.0), SPEC, 1.0)
        assert params.f_beta_t == pytest.approx(passive_occupation(evolved), rel=1e-13)

    def test_rotating_phase(self):
        params = effective_parameters(0.2, SqueezingParameter(1.0, 0.4), SPEC, 0.7)
        assert params.theta_t == pytest.approx(0.4 - 2.0 * SPEC.omega * 0.7, rel=1e-14)

    def test_consistency_with_evolved_covariance(self):
        rng = rng_for("effparam")
        for _ in range(150):
            nbar_pi = rng.uniform(0, 2)
            z = SqueezingParameter(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            spec = random_spec(rng)
            t = rng.uniform(0, 5)
            params = effective_parameters(nbar_pi, z, spec, t)
            evolved = evolve_analytic(squeezed_thermal(nbar_pi, z), spec, t)
            assert evolved.cov_det == pytest.approx(params.f_beta_t ** 2, rel=1e-10)
            assert evolved.symmetric_variance == pytest.approx(
                params.f_beta_t * math.cosh(2 * params.r_t), rel=1e-10
            )

    def test_delta_beta_bounds(self):
        rng = rng_for("deltabeta")
        for _ in range(100):
            nbar_pi = rng.uniform(0, 2)
            spec = random_spec(rng)
            params = effective_parameters(nbar_pi, 0.7, spec, rng.uniform(0, 5))
            lo = min(nbar_pi + 0.5, spec.f_beta)
            hi = max(nbar_pi + 0.5, spec.f_beta)
            assert lo - 1e-12 <= params.delta_beta <= hi + 1e-12

    def test_squeezing_beyond_float_range(self):
        # math.sinh(r) ** 2 and the seed's (nbar_pi + 1/2)^2 raised OverflowError
        with pytest.raises(ValueError, match="float range"):
            effective_parameters(0.2, 400, SystemBathSpec(nbar=0.4), 1.0)
        with pytest.raises(ValueError, match="float range"):
            effective_parameters(1e200, 1.0, SPEC, 1.0)

    def test_phase_beyond_float_range(self):
        # theta_t = -2 omega t was returned as -inf
        with pytest.raises(ValueError, match="exceeds float range"):
            effective_parameters(0.2, 1.0, SystemBathSpec(omega=1e200), 1e200)
        assert effective_parameters(0.2, 1.0, SystemBathSpec(omega=1e200), 1e100).theta_t == -2e300

    def test_finite_or_value_error_up_to_the_squeezing_limit(self):
        for r in np.linspace(0.0, _MAX_SQUEEZING, 120):
            for nbar_pi in (0.0, 0.2, 1e100):
                for t in (0.0, 1.0, 60.0):
                    try:
                        params = effective_parameters(nbar_pi, r, SPEC, t)
                    except ValueError:
                        continue
                    assert all(math.isfinite(value) for value in vars(params).values())


class TestSampleTrajectory:
    def test_grid_validation(self):
        state = thermal_state(0.2)
        with pytest.raises(ValueError):
            sample_trajectory(state, SPEC, [])
        with pytest.raises(ValueError):
            sample_trajectory(state, SPEC, [0.1, 0.2])
        with pytest.raises(ValueError):
            sample_trajectory(state, SPEC, [0.0, 0.2, 0.2])
        with pytest.raises(ValueError):
            sample_trajectory(state, SPEC, [0.0, np.inf])

    def test_equality_and_hash_are_identity(self):
        # a field-wise __eq__ over ndarray fields raised on ==, in and hash
        grid = [0.0, 0.5, 1.0]
        traj = sample_trajectory(squeezed_thermal(0.2, 1.0), SPEC, grid)
        other = sample_trajectory(squeezed_thermal(0.2, 1.0), SPEC, grid)
        assert traj == traj and traj != other
        assert traj in [other, traj] and traj not in [other]
        assert hash(traj) == hash(traj) and len({traj, other, traj}) == 2

    def test_bath_beyond_float_range_is_rejected(self):
        # the bath's (nbar + 1/2)^2 overflowed inside the core, giving -inf ergotropy
        with pytest.raises(ValueError, match="float range"):
            sample_trajectory(squeezed_thermal(0.2, 1.0), SystemBathSpec(1.0, 1.0, 1e300), [0.0, 1.0])
        traj = sample_trajectory(squeezed_thermal(0.2, 1.0), SystemBathSpec(1.0, 1.0, 1e150), [0.0, 1.0])
        assert np.all(np.isfinite(traj.ergotropy)) and np.all(traj.ergotropy >= 0.0)

    def test_large_squeezing_relaxes_to_finite_rows(self):
        # V^2 - |M|^2 of squeezed_thermal(0.2, 18.1) cancelled to a made-up det cov
        # of about 1e15, and relaxing it rounded below 0 (nan and -inf rows, later
        # InvalidStateError); lam (lam + 2|M|) keeps det cov = 0.49
        traj = sample_trajectory(squeezed_thermal(0.2, 18.1), SPEC, np.arange(501) * 0.01)
        assert all(np.all(np.isfinite(column)) for column in vars(traj).values())
        assert traj.f_beta_t[0] == pytest.approx(0.7, rel=1e-15)
        assert np.all(traj.erg_theta > 0.0) and np.all(np.diff(traj.erg_theta) < 0.0)

    def test_energy_beyond_float_range(self):
        # omega |<a>|^2 = 1e400 overflowed to inf and a numpy RuntimeWarning
        state = displaced_thermal(0.2, 1e100)
        with pytest.raises(ValueError, match="exceeds float range"):
            sample_trajectory(state, SystemBathSpec(omega=1e200), [0.0, 1.0])
        # omega V = 7e307 is a float, but the bath's omega f = 2e308, which V relaxes to, is not
        with pytest.raises(ValueError, match="exceeds float range"):
            sample_trajectory(thermal_state(0.2), SystemBathSpec(omega=1e308, nbar=1.5), [0.0, 1.0])
        traj = sample_trajectory(state, SystemBathSpec(omega=1e100), [0.0, 1.0])
        assert traj.erg_v[0] == pytest.approx(1e300, rel=1e-15)

    def test_thermal_never_charged(self):
        traj = sample_trajectory(thermal_state(0.2), SPEC, np.arange(501) * 0.01)
        assert np.all(traj.ergotropy == 0.0)
        assert np.all(traj.erg_v == 0.0)
        assert np.all(traj.erg_theta == 0.0)

    def test_displaced_charge_is_pure_exponential(self):
        tau = np.arange(501) * 0.01
        for nbar_pi in (0.0, 0.2, 1.1):
            traj = sample_trajectory(displaced_thermal(nbar_pi, 1.0), SPEC, tau)
            assert np.allclose(traj.ergotropy, np.exp(-tau), rtol=0.0, atol=1e-14)

    def test_squeezed_passive_energy_is_nonmonotone(self):
        tau = np.arange(501) * 0.01
        traj = sample_trajectory(squeezed_thermal(0.2, 1.0), SPEC, tau)
        peak = int(np.argmax(traj.e_passive))
        assert 0 < peak < len(tau) - 1
        assert traj.e_passive[peak] == pytest.approx(PASSIVE_MAX, abs=1e-5)
        assert tau[peak] == pytest.approx(PASSIVE_MAX_TAU, abs=0.011)

    def test_records_are_internally_consistent(self):
        rng = rng_for("trajcons")
        tau = np.arange(0, 201) * 0.025
        for _ in range(30):
            state = random_state(rng)
            spec = random_spec(rng)
            traj = sample_trajectory(state, spec, tau)
            assert np.allclose(traj.e_state - traj.e_passive, traj.ergotropy, rtol=1e-12, atol=1e-15)
            assert np.allclose(traj.erg_v + traj.erg_theta, traj.ergotropy, rtol=1e-12, atol=1e-13)

    def test_matches_pointwise_evolution(self):
        rng = rng_for("trajpoint")
        tau = np.arange(0, 101) * 0.05
        for _ in range(20):
            state = random_state(rng)
            spec = random_spec(rng)
            traj = sample_trajectory(state, spec, tau)
            k = int(rng.integers(0, tau.size))
            evolved = evolve_analytic(state, spec, tau[k] / spec.gamma)
            assert traj.e_state[k] == pytest.approx(mean_energy(evolved, spec), rel=1e-12)
            assert traj.ergotropy[k] == pytest.approx(ergotropy(evolved, spec), rel=1e-11, abs=1e-13)
            v_part, cov_part = ergotropy_split(evolved, spec)
            assert traj.erg_v[k] == pytest.approx(v_part, rel=1e-12, abs=1e-15)
            assert traj.erg_theta[k] == pytest.approx(cov_part, rel=1e-11, abs=1e-13)
            assert traj.wigner_entropy[k] == pytest.approx(wigner_entropy(evolved), rel=1e-12)

    def test_first_row_is_the_scalar_split(self):
        # one moment core serves the scalar split and the trajectory
        rng = rng_for("trajsplit")
        tau = np.arange(0, 11) * 0.1
        for _ in range(50):
            state = random_state(rng)
            spec = random_spec(rng)
            traj = sample_trajectory(state, spec, tau)
            assert (traj.erg_v[0], traj.erg_theta[0]) == ergotropy_split(state, spec)
            assert traj.e_state[0] == mean_energy(state, spec)

    def test_displaced_charge_independent_of_seed_temperature(self):
        tau = np.arange(0, 301) * 0.01
        cold = sample_trajectory(displaced_thermal(0.0, 0.8), SPEC, tau)
        hot = sample_trajectory(displaced_thermal(1.7, 0.8), SPEC, tau)
        assert np.allclose(cold.ergotropy, hot.ergotropy, rtol=0.0, atol=1e-13)

    def test_passive_dominance_of_squeezed_family(self):
        rng = rng_for("passdom")
        tau = np.arange(0, 201) * 0.025
        for _ in range(50):
            nbar_pi, nbar = rng.uniform(0, 2, size=2)
            r = rng.uniform(0.05, 1.5)
            mu = rng.uniform(0.05, 2.0)
            spec = SystemBathSpec(omega=1.0, gamma=1.0, nbar=nbar)
            squeezed = sample_trajectory(squeezed_thermal(nbar_pi, r), spec, tau)
            displaced = sample_trajectory(displaced_thermal(nbar_pi, mu), spec, tau)
            assert np.all(squeezed.e_passive >= displaced.e_passive - 1e-12)

    def test_monotone_energy_decay(self):
        tau = np.arange(0, 501) * 0.01
        # seeds hotter than the bath relax monotonically
        squeezed = sample_trajectory(squeezed_thermal(0.2, 1.0), SPEC, tau)
        displaced = sample_trajectory(displaced_thermal(0.2, 1.0), SPEC, tau)
        assert np.all(np.diff(squeezed.e_state) < 0)
        assert np.all(np.diff(displaced.e_state) < 0)
        # and the two state-energy curves keep their initial ordering
        assert np.all(squeezed.e_state > displaced.e_state)


class TestErgotropyRate:
    def test_stationary_thermal_all_zero(self):
        rate = ergotropy_rate(thermal_state(0.4), SPEC, 0.7)
        assert rate.rate == 0.0
        assert rate.flux == 0.0
        assert rate.entropy_term == 0.0

    def test_offtemperature_thermal_rate_vanishes(self):
        # a thermal seed stays thermal: zero rate, but heat flows
        rate = ergotropy_rate(thermal_state(0.1), SPEC, 0.3)
        assert rate.rate == pytest.approx(0.0, abs=1e-14)
        assert rate.flux == pytest.approx(-rate.entropy_term, rel=1e-12)
        assert rate.flux != 0.0

    def test_displaced_initial_rate(self):
        rate = ergotropy_rate(displaced_thermal(0.2, 1.0), SPEC, 0.0)
        assert rate.rate == pytest.approx(-1.0, rel=1e-12)
        # matched seed and bath temperature: no entropy contribution
        matched = ergotropy_rate(displaced_thermal(0.4, 1.0), SPEC, 0.0)
        assert matched.entropy_term == pytest.approx(0.0, abs=1e-14)

    def test_decomposition_identity(self):
        rng = rng_for("ratedecomp")
        for _ in range(100):
            state = random_state(rng)
            spec = random_spec(rng)
            rate = ergotropy_rate(state, spec, rng.uniform(0, 3))
            assert rate.rate == -rate.flux - rate.entropy_term

    def test_fig2_squeezed_rate_at_half_time(self):
        state = squeezed_thermal(0.2, 1.0)
        step = 1e-5
        rate = ergotropy_rate(state, SPEC, 0.5)
        fd = (
            ergotropy(evolve_analytic(state, SPEC, 0.5 + step), SPEC)
            - ergotropy(evolve_analytic(state, SPEC, 0.5 - step), SPEC)
        ) / (2 * step)
        assert abs(rate.rate - fd) <= 1e-6 * max(1.0, abs(rate.rate))

    def test_rate_matches_central_differences(self):
        rng = rng_for("ratefd")
        step = 1e-5
        for _ in range(100):
            state = random_state(rng)
            spec = random_spec(rng)
            t = rng.uniform(0.01, 3.0)
            rate = ergotropy_rate(state, spec, t)
            fd = (
                ergotropy(evolve_analytic(state, spec, t + step), spec)
                - ergotropy(evolve_analytic(state, spec, t - step), spec)
            ) / (2 * step)
            assert abs(rate.rate - fd) <= 1e-6 * max(1.0, abs(rate.rate))

    def test_large_squeezing_matches_central_differences(self):
        # the relaxing V^2 - |M|^2 of this seed cancelled to 0, a ZeroDivisionError
        state, spec, t, step = squeezed_thermal(0.2, 18.1), SystemBathSpec(nbar=0.4), 0.06, 1e-5
        rate = ergotropy_rate(state, spec, t)
        assert all(math.isfinite(value) for value in rate)
        fd = (
            ergotropy(evolve_analytic(state, spec, t + step), spec)
            - ergotropy(evolve_analytic(state, spec, t - step), spec)
        ) / (2 * step)
        assert abs(rate.rate - fd) <= 1e-6 * max(1.0, abs(rate.rate))

    def test_energy_beyond_float_range(self):
        # returned rate = -inf and flux = inf
        with pytest.raises(ValueError, match="exceeds float range"):
            ergotropy_rate(displaced_thermal(0.2, 1e100), SystemBathSpec(omega=1e200), 0.5)
        # each energy is a float, but gamma omega times one is not
        with pytest.raises(ValueError, match="exceeds float range"):
            ergotropy_rate(displaced_thermal(0.2, 1e10), SystemBathSpec(gamma=1e300), 0.0)

    def test_flux_matches_energy_derivative(self):
        rng = rng_for("fluxfd")
        step = 1e-5
        for _ in range(50):
            state = random_state(rng)
            spec = random_spec(rng)
            t = rng.uniform(0.01, 3.0)
            rate = ergotropy_rate(state, spec, t)
            fd_energy = (
                mean_energy(evolve_analytic(state, spec, t + step), spec)
                - mean_energy(evolve_analytic(state, spec, t - step), spec)
            ) / (2 * step)
            assert abs(rate.flux + fd_energy) <= 1e-6 * max(1.0, abs(rate.flux))

    def test_passive_flux_relation(self):
        # entropy term equals omega sqrt(det) dS/dt, i.e. minus the passive flux
        rng = rng_for("passiveflux")
        step = 1e-5
        for _ in range(100):
            state = random_state(rng)
            spec = random_spec(rng)
            t = rng.uniform(0.01, 3.0)
            rate = ergotropy_rate(state, spec, t)
            evolved = evolve_analytic(state, spec, t)
            fd_entropy = (
                wigner_entropy(evolve_analytic(state, spec, t + step))
                - wigner_entropy(evolve_analytic(state, spec, t - step))
            ) / (2 * step)
            predicted = spec.omega * passive_occupation(evolved) * fd_entropy
            assert abs(rate.entropy_term - predicted) <= 1e-6 * max(1.0, abs(predicted))
