"""The three independent verification routes: RK4 moments, Fock space, quadrature."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ergoflow import (
    GaussianState,
    SqueezingParameter,
    SystemBathSpec,
    displaced_thermal,
    evolve_analytic,
    mean_energy,
    passive_state,
    random_state,
    squeezed_displaced_thermal,
    squeezed_thermal,
    thermal_state,
    wigner_entropy,
)
from ergoflow.factory import _MAX_SQUEEZING
from ergoflow.oracles import fock, lyapunov, quadrature
from ergoflow.oracles.fock import (
    HERMITICITY_ATOL,
    CutoffError,
    FockDensityMatrix,
    annihilation,
    displacement_operator,
    fock_ergotropy,
    fock_gaussian_state,
    fock_lindblad_path,
    fock_moments,
    squeezing_operator,
)
from ergoflow.oracles.lyapunov import _rk4_path, convergence_order, rk4_moment_path

from helpers import literal_fock_path, literal_moment_path, random_spec, rng_for

SPEC = SystemBathSpec(omega=1.0, gamma=1.0, nbar=0.4)
THETA11_AT_1 = 1.53773261683512
ERG_SQUEEZED = 1.9335369837585419


class TestRK4Driver:
    def test_record_rules(self):
        def scalar_step(y, h):
            k1 = -y
            k2 = -(y + 0.5 * h * k1)
            k3 = -(y + 0.5 * h * k2)
            k4 = -(y + h * k3)
            return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        y0 = np.array([1.0, -0.75])
        records = list(_rk4_path(lambda y, out, _: np.negative(y, out=out), y0, 0.1, [0.0, 0.25, 0.25, 0.3]))
        assert len(records) == 4
        assert np.array_equal(records[0], y0) and records[0] is not y0
        assert np.array_equal(records[1], records[2])
        # two whole steps to 0.2, a shortened step to 0.25, another to 0.3
        expected = []
        for y in y0:
            for h in (0.1, 0.1, 0.25 - 0.2, 0.3 - 0.25):
                y = scalar_step(y, h)
            expected.append(y)
        assert np.array_equal(records[3], expected)

        snapshot = records[2].copy()
        records[1][:] = 99.0
        records[0][:] = 99.0
        assert np.array_equal(records[2], snapshot)
        assert np.array_equal(y0, [1.0, -0.75])

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_step(self, dt):
        with pytest.raises(ValueError):
            _rk4_path(lambda y, out, _: np.negative(y, out=out), np.ones(1), dt, [1.0])

    @pytest.mark.parametrize("times", [[-0.1], [math.nan], [math.inf], [0.5, 0.2]])
    def test_rejects_bad_record_times(self, times):
        with pytest.raises(ValueError):
            _rk4_path(lambda y, out, _: np.negative(y, out=out), np.ones(1), 0.1, times)

    @pytest.mark.parametrize("s", [-300, -100, 100, 300])
    def test_records_are_free_of_the_time_scale(self, s):
        # y' = rate y + forcing with rate and forcing times 2^s, stepped by dt times
        # 2^-s to times 2^-s: every product the step forms is scaled by an exact power
        # of two, so the records are unchanged as long as the record rule reads times
        # only relative to dt (an absolute floor on the shortened step would drop them at s > 0)
        rate, forcing = np.array([-0.5 - 1.3j, -2.0 + 0.25j]), np.array([0.2 + 0.1j, -0.7j])
        times = [0.0, 0.05, 0.25, 0.25, 0.3, 1.0]

        def path(scale):
            def rhs(y, out, _):
                np.add(np.multiply(rate * scale, y, out), forcing * scale, out)

            return list(_rk4_path(rhs, np.array([1.0 + 0.5j, -0.25j]), 0.1 / scale, [t / scale for t in times]))

        for scaled, plain in zip(path(2.0 ** s), path(1.0), strict=True):
            assert np.array_equal(scaled, plain)

    def test_overflow_is_a_value_error_at_the_first_non_finite_record(self):
        # a step of y' = 700 y multiplies y by about 1e6, so y leaves float range near t = 5
        records = _rk4_path(lambda y, out, _: np.multiply(700.0, y, out), np.ones(2), 0.1, [0.5, 10.0])
        first = next(records)
        assert np.all(np.isfinite(first))
        # the driver silences numpy only while it steps, not while the caller holds a record
        with pytest.raises(RuntimeWarning):
            np.multiply(first, 1e300)
        with pytest.raises(ValueError, match="RK4 overflowed before t = 10"):
            next(records)

    @pytest.mark.parametrize("oracle", ["moments", "fock"])
    def test_refuses_record_times_beyond_its_step_cap_before_stepping(self, monkeypatch, oracle):
        # past 2^53 steps of dt, t_now += dt no longer advances, so the run to t = 1e17
        # would never end; the driver must refuse it when called, before its first step.
        # Its records are never taken here, so the test ends at once either way
        real = lyapunov._rk4_path

        def unstepped(*args):
            real(*args)
            return iter(())

        monkeypatch.setattr(lyapunov, "_rk4_path", unstepped)
        monkeypatch.setattr(fock, "_rk4_path", unstepped)
        with pytest.raises(ValueError, match="more than 10000000 steps"):
            if oracle == "moments":
                rk4_moment_path([thermal_state(0.2)], SystemBathSpec(), 1.0, [1e17])
            else:
                fock_lindblad_path(fock_gaussian_state(0.2, dim=30), SPEC, [0.5, 1e17], 1.0)

    @pytest.mark.parametrize("dt, times", [(1.0, [1e7 * (1.0 + 2.0**-52)]), (5e-324, [1e300]), (0.1, [0.0, 1e300])])
    def test_step_cap_refuses_at_once(self, dt, times):
        with pytest.raises(ValueError, match="more than 10000000 steps"):
            _rk4_path(lambda y, out, _: np.negative(y, out=out), np.ones(1), dt, times)

    @pytest.mark.parametrize("gamma", [1e-300, 1.25, 1e100])
    def test_step_cap_admits_verifys_longest_runs(self, gamma):
        # verify admits up to 10^6 tau steps of --rk4-dt and --fock-dt, and runs them in raw
        # time, dt / gamma to tau / gamma; a record time of exactly 10^7 steps is also admitted
        def rhs(y, out, _):
            np.negative(y, out=out)

        _rk4_path(rhs, np.ones(1), 5e-6 / gamma, [0.5 / gamma, 5.0 / gamma])
        _rk4_path(rhs, np.ones(1), 3e-6 / gamma, [3.0 / gamma])
        _rk4_path(rhs, np.ones(1), 1.0, [1e7])


def _final_moments(state, spec, dt, t):
    """Raw mean and 2x2 covariance of one state integrated by RK4 to time t."""
    means, covs = rk4_moment_path([state], spec, dt, [t])
    return complex(means[0, 0]), covs[0, 0]


class TestLyapunovRK4:
    def test_thermal_fixed_point(self):
        thermal = thermal_state(SPEC.nbar)
        mean, cov = _final_moments(thermal, SPEC, 1e-3, 1.0)
        # every raw entry, so the structure (real equal diagonal, conjugate
        # off-diagonal) holds to 1e-12 as well
        assert abs(mean) <= 1e-12
        assert np.max(np.abs(cov - thermal.cov)) <= 1e-12

    def test_fig2_covariance_to_1e8(self):
        state = squeezed_thermal(0.2, 1.0)
        mean, cov = _final_moments(state, SPEC, 1e-4, 1.0)
        # the raw record is a covariance matrix to 1e-10: real and equal
        # diagonal entries, conjugate off-diagonal ones, and physical moments
        assert max(abs(cov[0, 0].imag), abs(cov[1, 1].imag), abs(cov[0, 0] - cov[1, 1])) <= 1e-10
        assert abs(cov[1, 0] - cov[0, 1].conjugate()) <= 1e-10
        GaussianState.from_moments(mean, cov[0, 0], cov[0, 1])
        assert abs(cov[0, 0] - THETA11_AT_1) <= 1e-8
        exact = evolve_analytic(state, SPEC, 1.0)
        assert np.max(np.abs(cov - exact.cov)) <= 1e-8

    def test_error_drops_sixteenfold_when_halving_dt(self):
        state = squeezed_displaced_thermal(0.2, 0.8, SqueezingParameter(1.0, 0.4))
        exact = evolve_analytic(state, SPEC, 1.0).cov

        def error(dt):
            return np.max(np.abs(_final_moments(state, SPEC, dt, 1.0)[1] - exact))

        ratio = error(0.02) / error(0.01)
        assert 13.0 <= ratio <= 19.0

    def test_convergence_order_near_four(self):
        state = squeezed_displaced_thermal(0.2, 0.8, SqueezingParameter(1.0, 0.4))
        order = convergence_order(state, SPEC, 1.0, [0.04, 0.02, 0.01, 0.005])
        assert order == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize(
        "dts", [[0.04], [0.04, 0.04], [], [0.04, 0.0], [0.04, -0.02], [0.04, math.nan], [0.04, math.inf]]
    )
    def test_convergence_order_needs_two_distinct_steps(self, dts):
        state = squeezed_displaced_thermal(0.2, 0.8, SqueezingParameter(1.0, 0.4))
        with pytest.raises(ValueError, match="step sizes"):
            convergence_order(state, SPEC, 1.0, dts)

    @pytest.mark.parametrize("nbar", [0.0, 0.25, 1.0])
    def test_convergence_order_undefined_at_the_fixed_point(self, nbar):
        # RK4 keeps the thermal state exactly, so every error is 0
        with pytest.raises(ValueError, match="undefined"):
            convergence_order(thermal_state(nbar), SystemBathSpec(nbar=nbar), 1.0, [0.04, 0.02, 0.01])

    def test_batch_path_matches_single_calls(self):
        rng = rng_for("rkbatch")
        states = [random_state(rng) for _ in range(4)]
        times = [0.3, 1.1]
        means, covs = rk4_moment_path(states, SPEC, 1e-3, times)
        assert means.shape == (2, 4) and covs.shape == (2, 4, 2, 2)
        for ti, t in enumerate(times):
            for si, state in enumerate(states):
                mean, cov = _final_moments(state, SPEC, 1e-3, t)
                assert abs(means[ti, si] - mean) <= 1e-12
                assert np.max(np.abs(covs[ti, si] - cov)) <= 1e-12

    def test_batch_rows_equal_single_state_records(self):
        # each state's coefficients are tiled along the raveled batch, so a
        # row must not see another state's moments or rates
        rng = rng_for("rkrows")
        specs = [random_spec(rng) for _ in range(7)]
        states = [random_state(rng) for _ in range(7)]
        # 0.2345 is not a multiple of dt, so a shortened step is taken
        times = [0.1, 0.2345]
        for spec in specs:
            means, covs = rk4_moment_path(states, spec, 1e-3, times)
            for si, state in enumerate(states):
                mean, cov = rk4_moment_path([state], spec, 1e-3, times)
                assert np.array_equal(means[:, si], mean[:, 0])
                assert np.array_equal(covs[:, si], cov[:, 0])

    def test_empty_record_times(self):
        # no records, like fock_lindblad_path's [], with the batch axis kept
        states = [thermal_state(0.2), squeezed_thermal(0.1, 0.5), displaced_thermal(0.0, 1.0)]
        means, covs = rk4_moment_path(states, SPEC, 1e-3, [])
        assert means.shape == (0, 3) and covs.shape == (0, 3, 2, 2)
        assert means.dtype == covs.dtype == complex
        assert fock_lindblad_path(fock_gaussian_state(0.2, dim=30), SPEC, []) == []

    def test_random_states_and_specs_match_analytic(self):
        rng = rng_for("rkrandom")
        for _ in range(5):
            spec = random_spec(rng)
            states = [random_state(rng) for _ in range(8)]
            taus = np.linspace(0.5, 5.0, 10)
            times = [float(t) for t in taus / spec.gamma]
            means, covs = rk4_moment_path(states, spec, 1e-3 / spec.gamma, times)
            worst = 0.0
            for ti, t in enumerate(times):
                for si, state in enumerate(states):
                    exact = evolve_analytic(state, spec, t)
                    worst = max(worst, float(np.max(np.abs(covs[ti, si] - exact.cov))))
                    worst = max(worst, abs(complex(means[ti, si]) - exact.alpha_mean))
            assert worst <= 1e-8

    def test_broken_noise_convention_is_detected(self):
        # dropping the gamma prefactor in the diffusion must show up loudly
        state = squeezed_thermal(0.2, 1.0)
        spec = SystemBathSpec(omega=1.0, gamma=0.5, nbar=0.4)
        wrong = literal_moment_path([state], spec, 1e-3, [2.0], omit_gamma_in_noise=True)[1][0, 0]
        exact = evolve_analytic(state, spec, 2.0)
        assert np.max(np.abs(wrong - exact.cov)) > 1e-2

    def test_elementwise_stepper_is_the_literal_ode(self):
        rng = rng_for("rkliteral")
        spec = random_spec(rng)
        states = [random_state(rng) for _ in range(6)]
        # 0.2345 is not a multiple of dt, so a shortened step is taken
        times = [0.0, 0.1, 0.2345, 0.2345, 0.5]
        means, covs = rk4_moment_path(states, spec, 1e-3, times)
        ref_means, ref_covs = literal_moment_path(states, spec, 1e-3, times)
        assert np.array_equal(means, ref_means)
        assert np.array_equal(covs, ref_covs)

    def test_unstable_step_overflows_loudly(self):
        state = squeezed_thermal(0.2, 1.0)
        with pytest.raises(ValueError):
            rk4_moment_path([state], SPEC, 5.0, [2000.0])

    def test_step_outside_the_stability_region_is_refused(self):
        # dt = 2.9 takes the rate -1 mode to z = -2.9, past -2.785: ten steps grow
        # the covariance to about 4e17 while staying finite
        with pytest.raises(ValueError, match="stability region"):
            rk4_moment_path([squeezed_thermal(0.2, 1.0)], SPEC, 2.9, [29.0])

    def test_stability_region_is_where_one_step_does_not_grow(self):
        # one step of y' = z y from y = 1 gives R(z); the region |R| <= 1 crosses
        # the imaginary axis at +-2 sqrt(2) i and the real axis near -2.785
        zs = [x + 1j * y for x in np.linspace(-3.0, 0.0, 31) for y in np.linspace(-3.0, 3.0, 61)]
        zs = [z for z in zs if z.real < 0.0] + [2.82j, -2.82j, 2.83j, -2.78, -2.79]
        for z in zs:
            rate = np.array(z)
            [y] = _rk4_path(lambda y, out, _: np.multiply(rate, y, out), np.array([1.0 + 0j]), 1.0, [1.0])
            assert lyapunov._rk4_stable(1.0, [z]) == (abs(y[0]) <= 1.0), z
        assert lyapunov._rk4_stable(1.0, [2.82j, -2.78, -1.0 - 2.0j, 0.0])
        assert not lyapunov._rk4_stable(1.0, [-1.0, 2.83j])
        # overflowing or non-finite steps count as unstable, without a warning
        for dt, z in ((1e300, 1e300j), (1.0, complex(math.nan, 0.0)), (1.0, complex(-math.inf, 0.0))):
            assert not lyapunov._rk4_stable(dt, [z])

    def test_moment_rates(self):
        # the mean decays at gamma/2 + i omega, C00 and C11 at gamma, C01 and C10 at gamma +- 2i omega
        spec = SystemBathSpec(omega=3.0, gamma=2.0, nbar=0.4)
        expected = [-0.5 - 1.5j, -1.0, -1.0 - 3.0j, -1.0 + 3.0j, -1.0]
        assert np.allclose(lyapunov._moment_rates(spec), expected, rtol=1e-15, atol=0.0)
        # in tau units, so a tiny gamma gives huge rates, not an overflow
        rates = lyapunov._moment_rates(SystemBathSpec(omega=1.0, gamma=1e-300, nbar=0.4))
        assert np.allclose(rates, [-0.5 - 1e300j, -1.0, -1.0 - 2e300j, -1.0 + 2e300j, -1.0], rtol=1e-15)


class TestFockOracle:
    def test_density_matrix_equality_and_hash_are_identity(self):
        # a field-wise __eq__ over ndarray fields raised on ==, in and hash
        rho, other = FockDensityMatrix(np.diag([0.75, 0.25])), FockDensityMatrix(np.diag([0.75, 0.25]))
        assert rho == rho and rho != other
        assert rho in [other, rho] and rho not in [other]
        assert hash(rho) == hash(rho) and len({rho, other, rho}) == 2

    def test_operator_algebra(self):
        a = annihilation(12)
        commutator = a @ a.conj().T - a.conj().T @ a
        # canonical commutator holds away from the truncation corner
        assert np.allclose(np.diag(commutator)[:-1], 1.0, atol=1e-12)
        d_op = displacement_operator(0.7 - 0.2j, 40)
        assert np.max(np.abs(d_op @ d_op.conj().T - np.eye(40))) <= 1e-10
        s_op = squeezing_operator(0.6, 1.1, 40)
        assert np.max(np.abs(s_op @ s_op.conj().T - np.eye(40))) <= 1e-10

    @pytest.mark.parametrize("mu", [0.7 - 0.2j, 1.0, 1.5 + 0.5j, 2.0])
    def test_displaced_vacuum_is_coherent(self, mu):
        # <n|D(mu)|0> = exp(-|mu|^2/2) mu^n / sqrt(n!) on the levels the
        # cutoff represents well; their columns stay orthonormal
        d_op = displacement_operator(mu, 60)
        n = np.arange(20)
        norms = np.sqrt([math.factorial(k) for k in n])
        expected = np.exp(-abs(mu) ** 2 / 2.0) * mu ** n / norms
        assert np.max(np.abs(d_op[:20, 0] - expected)) <= 1e-12
        block = d_op[:, :20]
        assert np.max(np.abs(block.conj().T @ block - np.eye(20))) <= 1e-12

    @pytest.mark.parametrize("r, theta", [(0.6, 1.1), (0.8, 0.3)])
    def test_squeezed_vacuum_closed_form(self, r, theta):
        # <2k|S(z)|0> = (-e^{i theta} tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)),
        # and the odd levels stay empty
        s_op = squeezing_operator(r, theta, 60)
        k = np.arange(10)
        weights = np.sqrt([math.factorial(2 * j) for j in k]) / [2.0**j * math.factorial(j) for j in k]
        expected = (-np.exp(1j * theta) * np.tanh(r)) ** k * weights / np.sqrt(np.cosh(r))
        assert np.max(np.abs(s_op[0:20:2, 0] - expected)) <= 1e-12
        assert np.max(np.abs(s_op[1:20:2, 0])) <= 1e-12

    def test_vacuum_density_matrix(self):
        rho = fock_gaussian_state(0.0, dim=20)
        expected = np.zeros((20, 20))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-14

    def test_validation_rejects_bad_matrices(self):
        good = np.diag([0.6, 0.4]).astype(complex)
        FockDensityMatrix(good)
        with pytest.raises(ValueError):
            FockDensityMatrix(np.array([[0.6, 0.3], [0.0, 0.4]], dtype=complex))
        with pytest.raises(ValueError):
            FockDensityMatrix(np.diag([0.9, 0.3]).astype(complex))
        with pytest.raises(ValueError):
            FockDensityMatrix(np.diag([1.1, -0.1]).astype(complex))
        # NaN fails every comparison and eigvalsh reads one triangle only
        half_nan = good.copy()
        half_nan[0, 1] = np.nan
        with pytest.raises(ValueError):
            FockDensityMatrix(half_nan)
        with pytest.raises(ValueError):
            FockDensityMatrix(np.full((2, 2), np.nan, dtype=complex))
        with pytest.raises(ValueError, match="square"):
            FockDensityMatrix(np.eye(2, 3, dtype=complex))

    def test_cutoff_inadequacy_is_loud(self):
        with pytest.raises(CutoffError):
            fock_gaussian_state(0.2, 0j, 1.0, 0.0, dim=10)

    @pytest.mark.parametrize("args", [(1e10,), (1e10, 0j, 0.1), (1e10, 0.5 + 0j)])
    def test_thin_thermal_tail_is_a_cutoff_error(self, args):
        # 1e10 quanta over 40 levels: the top levels hold about 1e-10 each, and all
        # but 4e-9 of the population lies beyond the cutoff; was a trace ValueError
        with pytest.raises(CutoffError, match="increase the cutoff"):
            fock_gaussian_state(*args, dim=40)

    @pytest.mark.parametrize("nbar", [0.0, 0.4, 3.0])
    def test_rhs_rates_are_the_eigenvalues_of_the_stepped_master_equation(self, nbar):
        dim = 7
        spec = SystemBathSpec(omega=1.7, gamma=0.6, nbar=nbar)
        rows, cols = fock._bands(dim)
        rhs = fock._rhs_factory(dim, rows, cols, spec)
        # the right-hand side's matrix on the band vector, column by column
        columns = []
        for unit in np.eye(rows.size, dtype=complex):
            out = np.empty_like(unit)
            rhs(unit, out, np.empty_like(unit))
            columns.append(out)
        expected = np.linalg.eigvals(np.array(columns).T) / spec.gamma
        rates = fock._rhs_rates(dim, spec)
        assert rates.shape == expected.shape
        # match each eigenvalue to its nearest rate
        assert max(np.min(np.abs(rates - z)) for z in expected) <= 1e-9 * np.max(np.abs(expected))
        assert max(np.min(np.abs(expected - z)) for z in rates) <= 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.2, complex(math.nan, 0.0)), "must be finite"),  # was the undisplaced thermal state
            ((0.2, 0j, math.nan), "must be finite"),  # was the unsqueezed thermal state
            ((math.nan,), "must be finite"),  # was built, then rejected as a matrix
            ((0.2, complex(math.inf, 0.0)), "must be finite"),  # was a numpy RuntimeWarning
            ((0.2, 0j, 0.5, math.inf), "must be finite"),
            ((0.2, 0j, -0.5), "nonnegative"),
            ((0.2, 0j, 0.0, 0.0, 0), "cutoff"),  # was numpy's zero-size message
            ((0.2, 0j, 0.0, 0.0, -3), "cutoff"),
            ((0.1, complex(1.5e308, 1.5e308), 0.0, 0.0, 10), "exceeds float range"),  # OverflowError
            # generators beyond float range: each was a RuntimeWarning, then a LinAlgError
            ((0.2, 0j, 1.7e308, 0.0, 3), "exceeds float range"),
            ((0.1, 1.5e308, 0.0, 0.0, 3), "exceeds float range"),
            # cosh 2r or |mu|^2 overflows: each was a CutoffError
            ((0.2, 0j, 400.0, 0.0, 3), "exceeds float range"),
            ((0.2, 0j, 1e300, 0.0, 3), "exceeds float range"),
            ((0.2, 1e200, 0.0, 0.0, 3), "exceeds float range"),
            ((0.2, complex(1e154, 1e154), 0.0, 0.0, 3), "exceeds float range"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_seed_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            fock_gaussian_state(*args)

    @pytest.mark.parametrize(
        "args", [(0.2, 0j, _MAX_SQUEEZING, 1.0, 3), (0.2, complex(9e153, 9e153), 0.3, 0.0, 3)]
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_generators_reach_the_cutoff_check(self, args):
        # the largest r and |mu| that the range check admits build their operators
        # without a warning, and too small a cutoff is then reported as such
        with pytest.raises(CutoffError, match="increase the cutoff"):
            fock_gaussian_state(*args)

    def test_thermal_state_is_stationary(self):
        rho0 = fock_gaussian_state(SPEC.nbar, dim=40)
        rho1 = fock_lindblad_path(rho0, SPEC, [1.0])[0]
        assert np.max(np.abs(np.diag(rho1.matrix).real - np.diag(rho0.matrix).real)) <= 1e-8

    def test_displaced_mean_decays_analytically(self):
        rho0 = fock_gaussian_state(0.2, 1.0, dim=60)
        rho1 = fock_lindblad_path(rho0, SPEC, [1.0])[0]
        expected = cmath.exp(-(1j * SPEC.omega + 0.5 * SPEC.gamma) * 1.0)
        assert abs(fock_moments(rho1)[0] - expected) <= 1e-6

    def test_moments_match_gaussian_carrier(self):
        rho = fock_gaussian_state(0.2, 0j, 1.0, 0.0, dim=60)
        evolved = fock_lindblad_path(rho, SPEC, [0.8])[0]
        exact = evolve_analytic(squeezed_thermal(0.2, 1.0), SPEC, 0.8)
        mean, symmetric, anomalous = fock_moments(evolved)
        assert abs(mean - exact.alpha_mean) <= 1e-6
        assert abs(symmetric - exact.symmetric_variance) <= 1e-4
        assert abs(anomalous - exact.anomalous_variance) <= 1e-4

    def test_ergotropy_of_thermal_vanishes(self):
        rho = fock_gaussian_state(0.4, dim=40)
        assert fock_ergotropy(rho, SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_ergotropy_of_first_excited_state(self):
        matrix = np.zeros((25, 25), dtype=complex)
        matrix[1, 1] = 1.0
        assert fock_ergotropy(FockDensityMatrix(matrix), SPEC) == pytest.approx(
            SPEC.omega, rel=1e-12
        )

    def test_squeezed_matches_closed_form(self):
        rho = fock_gaussian_state(0.2, 0j, 1.0, 0.0, dim=60)
        assert fock_ergotropy(rho, SPEC) == pytest.approx(ERG_SQUEEZED, abs=1e-4)

    def test_deviation_tightens_with_cutoff(self):
        reference = ERG_SQUEEZED

        def deviation(dim):
            rho = fock_gaussian_state(0.2, 0j, 1.0, 0.0, dim=dim)
            return abs(fock_ergotropy(rho, SPEC) - reference)

        assert deviation(80) < 0.1 * deviation(60)

    def test_composite_split_total(self):
        # definitional check of the state-derived composite ergotropy
        rho = fock_gaussian_state(0.0, 0.5, 0.5, 0.0, dim=60)
        expected = 0.09196986029286058 + 0.27154031740762186
        assert fock_ergotropy(rho, SPEC) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_path_rejects_bad_step(self, dt):
        # a single step across [0, 0.5] from this seed still yields a valid state
        rho0 = fock_gaussian_state(0.2, 0.5, dim=30)
        with pytest.raises(ValueError):
            fock_lindblad_path(rho0, SPEC, [0.5], dt=dt)

    def test_overflowing_step_is_a_value_error(self):
        # dt = 5 lies far outside RK4's stability region at cutoff 60: the path
        # overflows, which is reported as such and not as a numpy warning
        rho0 = fock_gaussian_state(0.2, 0j, 1.0, 0.0, 60)
        with pytest.raises(ValueError, match="RK4 overflowed before t = 200"):
            fock_lindblad_path(rho0, SPEC, [200.0], 5.0)

    @pytest.mark.parametrize(
        "seed",
        [(0.2, 0j, 0.8, 1.1), (0.1, 0.9 + 0.4j, 0.0, 0.0), (0.7, 0j, 0.0, 0.0)],
        ids=["squeezed", "displaced", "thermal"],
    )
    def test_raveled_stepper_is_the_literal_master_equation(self, seed):
        rho0 = fock_gaussian_state(*seed, dim=60)
        spec = random_spec(rng_for("fockliteral"))
        # 0.1234 is not a multiple of dt, so a shortened step is taken
        times = [0.0, 0.1234, 0.1234, 0.3]
        records = np.stack([rho.matrix for rho in fock_lindblad_path(rho0, spec, times, dt=1e-3)])
        assert np.array_equal(records, literal_fock_path(rho0.matrix, spec, 1e-3, times))

    @pytest.mark.parametrize(
        "seed",
        [(0.2, 0j, 0.8, 1.1), (0.1, 0.9 + 0.4j, 0.0, 0.0), (0.1, 0.6 - 0.3j, 0.5, 2.0)],
        ids=["squeezed", "displaced", "squeezed-displaced"],
    )
    def test_gaussian_state_is_the_hermitian_matrix_of_its_lower_triangle(self, seed):
        nbar_pi, mu, r, theta = seed
        rho = fock_gaussian_state(*seed, dim=60)
        # the product of the operators, before the upper triangle is replaced
        ratio = nbar_pi / (1.0 + nbar_pi)
        product = np.diag(ratio ** np.arange(60) / (1.0 + nbar_pi)).astype(complex)
        if mu:
            product = displacement_operator(mu, 60) @ product @ displacement_operator(mu, 60).conj().T
        if r:
            product = squeezing_operator(r, theta, 60) @ product @ squeezing_operator(r, theta, 60).conj().T
        assert not np.array_equal(product, product.conj().T)
        matrix = rho.matrix
        assert np.array_equal(matrix, matrix.conj().T)
        assert np.all(matrix.diagonal().imag == 0.0)
        assert np.array_equal(np.tril(matrix, -1), np.tril(product, -1))
        assert np.array_equal(matrix.diagonal().real, product.diagonal().real)
        # eigvalsh reads the lower triangle and the real diagonal only
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(product))

    @staticmethod
    def _perturbed_upper_triangle(rho):
        """rho with its upper triangle and the imaginary part of its diagonal moved within HERMITICITY_ATOL."""
        dim = rho.dim
        matrix = rho.matrix.copy()
        upper = np.triu_indices(dim, 1)
        noise = rng_for("fockupper").uniform(-0.4, 0.4, (2, upper[0].size)) * HERMITICITY_ATOL
        matrix[upper] += noise[0] + 1j * noise[1]
        matrix[np.diag_indices(dim)] += 0.4j * HERMITICITY_ATOL
        return FockDensityMatrix(matrix)

    def test_path_reads_only_the_lower_triangle(self):
        rho0 = fock_gaussian_state(0.1, 0.6 - 0.3j, 0.5, 2.0, dim=40)
        perturbed = self._perturbed_upper_triangle(rho0)
        assert not np.array_equal(perturbed.matrix, rho0.matrix)
        times = [0.0, 0.05, 0.1234]
        for a, b in zip(fock_lindblad_path(perturbed, SPEC, times), fock_lindblad_path(rho0, SPEC, times)):
            assert np.array_equal(a.matrix, b.matrix)

    def test_records_are_exactly_hermitian(self):
        rho0 = self._perturbed_upper_triangle(fock_gaussian_state(0.2, 0j, 0.8, 1.1, dim=40))
        for record in fock_lindblad_path(rho0, SPEC, [0.0, 0.05, 0.1234]):
            assert np.array_equal(record.matrix, record.matrix.conj().T)
            assert np.all(record.matrix.diagonal().imag == 0.0)

    @pytest.mark.parametrize(
        "seed",
        [(0.2, 0j, 1.0, 0.0), (0.4, 0j, 0.0, 0.0), (0.2, 1 + 0j, 0.0, 0.0)],
        ids=["squeezed", "thermal", "displaced"],
    )
    def test_record_at_zero_is_the_seed(self, seed):
        # verify's default seeds: the seed and each record are built by the same
        # band-to-matrix map, so the record at t = 0 is the seed bit for bit
        rho0 = fock_gaussian_state(*seed, dim=60)
        record = fock_lindblad_path(rho0, SystemBathSpec(nbar=0.4), [0.0])[0]
        assert record.matrix.tobytes() == rho0.matrix.tobytes()

    def test_records_stay_valid_along_path(self):
        rho0 = fock_gaussian_state(0.2, 0j, 1.0, 0.0, dim=60)
        taus = np.linspace(0.25, 1.5, 6)
        records = fock_lindblad_path(rho0, SPEC, [float(t) for t in taus])
        # FockDensityMatrix validation ran at every record; spot-check trace
        for record in records:
            assert abs(float(np.trace(record.matrix).real) - 1.0) <= 1e-6

    def test_path_builds_each_record_as_it_is_reached(self):
        # the bound lies between the measured peaks of a path that builds each
        # matrix as its record arrives (1.23 times the matrices' bytes) and of
        # one that holds every band vector until it builds any matrix (1.62)
        rho0 = fock_gaussian_state(0.2, 0j, 0.5, 0.0, dim=80)
        tracemalloc.start()
        try:
            records = fock_lindblad_path(rho0, SPEC, np.linspace(0.0, 0.05, 50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 50
        assert peak <= 1.4 * sum(record.matrix.nbytes for record in records)


def _meshgrid_reference(state_a, state_b, omega, extent, n):
    """The grid integrals on full np.meshgrid planes: (norm, energy, entropy) and relative entropy."""
    x = np.linspace(-extent, extent, n)
    re, im = np.meshgrid(x, x, indexing="ij")
    log_a = quadrature._log_density(state_a, re, im)
    log_b = quadrature._log_density(state_b, re, im)
    w = np.exp(log_a)

    def integrate(values):
        return float(np.trapezoid(np.trapezoid(values, x, axis=1), x))

    moments = (integrate(w), omega * integrate((re ** 2 + im ** 2) * w), integrate(-w * log_a))
    return moments, integrate(w * (log_a - log_b))


def _complex_log_density(state, re, im):
    """ln W through the complex displacement delta and conj(delta)^2, as the oracle once formed it."""
    delta = (re - state.alpha_mean.real) + 1j * (im - state.alpha_mean.imag)
    det = state.cov_det
    quad = (
        state.symmetric_variance * (delta.real ** 2 + delta.imag ** 2)
        - (state.anomalous_variance * np.conj(delta) ** 2).real
    ) / det
    return -math.log(math.pi * math.sqrt(det)) - quad


class TestQuadrature:
    def test_norm_energy_entropy_on_compact_states(self):
        states = (
            thermal_state(0.0),
            thermal_state(0.4),
            thermal_state(1.5),
            displaced_thermal(0.2, 1.0),
            squeezed_thermal(0.2, SqueezingParameter(0.5, 1.1)),
            squeezed_displaced_thermal(0.1, 0.8j, SqueezingParameter(0.4, 0.5)),
        )
        for state in states:
            norm, energy, entropy = quadrature.norm_energy_entropy(state, SPEC.omega)
            assert norm == pytest.approx(1.0, abs=1e-6)
            assert energy == pytest.approx(mean_energy(state, SPEC), abs=1e-6)
            assert entropy == pytest.approx(wigner_entropy(state), abs=1e-6)

    def test_wide_family_on_enlarged_grid(self):
        # the f <= 2, |mu| <= 2, r <= 1 family needs a wider window than the
        # default 6 to push the truncated tail mass below 1e-6
        rng = rng_for("quadwide")
        for _ in range(6):
            nbar_pi = rng.uniform(0, 1.5)
            mu = rng.uniform(0, 2.0) * cmath.exp(2j * math.pi * rng.uniform())
            z = SqueezingParameter(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
            state = squeezed_displaced_thermal(nbar_pi, mu, z)
            norm, energy, entropy = quadrature.norm_energy_entropy(
                state, SPEC.omega, extent=20.0, n=600
            )
            assert norm == pytest.approx(1.0, abs=1e-6)
            assert energy == pytest.approx(mean_energy(state, SPEC), abs=1e-6)
            assert entropy == pytest.approx(wigner_entropy(state), abs=1e-6)

    def test_relative_entropy_grid_agreement(self):
        rng = rng_for("quadrel")
        from ergoflow import relative_wigner_entropy

        for _ in range(5):
            a = squeezed_displaced_thermal(
                rng.uniform(0, 0.4), 0.6 * cmath.exp(2j * math.pi * rng.uniform()), rng.uniform(0, 0.5)
            )
            b = thermal_state(rng.uniform(0, 0.6))
            closed = relative_wigner_entropy(a, b)
            by_grid = quadrature.relative_entropy_quadrature(a, b, extent=8.0, n=500)
            assert by_grid == pytest.approx(closed, abs=1e-6)

    def test_broadcast_axes_match_meshgrid_bit_for_bit(self):
        a = squeezed_displaced_thermal(0.2, 0.5 - 0.3j, SqueezingParameter(0.3, 0.9))
        b = thermal_state(0.3)
        # 17 and 2 points a side fit in one row block
        for extent, n in ((6.0, 400), (5.0, 101), (3.0, 17), (3.0, 2)):
            moments, relative = _meshgrid_reference(a, b, 1.3, extent, n)
            assert quadrature.norm_energy_entropy(a, 1.3, extent, n) == moments
            assert quadrature.relative_entropy_quadrature(a, b, extent, n) == relative

    def test_row_block_log_density_is_real_and_small(self):
        # the complex form made four complex temporaries per block, a 7-block peak, each
        # above glibc's mmap threshold and so page-faulted afresh on every block
        state = squeezed_displaced_thermal(0.2, 0.5 - 0.3j, SqueezingParameter(0.3, 0.9))
        x = np.linspace(-6.0, 6.0, 400)
        re, im = x[: quadrature._ROW_BLOCK, None], x[None, :]
        block = quadrature._ROW_BLOCK * x.size * 8
        quadrature._log_density(state, re, im)
        tracemalloc.start()
        try:
            log_w = quadrature._log_density(state, re, im)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log_w.dtype == np.float64
        assert peak <= 3 * block

    def test_per_axis_log_density_is_the_complex_form(self):
        # both forms round a few terms no larger than max |ln W|, under 10^3 on these
        # grids, so they agree to a few ulps of 10^3, within 1e-12
        rng = rng_for("quadaxes")
        x = np.linspace(-6.0, 6.0, 400)
        re, im = np.meshgrid(x, x, indexing="ij")
        for _ in range(4):
            nbar_pi = rng.uniform(0.0, 0.5)
            mu = rng.uniform(0.3, 1.5) * cmath.exp(2j * math.pi * rng.uniform())
            z = SqueezingParameter(rng.uniform(0.2, 1.0), rng.uniform(0.1, 3.0))
            for state in (
                squeezed_thermal(nbar_pi, z),
                displaced_thermal(nbar_pi, mu),
                squeezed_displaced_thermal(nbar_pi, mu, z),
            ):
                reference = _complex_log_density(state, re, im)
                assert np.max(np.abs(reference)) < 1e3
                assert np.max(np.abs(quadrature._log_density(state, re, im) - reference)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_hot_state_forms_its_log_density_without_overflow(self):
        # the complex form's V |delta|^2, 1e340 here, overflowed though ln W is about
        # -|delta|^2 / V = -1e140; the fuzzer drew such states (V 1e68..1e119, |<a>| 1e98..1e140)
        state = displaced_thermal(1e100, 1e120)
        assert quadrature._log_density(state, np.zeros((1, 1)), np.zeros((1, 1)))[0, 0] == pytest.approx(-1e140)
        assert quadrature.norm_energy_entropy(state, n=8) == (0.0, 0.0, 0.0)
        assert quadrature.relative_entropy_quadrature(state, passive_state(state), n=8) == 0.0
        assert math.isfinite(quadrature.relative_entropy_quadrature(passive_state(state), state, n=8))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [0.0, 5.0])
    def test_log_density_below_float_range(self, r):
        # ln W falls below float range across the grid, where W is 0, so every integral
        # over W is 0; was an overflow warning and a nan entropy, 0 * -inf
        state = squeezed_displaced_thermal(0.0, 1e154, SqueezingParameter(r, 0.0))
        assert quadrature.norm_energy_entropy(state, n=8) == (0.0, 0.0, 0.0)
        assert quadrature.relative_entropy_quadrature(state, passive_state(state), n=8) == 0.0
        # ln W_b below float range where W_a is positive, with W_a large or about 1e-170:
        # the integral cannot be formed in floats; was inf, and a floor on ln W_b alone
        # would have made the second a finite lower bound
        for near in (passive_state(state), displaced_thermal(0.0, 20.0)):
            with pytest.raises(ValueError, match="float range"):
                quadrature.relative_entropy_quadrature(near, state, n=8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_sums_beyond_float_range_are_refused(self):
        # three points a side 9e153 apart: the integrand is about 1e308 at the mean of
        # state_a, and the trapezoid sums overflow; was an overflow warning, or inf
        with pytest.raises(ValueError, match="float range"):
            quadrature.relative_entropy_quadrature(displaced_thermal(0.0, 9e153), thermal_state(0.0), 9e153, 3)

    def test_energy_beyond_float_range_is_refused(self):
        # omega times the energy integral overflowed to an inf energy
        with pytest.raises(ValueError, match="float range"):
            quadrature.norm_energy_entropy(thermal_state(2.0), 1.7e308, 6.0, 8)

    @pytest.mark.parametrize(
        "extent, n",
        [
            (math.nan, 400),  # was nan
            (math.inf, 400),  # was nan
            (0.0, 400),  # was 0 from a zero-width grid
            (-6.0, 400),  # was the extent 6 grid walked backwards
            (6.0, 1),  # was 0 from a single point
            (6.0, 0),  # was 0 from an empty grid
            (6.0, -5),  # was numpy's linspace message
            (6.0, 400.0),  # was a TypeError
            (6.0, True),  # was 0, read as one point
            (1e200, 400),  # was nan: |alpha|^2 overflows at the grid's corners
            (1e154, 8),  # the same, 2 extent^2 just beyond float range
        ],
    )
    def test_invalid_grid_rejected(self, extent, n):
        state = thermal_state(0.3)
        with pytest.raises(ValueError, match="quadrature grid"):
            quadrature.norm_energy_entropy(state, 1.0, extent, n)
        with pytest.raises(ValueError, match="quadrature grid"):
            quadrature.relative_entropy_quadrature(state, state, extent, n)

    @pytest.mark.parametrize("omega", [math.inf, math.nan, -1.0, 0.0, 10**400])
    def test_invalid_omega_rejected(self, omega):
        # inf, nan and -1.0 gave an inf, nan or negative energy; 10**400 an OverflowError
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            quadrature.norm_energy_entropy(thermal_state(0.3), omega, 6.0, 8)
