"""State constructors: thermal seeds, displacement, squeezing, composites."""

import cmath
import math
import random
import sys

import numpy as np
import pytest

from ergoflow import (
    SqueezingParameter,
    SystemBathSpec,
    displace,
    displaced_thermal,
    ergotropy,
    random_state,
    squeeze,
    squeezed_displaced_thermal,
    squeezed_thermal,
    thermal_state,
)
from ergoflow.factory import _MAX_SQUEEZING, _squeezed_seed

from helpers import moments_close, rng_for

SPEC = SystemBathSpec(omega=1.0, gamma=1.0, nbar=0.4)


def test_parameter_validation():
    with pytest.raises(ValueError, match="nbar_pi must be finite and nonnegative"):
        thermal_state(-0.1)
    with pytest.raises(ValueError, match="nbar_pi must be finite and nonnegative"):
        thermal_state(math.inf)
    with pytest.raises(ValueError):
        SqueezingParameter(-1.0)
    for r, theta in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="squeezing parameters must be finite"):
            SqueezingParameter(r, theta)
    with pytest.raises(ValueError, match="mu must be finite"):
        displace(thermal_state(0.2), complex("nan"))
    with pytest.raises(ValueError, match="mu must be finite"):
        displaced_thermal(0.2, complex(0.0, math.inf))
    assert thermal_state(0.4).symmetric_variance == 0.9


def test_thermal_state_families():
    vac = thermal_state(0.0)
    assert vac.symmetric_variance == 0.5 and vac.anomalous_variance == 0.0
    assert thermal_state(0.2).symmetric_variance == 0.7
    # bath-temperature seed reproduces the equilibrium energy 0.9 at omega 1
    assert thermal_state(0.4).symmetric_variance == 0.9


class TestDisplace:
    def test_covariance_untouched(self):
        rng = rng_for("dispcov")
        for _ in range(50):
            state = random_state(rng)
            moved = displace(state, 0.7 - 1.1j)
            assert moved.symmetric_variance == state.symmetric_variance
            assert moved.anomalous_variance == state.anomalous_variance
            assert moved.alpha_mean == state.alpha_mean + (0.7 - 1.1j)

    def test_charges_thermal_state(self):
        assert ergotropy(displace(thermal_state(0.2), 0.75), SPEC) == pytest.approx(
            0.5625, rel=1e-14
        )

    def test_inverse(self):
        state = thermal_state(0.3)
        round_trip = displace(displace(state, 0.4 + 0.9j), -0.4 - 0.9j)
        assert moments_close(round_trip, state, 1e-15)


class TestSqueeze:
    def test_thermal_covariance_values(self):
        state = squeeze(thermal_state(0.2), SqueezingParameter(1.0, 0.0))
        assert state.symmetric_variance == pytest.approx(2.6335369837585416, rel=1e-14)
        assert state.anomalous_variance == pytest.approx(-2.5388022854929133, rel=1e-14)
        assert state.cov_det == pytest.approx(0.49, rel=1e-12)

    def test_phase_enters_anomalous_variance(self):
        theta = 0.8
        state = squeeze(thermal_state(0.2), SqueezingParameter(1.0, theta))
        expected = -cmath.exp(1j * theta) * 0.7 * math.sinh(2.0)
        assert state.anomalous_variance == pytest.approx(expected, rel=1e-14)

    def test_zero_squeezing_is_identity(self):
        rng = rng_for("sq0")
        state = random_state(rng)
        assert moments_close(squeeze(state, 0.0), state, 1e-15)

    def test_opposite_phase_inverts(self):
        rng = rng_for("sqinv")
        for _ in range(50):
            state = random_state(rng)
            r, theta = rng.uniform(0.1, 1.5), rng.uniform(0, 2 * math.pi)
            round_trip = squeeze(squeeze(state, SqueezingParameter(r, theta)),
                                 SqueezingParameter(r, theta + math.pi))
            assert moments_close(round_trip, state, 1e-12)

    @pytest.mark.parametrize(
        "nbar_pi, r",
        [
            (0.2, 400.0),  # cosh 2r overflows
            (0.2, 200.0),  # V^2 overflows
            (1e100, 300.0),  # V itself overflows
        ],
    )
    def test_squeezing_beyond_float_range(self, nbar_pi, r):
        with pytest.raises(ValueError, match="float range"):
            squeezed_thermal(nbar_pi, r)

    def test_squeezed_seed_is_squeezed_thermal_bit_for_bit(self):
        # mpemba and effective_parameters read a squeezed thermal seed's
        # (V, |M|, lam) from _squeezed_seed: it must be squeezed_thermal's, bit
        # for bit, and refuse the same seeds, near r = 355.2, where cosh 2r
        # overflows, and near the r where V^2 does
        rng = random.Random(27)
        refused = 0
        for _ in range(3000):
            nbar_pi = rng.choice([0.0, rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-300.0, 300.0)])
            f_pi = nbar_pi + 0.5
            v_edge = 0.5 * math.acosh(max(1.0, math.sqrt(sys.float_info.max) / f_pi))
            r = rng.choice([
                rng.uniform(0.0, 360.0),
                10.0 ** rng.uniform(-10.0, 2.0),
                _MAX_SQUEEZING * (1.0 + rng.uniform(-1e-14, 1e-14)),
                v_edge * (1.0 + rng.uniform(-1e-14, 1e-14)),
            ])  # fmt: skip
            try:
                state = squeezed_thermal(nbar_pi, r)
            except ValueError:
                with pytest.raises(ValueError):
                    _squeezed_seed(f_pi, r)
                refused += 1
                continue
            expected = (state.symmetric_variance, abs(state.anomalous_variance), state._lam)
            assert _squeezed_seed(f_pi, r) == expected, (nbar_pi, r)
        assert 300 < refused < 2700

    def test_determinant_preserved(self):
        rng = rng_for("sqdet")
        for _ in range(200):
            state = random_state(rng)
            z = SqueezingParameter(rng.uniform(0, 1.0), rng.uniform(0, 2 * math.pi))
            squeezed = squeeze(state, z)
            assert squeezed.cov_det == pytest.approx(state.cov_det, rel=1e-12)

    def test_mean_follows_bogoliubov_map(self):
        rng = rng_for("sqmean")
        for _ in range(50):
            state = random_state(rng)
            r, theta = rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)
            squeezed = squeeze(state, SqueezingParameter(r, theta))
            expected = (
                math.cosh(r) * state.alpha_mean
                - cmath.exp(1j * theta) * math.sinh(r) * state.alpha_mean.conjugate()
            )
            assert squeezed.alpha_mean == pytest.approx(expected, rel=1e-13)


class TestComposite:
    def test_reduces_to_squeezed_thermal(self):
        composite = squeezed_displaced_thermal(0.2, 0.0, 1.0)
        assert moments_close(composite, squeezed_thermal(0.2, 1.0), 1e-15)

    def test_reduces_to_displaced_thermal(self):
        composite = squeezed_displaced_thermal(0.2, 1.0, 0.0)
        assert moments_close(composite, displaced_thermal(0.2, 1.0), 1e-15)

    def test_equals_squeeze_after_displace(self):
        composite = squeezed_displaced_thermal(0.1, 0.4 + 0.2j, SqueezingParameter(0.7, 1.3))
        manual = squeeze(displace(thermal_state(0.1), 0.4 + 0.2j), SqueezingParameter(0.7, 1.3))
        assert moments_close(composite, manual, 1e-15)

    def test_total_ergotropy_value(self):
        # frozen from the closed forms: |mean|^2 = 0.25 e^{-1}, covariance part
        # 0.5 (cosh 1 - 1); the Fock oracle confirms the same total
        total = ergotropy(squeezed_displaced_thermal(0.0, 0.5, 0.5), SPEC)
        assert total == pytest.approx(0.09196986029286058 + 0.27154031740762186, rel=1e-12)

    def test_ergotropy_decomposition_invariant(self):
        rng = rng_for("composite")
        for _ in range(200):
            nbar_pi = rng.uniform(0, 2)
            mu = rng.uniform(0, 2) * cmath.exp(2j * math.pi * rng.uniform())
            z = SqueezingParameter(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
            state = squeezed_displaced_thermal(nbar_pi, mu, z)
            f_pi = nbar_pi + 0.5
            expected = SPEC.omega * abs(state.alpha_mean) ** 2 + SPEC.omega * f_pi * (
                math.cosh(2 * z.r) - 1.0
            )
            assert ergotropy(state, SPEC) == pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_factory_outputs_always_valid(self):
        rng = rng_for("valid")
        for _ in range(300):
            state = random_state(rng)
            assert state.cov_det >= 0.25 - 1e-10
            assert state.symmetric_variance >= 0.5 - 1e-10
            assert np.isfinite(state.cov).all()

    def test_random_state_draws_are_the_five_uniform_calls(self):
        # random_state draws its five uniforms with one rng.random(5); that is five
        # rng.uniform(0, high) calls bit for bit, and leaves the generator where they do
        for seed in range(300):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                state = random_state(rng)
                occ = reference.uniform(0.0, 2.0)
                z = SqueezingParameter(reference.uniform(0.0, 1.5), reference.uniform(0.0, 2.0 * math.pi))
                mu = 2.0 * reference.uniform(0.0, 1.0) * cmath.exp(2j * math.pi * reference.uniform(0.0, 1.0))
                expected = squeezed_displaced_thermal(occ, mu, z)
                moments = [(s.alpha_mean, s.symmetric_variance, s.anomalous_variance) for s in (state, expected)]
                assert repr(moments[0]) == repr(moments[1])
            assert rng.random() == reference.random()
