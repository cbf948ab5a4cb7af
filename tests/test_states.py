"""Static Gaussian-state quantities: construction, entropies, energies, ergotropy."""

import math

import numpy as np
import pytest

from ergoflow import (
    GaussianState,
    InvalidStateError,
    SystemBathSpec,
    displaced_thermal,
    ergotropy,
    ergotropy_split,
    evaluate_wigner,
    mean_energy,
    passive_occupation,
    passive_state,
    random_state,
    relative_wigner_entropy,
    squeezed_displaced_thermal,
    squeezed_thermal,
    thermal_state,
    wigner_entropy,
)
from ergoflow.oracles import quadrature

from helpers import moments_close, rng_for

SPEC = SystemBathSpec(omega=1.0, gamma=1.0, nbar=0.4)

# oracle-computed closed-form values, frozen
K_THERMAL_07_09 = 0.02909220605868379  # ln(0.81/0.49)/2 + 0.7/0.9 - 1
E_SQUEEZED = 2.6335369837585416  # 0.7 cosh 2
ERG_SQUEEZED = 1.9335369837585419  # 0.7 (cosh 2 - 1)
VACUUM_ENTROPY = 1.4515827052894545  # ln(pi) + 1 - ln 2


class TestConstruction:
    def test_from_moments_round_trip(self):
        state = GaussianState.from_moments(0.3 - 0.2j, 1.1, 0.4j)
        assert state.alpha_mean == 0.3 - 0.2j
        assert state.symmetric_variance == 1.1
        assert state.anomalous_variance == 0.4j
        assert state.cov[1, 0] == -0.4j

    def test_arrays_are_read_only(self):
        state = thermal_state(0.2)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ((1.0, 1.0 + 0.5j), ((0.7, 0), (0, 0.7))),  # mean not conjugate pair
            ((0, 0), ((0.7 + 0.1j, 0), (0, 0.7))),  # complex diagonal
            ((0, 0), ((0.8, 0), (0, 0.7))),  # unequal diagonal
            ((0, 0), ((0.7, 0.1), (0.2, 0.7))),  # off-diagonal not conjugate
            ((0, 0), ((0.3, 0), (0, 0.3))),  # below vacuum floor
            ((0, 0), ((0.7, 0.6), (0.6, 0.7))),  # det < 1/4
            ((np.nan, np.nan), ((0.7, 0), (0, 0.7))),  # non-finite
        ],
    )
    def test_invalid_states_rejected(self, mean, cov):
        # states are built from the moments only, so no raw (mean, cov) pair
        # makes one; test_invalid_moments_rejected covers the moment checks
        with pytest.raises(TypeError, match="from_moments"):
            GaussianState(mean, cov)
        with pytest.raises(TypeError, match="from_moments"):
            GaussianState()

    @pytest.mark.parametrize(
        "alpha, variance, anomalous",
        [
            (0, 0.7 + 0.1j, 0),  # complex V
            (complex(math.nan, 0.0), 0.7, 0),  # non-finite <a>
            (complex(0.0, math.inf), 0.7, 0),
            (0, math.nan, 0),  # non-finite V
            (0, math.inf, 0),
            (0, 0.7, complex(math.nan, 0.0)),  # non-finite M
            (0, 0.7, complex(0.0, -math.inf)),
            (0, 0.3, 0),  # below vacuum floor
            (0, 0.7, 0.6),  # det < 1/4
            (0, 0.7, 0.7),  # det = 0
        ],
    )
    def test_invalid_moments_rejected(self, alpha, variance, anomalous):
        with pytest.raises(InvalidStateError):
            GaussianState.from_moments(alpha, variance, anomalous)

    @pytest.mark.parametrize(
        "alpha, variance, anomalous",
        [
            (0, 1e200, 0),  # det = V^2 overflows
            (0, 1e300, 0.99e300),  # V^2 - |M|^2 is inf - inf
            (1e200, 0.7, 0),  # |<a>|^2 overflows
            (complex(1e154, 1e154), 0.7, 0),  # only the modulus overflows when squared
        ],
    )
    def test_moments_beyond_float_range(self, alpha, variance, anomalous):
        with pytest.raises(ValueError, match="float range") as excinfo:
            GaussianState.from_moments(alpha, variance, anomalous)
        assert not isinstance(excinfo.value, InvalidStateError)

    def test_factory_states_beyond_float_range(self):
        with pytest.raises(ValueError, match="float range"):
            squeezed_thermal(1e300, 0.1)
        with pytest.raises(ValueError, match="float range"):
            displaced_thermal(0.2, 1e200)
        # the largest representable scales still give finite energetics
        assert math.isfinite(ergotropy(displaced_thermal(0.2, 1e150), SPEC))
        assert ergotropy(thermal_state(1e150), SPEC) == 0.0

    @pytest.mark.parametrize("r", [3.84, 8.0])
    def test_strong_squeezing_is_accepted(self, r):
        # V^2 - |M|^2 of a squeezed vacuum cancelled below the bound 1/4 from
        # r = 3.84 on (det cov = 0.248 at r = 8), an InvalidStateError
        state = squeezed_thermal(0.0, r)
        assert passive_occupation(state) == pytest.approx(0.5, rel=2e-15)
        assert wigner_entropy(state) == pytest.approx(VACUUM_ENTROPY, rel=1e-15)

    def test_energy_beyond_float_range(self):
        # omega |<a>|^2 = 1e400 came back as inf
        state, spec = displaced_thermal(0.2, 1e100), SystemBathSpec(omega=1e200)
        for fn in (ergotropy, ergotropy_split, mean_energy):
            with pytest.raises(ValueError, match="exceeds float range"):
                fn(state, spec)
        assert ergotropy(state, SystemBathSpec(omega=1e100)) == pytest.approx(1e300, rel=1e-15)

    def test_arrays_are_built_from_the_moments(self):
        state = GaussianState.from_moments(0.3 - 0.2j, 1.1, 0.4 + 0.1j)
        cov = state.cov
        assert cov.dtype == np.complex128
        assert cov.tobytes() == np.array([[1.1, 0.4 + 0.1j], [0.4 - 0.1j, 1.1]]).tobytes()
        # each access builds a fresh array, so it cannot alias the state
        assert state.cov is not cov
        assert not cov.flags.writeable

    def test_repr_shows_the_moments(self):
        state = GaussianState.from_moments(0.5 - 0.25j, 1.2, 0.3j)
        assert repr(state) == "GaussianState(<a>=0.5-0.25j, V=1.2, M=0+0.3j)"

    def test_validation_tolerance_absorbs_roundoff(self):
        # an imaginary part of V at the 1e-12 scale must not reject a state
        state = GaussianState.from_moments(0, 0.7 + 1e-12j, 0.1)
        assert state.symmetric_variance == pytest.approx(0.7)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SystemBathSpec(omega=0.0)
        with pytest.raises(ValueError):
            SystemBathSpec(gamma=-1.0)
        with pytest.raises(ValueError, match="gamma must be positive"):
            SystemBathSpec(gamma=0.0)
        for name in ("omega", "gamma", "nbar"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SystemBathSpec(**{name: math.nan})
        with pytest.raises(ValueError):
            SystemBathSpec(nbar=-0.1)
        assert SystemBathSpec(nbar=0.4).f_beta == 0.9

    def test_spec_bath_beyond_float_range(self):
        with pytest.raises(ValueError, match="float range"):
            SystemBathSpec(nbar=1e300)  # (nbar + 1/2)^2 overflows
        assert SystemBathSpec(nbar=1e150).f_beta == 1e150

    def test_phase_point_validation(self):
        for alpha in (complex("inf"), complex(0.0, -math.inf), complex("nan")):
            with pytest.raises(ValueError, match="must be finite"):
                evaluate_wigner(thermal_state(0.2), alpha)


class TestWignerEntropy:
    def test_vacuum(self):
        assert wigner_entropy(thermal_state(0.0)) == pytest.approx(VACUUM_ENTROPY, rel=1e-15)

    def test_thermal(self):
        expected = math.log(math.pi) + 1.0 + math.log(0.9)
        assert wigner_entropy(thermal_state(0.4)) == pytest.approx(expected, rel=1e-15)

    def test_squeezing_preserves_entropy(self):
        # det cov is symplectic-invariant, so squeezing cannot change S
        th = thermal_state(0.2)
        assert wigner_entropy(squeezed_thermal(0.2, 1.0)) == pytest.approx(
            wigner_entropy(th), rel=1e-12
        )

    def test_mean_independent(self):
        assert wigner_entropy(displaced_thermal(0.2, 1.7 - 0.3j)) == wigner_entropy(
            thermal_state(0.2)
        )


class TestRelativeEntropy:
    def test_self_divergence_zero(self, ):
        rng = rng_for("kself")
        for _ in range(50):
            state = random_state(rng)
            assert relative_wigner_entropy(state, state) == 0.0

    def test_thermal_pair_value(self):
        value = relative_wigner_entropy(thermal_state(0.2), thermal_state(0.4))
        assert value == pytest.approx(K_THERMAL_07_09, rel=1e-13)

    def test_thermal_pair_quadrature(self):
        by_grid = quadrature.relative_entropy_quadrature(thermal_state(0.2), thermal_state(0.4))
        assert by_grid == pytest.approx(K_THERMAL_07_09, abs=1e-7)

    def test_displaced_vs_passive_value(self):
        state = displaced_thermal(0.2, 1.0)
        value = relative_wigner_entropy(state, passive_state(state))
        assert value == pytest.approx(1.0 / 0.7, rel=1e-13)

    def test_displaced_vs_passive_quadrature(self):
        state = displaced_thermal(0.2, 1.0)
        by_grid = quadrature.relative_entropy_quadrature(state, passive_state(state))
        assert by_grid == pytest.approx(1.0 / 0.7, abs=1e-7)

    def test_nonnegative_and_discriminating(self):
        rng = rng_for("kpairs")
        for _ in range(200):
            a, b = random_state(rng), random_state(rng)
            value = relative_wigner_entropy(a, b)
            assert value >= 0.0
            if not moments_close(a, b, 1e-8):
                assert value > 0.0

    def test_far_apart_means(self):
        # |delta|^2 = 1e308 is a float, and K = 0.7 |delta|^2 / 0.49 = 1e308 / 0.7
        # is too; both used to overflow, to inf and to OverflowError
        near = relative_wigner_entropy(displaced_thermal(0.2, 5e153), displaced_thermal(0.2, -5e153))
        assert near == pytest.approx(1e308 / 0.7, rel=1e-14)
        with pytest.raises(ValueError, match="float range"):
            relative_wigner_entropy(displaced_thermal(0.2, 1e154), displaced_thermal(0.2, -1e154))

    def test_huge_covariances(self):
        # det_b / det_a overflows, though K = ln(V_b / V_a) - 1 + V_a / V_b does not
        wide = thermal_state(1.3e154)
        expected = math.log(wide.symmetric_variance / 0.5) - 1.0
        assert relative_wigner_entropy(thermal_state(0.0), wide) == pytest.approx(expected, rel=1e-15)
        assert relative_wigner_entropy(wide, wide) == 0.0
        # opposite squeezing at V = 1e154: V_a V_b - Re(M_b M_a*) = 1.81e308 is a
        # float but twice it is not, and K = 1.81 / 0.19 - 1
        a = GaussianState.from_moments(0j, 1e154, -0.9e154)
        b = GaussianState.from_moments(0j, 1e154, 0.9e154)
        assert relative_wigner_entropy(a, b) == pytest.approx(1.81 / 0.19 - 1.0, rel=1e-12)


class TestEnergyAndPassive:
    def test_vacuum_energy(self):
        assert mean_energy(thermal_state(0.0), SPEC) == pytest.approx(0.5, rel=1e-15)

    def test_displaced_thermal_energy(self):
        assert mean_energy(displaced_thermal(0.2, 1.0), SPEC) == pytest.approx(1.7, rel=1e-14)

    def test_squeezed_thermal_energy(self):
        assert mean_energy(squeezed_thermal(0.2, 1.0), SPEC) == pytest.approx(
            E_SQUEEZED, rel=1e-14
        )

    def test_energy_floor(self):
        rng = rng_for("efloor")
        for _ in range(200):
            state = random_state(rng)
            assert mean_energy(state, SPEC) >= 0.5 * SPEC.omega

    def test_passive_occupation_thermal(self):
        assert passive_occupation(thermal_state(0.4)) == pytest.approx(0.9, rel=1e-15)

    def test_passive_occupation_squeezing_invariant(self):
        for r in (0.3, 1.0, 2.0):
            assert passive_occupation(squeezed_thermal(0.2, r)) == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("r", [9.0, 50.0, 170.0])
    def test_passive_occupation_at_strong_squeezing(self, r):
        # sqrt(V^2 - |M|^2) gave 0.612 at r = 9 and 1.2e35 at r = 50
        assert passive_occupation(squeezed_thermal(0.2, r)) == pytest.approx(0.7, rel=2e-15)

    def test_passive_state_of_thermal_is_itself(self):
        th = thermal_state(0.4)
        assert moments_close(passive_state(th), th, 1e-15)

    def test_passive_state_strips_displacement_and_squeezing(self):
        for state in (displaced_thermal(0.2, 1.0), squeezed_thermal(0.2, 1.0)):
            expected = thermal_state(0.2)
            assert moments_close(passive_state(state), expected, 1e-12)

    def test_entropy_equality_is_exact(self):
        rng = rng_for("sentropy")
        for _ in range(200):
            state = random_state(rng)
            assert wigner_entropy(passive_state(state)) == wigner_entropy(state)


class TestErgotropy:
    def test_thermal_is_passive(self):
        for nbar in (0.0, 0.2, 1.5):
            assert ergotropy(thermal_state(nbar), SPEC) == 0.0

    def test_displaced_thermal(self):
        assert ergotropy(displaced_thermal(0.2, 1.0), SPEC) == pytest.approx(1.0, rel=1e-13)

    def test_squeezed_thermal(self):
        assert ergotropy(squeezed_thermal(0.2, 1.0), SPEC) == pytest.approx(
            ERG_SQUEEZED, rel=1e-13
        )

    def test_route_equivalence(self):
        rng = rng_for("routes")
        for _ in range(200):
            state = random_state(rng)
            value = ergotropy(state, SPEC)
            direct = mean_energy(state, SPEC) - SPEC.omega * passive_occupation(state)
            assert abs(value - direct) <= 1e-12 * max(1.0, value)
            # the paper's identity E_erg = omega f_pi K[W || W_pi], a separate route
            f_pi = passive_occupation(state)
            paper = SPEC.omega * f_pi * relative_wigner_entropy(state, passive_state(state))
            assert abs(paper - value) <= 1e-12 * value

    def test_zero_iff_thermal(self):
        rng = rng_for("zerotherm")
        for _ in range(100):
            state = random_state(rng)
            is_thermal = (
                abs(state.alpha_mean) < 1e-12 and abs(state.anomalous_variance) < 1e-12
            )
            if not is_thermal:
                assert ergotropy(state, SPEC) > 0.0

    def test_scalars_depend_only_on_moduli(self):
        # rotating the phases of <a> and M must not change any scalar output
        rng = rng_for("phases")
        for _ in range(100):
            base = random_state(rng)
            phi, psi = rng.uniform(0, 2 * math.pi, size=2)
            rotated = GaussianState.from_moments(
                base.alpha_mean * complex(math.cos(phi), math.sin(phi)),
                base.symmetric_variance,
                base.anomalous_variance * complex(math.cos(psi), math.sin(psi)),
            )
            assert ergotropy(rotated, SPEC) == pytest.approx(ergotropy(base, SPEC), rel=1e-12)
            assert wigner_entropy(rotated) == pytest.approx(wigner_entropy(base), rel=1e-12)
            assert mean_energy(rotated, SPEC) == pytest.approx(mean_energy(base, SPEC), rel=1e-12)
            assert passive_occupation(rotated) == pytest.approx(
                passive_occupation(base), rel=1e-12
            )


class TestErgotropySplit:
    def test_displaced_only(self):
        parts = ergotropy_split(displaced_thermal(0.2, 0.75), SPEC)
        assert parts[0] == pytest.approx(0.5625, rel=1e-14)
        assert parts[1] == 0.0

    def test_squeezed_only(self):
        parts = ergotropy_split(squeezed_thermal(0.2, 1.0), SPEC)
        assert parts[0] == 0.0
        assert parts[1] == pytest.approx(ERG_SQUEEZED, rel=1e-13)

    def test_composite_state(self):
        # mean of squeeze(displace(vacuum, 0.5), 0.5) is 0.5 e^{-1/2}, so the
        # displacement share is 0.25 e^{-1}; frozen from the closed forms and
        # confirmed by the spectral-reordering oracle in test_oracles
        parts = ergotropy_split(squeezed_displaced_thermal(0.0, 0.5, 0.5), SPEC)
        assert parts[0] == pytest.approx(0.09196986029286058, rel=1e-12)
        assert parts[1] == pytest.approx(0.27154031740762186, rel=1e-12)

    def test_split_sums_to_total(self):
        rng = rng_for("split")
        for _ in range(200):
            state = random_state(rng)
            total = ergotropy(state, SPEC)
            v_part, cov_part = ergotropy_split(state, SPEC)
            assert v_part >= 0.0 and cov_part >= 0.0
            assert abs(v_part + cov_part - total) <= 1e-12 * max(1.0, total)


class TestWignerDensity:
    def test_vacuum_peak(self):
        assert evaluate_wigner(thermal_state(0.0), 0j) == pytest.approx(
            2.0 / math.pi, rel=1e-15
        )

    def test_thermal_peak(self):
        assert evaluate_wigner(thermal_state(0.4), 0j) == pytest.approx(
            1.0 / (0.9 * math.pi), rel=1e-15
        )

    def test_displaced_center(self):
        assert evaluate_wigner(displaced_thermal(0.2, 1.0), 1.0 + 0j) == pytest.approx(
            1.0 / (0.7 * math.pi), rel=1e-15
        )

    def test_far_points(self):
        # the offset's square overflowed; the density there underflows to 0
        state = displaced_thermal(0.2, 1e154)
        assert evaluate_wigner(state, -1e154) == 0.0
        assert evaluate_wigner(state, complex(-1.7e308, 1.7e308)) == 0.0
        assert evaluate_wigner(thermal_state(0.2), 1e200) == 0.0
        assert evaluate_wigner(state, 1e154) == pytest.approx(1.0 / (0.7 * math.pi), rel=1e-15)

    def test_positive_everywhere(self):
        rng = rng_for("wpos")
        state = squeezed_displaced_thermal(0.3, 0.5 + 0.2j, 0.8)
        for _ in range(100):
            alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            assert evaluate_wigner(state, alpha) > 0.0

    def test_matches_grid_oracle(self):
        state = squeezed_displaced_thermal(0.2, 0.4 - 0.1j, 0.5)
        axis = np.linspace(-3.0, 3.0, 7)
        grid = np.exp(quadrature._log_density(state, axis[:, None], axis[None, :]))
        for i in (0, 3, 6):
            for j in (1, 5):
                assert grid[i, j] == pytest.approx(
                    evaluate_wigner(state, complex(axis[i], axis[j])), rel=1e-12
                )

    def test_normalization_by_quadrature(self):
        norm, energy, entropy = quadrature.norm_energy_entropy(displaced_thermal(0.2, 0.8), SPEC.omega)
        assert norm == pytest.approx(1.0, abs=1e-6)
        assert energy == pytest.approx(mean_energy(displaced_thermal(0.2, 0.8), SPEC), abs=1e-6)
        assert entropy == pytest.approx(wigner_entropy(displaced_thermal(0.2, 0.8)), abs=1e-6)
