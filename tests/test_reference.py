"""Squeezed seeds against a stdlib decimal reference, across the squeezing range.

V - |M| of a squeezed seed is f_pi e^{-2r}, about 1e-307 V at r = 177, so
a double-precision check cannot see whether the code cancels it; the
reference in helpers keeps 420 digits instead.
"""

import numpy as np
import pytest

from ergoflow import (
    SystemBathSpec,
    crossing_report,
    effective_parameters,
    equal_charge_amplitude,
    ergotropy,
    evolve_analytic,
    passive_occupation,
    sample_trajectory,
    squeezed_thermal,
)
from ergoflow.mpemba import _TAU_MAX

from helpers import reference_crossing, reference_squeezed, relative_error

# Worst measured relative error of the scan is 6.7e-16 (erg_theta at
# r = 1e-8, nbar_pi = 0, tau = 3); the bound leaves a factor of 3 for other
# libm builds.
REFERENCE_RTOL = 2e-15
SPEC = SystemBathSpec(omega=1.0, gamma=1.0, nbar=0.4)
TAUS = (0.0, 0.3, 3.0, 30.0)
# 1e-8 up to where 3.5 cosh 2r, the hottest seed's V, still has a float square
R_VALUES = tuple(float(r) for r in np.geomspace(1e-8, 177.0, 31))


@pytest.mark.parametrize("nbar_pi", [0.0, 0.2, 3.0])
def test_relaxing_squeezed_seed_matches_reference(nbar_pi):
    errors = {}
    for r in R_VALUES:
        state = squeezed_thermal(nbar_pi, r)
        traj = sample_trajectory(state, SPEC, TAUS)
        for k, tau in enumerate(TAUS):
            v, m, f_t, r_t = reference_squeezed(nbar_pi, r, SPEC.nbar, tau)
            evolved = evolve_analytic(state, SPEC, tau)
            checks = {
                "f_beta_t": (traj.f_beta_t[k], f_t),
                "e_passive": (traj.e_passive[k], f_t),
                "erg_theta": (traj.erg_theta[k], v - f_t),
                "r_t": (traj.r_t[k], r_t),
                "ergotropy(state)": (ergotropy(evolved, SPEC), v - f_t),
                "passive_occupation": (passive_occupation(evolved), f_t),
                "effective f_beta_t": (effective_parameters(nbar_pi, r, SPEC, tau).f_beta_t, f_t),
            }
            for name, (value, reference) in checks.items():
                errors[(name, r, tau)] = relative_error(value, reference)
    worst = max(errors, key=errors.get)
    assert errors[worst] <= REFERENCE_RTOL, worst


@pytest.mark.parametrize("nbar_pi", [0.0, 0.2, 3.0])
def test_crossings_match_reference(nbar_pi):
    # mu = 1 crosses from r of about 1 on, half the equal-charge amplitude at
    # every r; only crossings inside the oracle's window are compared
    compared = 0
    for r in R_VALUES:
        for mu in (1.0, 0.5 * equal_charge_amplitude(r, nbar_pi)):
            tau_c = reference_crossing(r, mu, nbar_pi, SPEC.nbar)
            if tau_c is None or not 0.0 < tau_c < _TAU_MAX:
                continue
            report = crossing_report(r, mu, nbar_pi, SPEC.nbar)
            assert report.exists, (r, mu)
            assert relative_error(report.tau_c_numeric, tau_c) <= REFERENCE_RTOL, (r, mu)
            v, _, f_pi, _ = reference_squeezed(nbar_pi, r, SPEC.nbar, 0.0)
            assert relative_error(report.erg0_squeezed, v - f_pi) <= REFERENCE_RTOL, (r, mu)
            compared += 1
    assert compared >= 30


# Machine epsilon; near the equal-charge boundary the crossing time is
# proportional to the charge gap eps, so an input rounding of mu moves it by
# about epsilon / eps relative.  Measured worst: 0.4 epsilon / eps for the
# oracle and 0.6 epsilon / eps for the closed form.
EPSILON = 2.2e-16


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-11])
def test_crossings_near_equal_charge_match_reference(eps):
    mu = equal_charge_amplitude(1.0, 0.2) * (1.0 - eps)
    tau_c = reference_crossing(1.0, mu, 0.2, SPEC.nbar)
    report = crossing_report(1.0, mu, 0.2, SPEC.nbar)
    assert report.exists
    assert relative_error(report.tau_c_numeric, tau_c) <= 4.0 * EPSILON / eps
    assert relative_error(report.tau_c_closed, tau_c) <= 4.0 * EPSILON / eps
