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
    crossing_time_closed_form,
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


# Crossings whose sign change falls between two insignificant samples: near
# each one the relative gap moves by about _GAP_SIGNIFICANCE or less per scan
# step, so the first-flip rule counts no flip and the oracle bisects from the
# last sure sample to the first significantly negative one.  A hot seed on the
# default window (1.0e-13 per 0.01 step) and an ordinary seed on a fine window.
@pytest.mark.parametrize(
    "nbar_pi, nbar, eps, window",
    [(1e12, 0.0, 1e-11, ()), (0.2, 0.4, 1e-8, (1.56e-7, 1.56e-13))],
)
def test_crossings_between_insignificant_samples_match_reference(nbar_pi, nbar, eps, window):
    mu = equal_charge_amplitude(1.0, nbar_pi) * (1.0 - eps)
    tau_c = reference_crossing(1.0, mu, nbar_pi, nbar)
    report = crossing_report(1.0, mu, nbar_pi, nbar, None, *window)
    assert report.exists, report
    assert relative_error(report.tau_c_numeric, tau_c) <= 4.0 * EPSILON / eps
    assert relative_error(report.tau_c_closed, tau_c) <= 4.0 * EPSILON / eps



# Points off the closed form's plain ratio path.  Where |mu|^2 is below the
# smallest normal float, the ratio P / (2 |mu|^2 f) may be large, moderate or
# tiny, so the 1 in log(1 + ratio) may or may not matter; where |mu|^2 and f
# are near the top of float range, 2 |mu|^2 f overflows while the ratio is
# below 1; and where |mu|^2 is normal but P huge, the ratio itself overflows.
EDGE_RATIO_POINTS = [
    (1e-150, 1e-160, 0.0, 5e20),  # ratio about 0.1
    (1e-150, 1e-160, 0.0, 5e19),  # about 1
    (1e-150, 1e-160, 0.0, 5e18),  # about 10
    (1e-150, 1e-160, 0.0, 1e100),  # about 5e-81, where P / (2 f) underflows
    (1e-150, 1e-155, 0.2, 0.4),  # about 2e9
    (1.0, 1e-160, 0.2, 0.4),  # about 3e320, beyond float range
    (1.0, 5e-324, 0.2, 0.4),  # |mu|^2 underflows to 0
    (178.1, 1e77, 0.0, 1e154),  # squeezed seed 24 % ahead
    (178.0, 1e77, 0.0, 1e154),  # 1.6 % ahead
    (170, 1e-150, 0.2, 0.4),  # about 1e594, with |mu|^2 = 1e-300 normal
]


@pytest.mark.parametrize("point", EDGE_RATIO_POINTS)
def test_closed_form_off_the_plain_ratio_matches_reference(point):
    tau_c = reference_crossing(*point)
    value = crossing_time_closed_form(*point)
    assert value > 0.0
    assert relative_error(value, tau_c) <= 1e-12
    assert crossing_report(*point).tau_c_closed == value
