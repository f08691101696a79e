import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from dropcoil.asymptotics import (GRAND_COMBINATION_EXACT, even_homogeneous,
                                  ia_slope_check, l0_apply, phi_correction,
                                  phi_first_order, sech, sech_moments,
                                  theta_apply, variation_of_parameters, x0, x0_kernel)
from dropcoil.errors import DomainError
from dropcoil.profile import build_chart, profile_scan


def test_sech_moment_table():
    # the fixed Gauss-Legendre rule meets the closed forms to rounding (1.1e-16)
    table = sech_moments()
    assert table.max_error() < 1e-14
    assert abs(table.grand_combination - GRAND_COMBINATION_EXACT) < 1e-13


def test_l0_annihilates_kernel_and_phi():
    t = np.linspace(0, 12, 4001)
    r_kernel = l0_apply(t, x0_kernel(t))
    assert np.max(np.abs(r_kernel[5:-5])) < 1e-6
    r_phi = l0_apply(t, phi_first_order(t)) + 2 * x0(t)
    assert np.max(np.abs(r_phi[5:-5])) < 1e-6
    assert phi_first_order(0.0) == pytest.approx(-1.0)


def test_theta_zero():
    t = np.linspace(0, 12, 2001)
    assert np.max(np.abs(theta_apply(np.zeros_like(t), t))) == 0.0


def test_variation_of_parameters_exact():
    # kernel sin of psi'' + psi: the zero-data solution for f = 1 is 1 - cos t
    for n, tol in ((31, 1e-12), (301, 1e-14)):
        t = np.linspace(0.0, 3.0, n)
        psi = variation_of_parameters(t, np.ones_like, np.sin)
        assert np.max(np.abs(psi - (1.0 - np.cos(t)))) < tol
    with pytest.raises(DomainError, match="starting at t = 0"):
        variation_of_parameters(np.linspace(0.1, 3.0, 31), np.ones_like, np.sin)


def test_theta_solves_l0():
    t = np.linspace(0, 12, 4001)
    psi = theta_apply(sech(t) ** 2, t)
    # independent oracle: integrate the IVP
    def rhs(s, y):
        return (y[1], y[0] - 6 * sech(s) ** 2 * y[0] + sech(s) ** 2)

    sol = solve_ivp(rhs, (0, 12), (0.0, 0.0), method="DOP853",
                    rtol=1e-13, atol=1e-14, dense_output=True)
    ref = sol.sol(t)[0]
    assert np.max(np.abs(psi - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-6
    # discrete residual where the solution is O(1)
    keep = t <= 6.0
    resid = (l0_apply(t, psi) - sech(t) ** 2)[keep]
    assert np.max(np.abs(resid[5:])) < 1e-6


def test_theta_output_regularity_bound():
    # ||Theta(h)|| and its first two difference quotients bounded by C ||h||
    # with one C across input shapes (compact window [0, 5])
    t = np.linspace(0, 5, 2001)
    dt = t[1] - t[0]
    shapes = [np.ones_like(t), sech(t) ** 2, np.cos(3 * t), np.tanh(t)]
    consts = []
    for h in shapes:
        psi = theta_apply(h, t)
        d1 = np.gradient(psi, dt)
        d2 = np.gradient(d1, dt)
        norm = max(np.max(np.abs(psi)), np.max(np.abs(d1)), np.max(np.abs(d2)))
        consts.append(norm / np.max(np.abs(h)))
    assert max(consts) < 100.0


def test_theta_reproduces_phi_after_offset_matching():
    # Theta has zero initial conditions while phi(0) = -1; the bridge is the
    # even homogeneous solution of L0
    t = np.linspace(0, 12, 4001)
    got = theta_apply(-2 * x0(t), t)
    bridge = phi_first_order(t) + even_homogeneous(t)
    scale = np.maximum(np.abs(bridge), 1.0)
    assert np.max(np.abs(got - bridge) / scale) < 1e-6


def test_phi_correction_bound_and_contraction():
    consts = []
    for a in (0.05, 0.02, 0.01):
        exp = phi_correction(a)
        consts.append(exp.bound_constant)
        assert exp.phia[0] == pytest.approx(0.0, abs=1e-12)
        dt = exp.tgrid[1] - exp.tgrid[0]
        assert abs(exp.phia[1] - exp.phia[0]) / dt < 1e-4  # phi_a'(0) ~ 0
        assert all(r < 1.0 for r in exp.ratio_history[-3:])
    assert max(consts) / min(consts) < 2.0  # C stable across a


def test_phi_correction_domain():
    with pytest.raises(DomainError):
        phi_correction(0.2)


def test_reconstruction_against_chart():
    a = 0.02
    exp = phi_correction(a)
    chart = build_chart(a)
    xs = CubicSpline(chart.tgrid, chart.x)
    keep = exp.tgrid <= 5.0
    err = np.max(np.abs(exp.reconstruct_x()[keep] - xs(exp.tgrid[keep])))
    assert err < a**3  # the computed remainder solves the full equation


def test_ia_slope():
    fit = ia_slope_check(profile_scan([0.002, 0.005, 0.01]))
    assert 1.9 <= fit.slope <= 2.1
    assert abs(fit.intercept) < 1e-3
    assert fit.curvature < 50.0  # quadratic remainder stays bounded


def test_ia_slope_needs_points():
    with pytest.raises(DomainError):
        ia_slope_check([(0.002, 0.004)])
