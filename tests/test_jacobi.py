import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from conftest import random_symmetric_modes
from dropcoil.errors import GridMismatch, SingularSystem
from dropcoil.fields import (SymmetricField, cos_coeffs, cos_eval, graph_height,
                             on_axis_derivatives)
from dropcoil.jacobi import JacobiSolver
from dropcoil.profile import build_chart


# ---- SymmetricField ------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.randoms(use_true_random=False))
def test_field_symmetries(kmax, rnd):
    rng = np.random.default_rng(rnd.randint(0, 2**31))
    f = SymmetricField(kmax, 2.0, rng.standard_normal((kmax + 1, 17)))
    th = rng.uniform(0, 2 * np.pi, 7)
    t = rng.uniform(-6.0, 6.0, 7)
    v = f.evaluate(th, t)
    assert np.allclose(f.evaluate(np.pi - th, t), v, atol=1e-12)
    assert np.allclose(f.evaluate(th, -t), v, atol=1e-12)
    assert np.allclose(f.evaluate(th, t + 4.0), v, atol=1e-10)


def test_field_from_samples_roundtrip(solver03):
    rng = np.random.default_rng(7)
    f = random_symmetric_modes(solver03, 5, rng)
    samples = f.grid_values(ntheta=16)
    g, drop = SymmetricField.from_samples(samples, f.tau, kmax=5)
    assert drop < 1e-12
    assert np.max(np.abs(g.modes - f.modes[:6])) < 1e-12


def test_field_from_samples_reports_asymmetry(solver03):
    f = solver03.zero_field(kmax=2)
    samples = f.grid_values(ntheta=16)
    th = 2 * np.pi * np.arange(16) / 16
    samples += 0.25 * np.cos(th)[:, None]  # cos(theta) is not admissible
    _, drop = SymmetricField.from_samples(samples, f.tau, kmax=2)
    assert drop == pytest.approx(0.25, rel=1e-10)


def test_field_grid_mismatch(solver03):
    a = solver03.zero_field()
    b = SymmetricField(a.kmax, a.tau, np.zeros((a.kmax + 1, 5)))
    with pytest.raises(GridMismatch):
        _ = a + b


def test_cosine_series_derivatives():
    tau = 2.5
    t = np.linspace(0, tau, 33)
    v = np.cos(2 * np.pi * t / tau) + 0.3 * np.cos(3 * np.pi * t / tau)
    c = cos_coeffs(v)
    tq = np.linspace(0, tau, 101)
    exact = -(2 * np.pi / tau) * np.sin(2 * np.pi * tq / tau) \
        - 0.3 * (3 * np.pi / tau) * np.sin(3 * np.pi * tq / tau)
    assert np.max(np.abs(cos_eval(c, tq, tau, deriv=1) - exact)) < 1e-10


def test_on_axis_derivatives_match_differences(chart03, solver03):
    # y3 on both sides of 0: the cosine series is evaluated at negative t unfolded
    h = random_symmetric_modes(solver03, 4, np.random.default_rng(11))
    th = np.array([0.3, 1.2, 2.0, 4.4])[:, None]
    y3 = np.array([-0.9, -0.4, -0.05, 0.05, 0.4, 0.9])[None, :]
    e = 1e-4

    def f(dth, dy3):
        return on_axis_derivatives(h, chart03, th + dth, y3 + dy3, order=1)[0]

    h0, h_th, h_3, h_thth, h_th3, h_33 = on_axis_derivatives(h, chart03, th, y3)
    differences = [(h_th, (f(e, 0) - f(-e, 0)) / (2 * e)),
                   (h_3, (f(0, e) - f(0, -e)) / (2 * e)),
                   (h_thth, (f(e, 0) - 2 * h0 + f(-e, 0)) / e**2),
                   (h_th3, (f(e, e) - f(e, -e) - f(-e, e) + f(-e, -e)) / (4 * e * e)),
                   (h_33, (f(0, e) - 2 * h0 + f(0, -e)) / e**2)]
    for exact, fd in differences:
        assert exact.shape == (4, 6)
        assert np.max(np.abs(exact - fd)) < 1e-6 * np.max(np.abs(exact))


def test_graph_height_is_on_axis_derivatives_bitwise(chart03, solver03):
    # the normal graph's (h, h_3) from stored coefficients, without h_theta
    h = random_symmetric_modes(solver03, 4, np.random.default_rng(11))
    th = np.array([0.3, 1.2, 2.0, 4.4])[:, None]
    y3 = np.array([-0.9, -0.4, -0.05, 0.05, 0.4, 0.9])[None, :]
    got = graph_height(h.coeffs(), h.tau, chart03, th, y3)
    for order in (1, 2):
        want = on_axis_derivatives(h, chart03, th, y3, order=order)
        assert all(np.array_equal(g, w) for g, w in zip(got, (want[0], want[2])))


# ---- Jacobi operator ------------------------------------------------------

def test_kernel_fields_annihilated(solver03):
    res = solver03.kernel_residuals()
    assert res["nu2"] < 1e-6
    assert res["nu3"] < 1e-5
    # nu2 lies in the symmetric class; applying J keeps the residual tiny
    f = solver03.nu2_field()
    r = solver03.apply(f)
    assert r.norm_sup() / f.norm_sup() < 1e-6


def test_apply_jacobi_zero(solver03):
    z = solver03.zero_field()
    assert solver03.apply(z).norm_sup() == 0.0


def test_mode_decoupling_exact(solver03):
    f = solver03.zero_field(kmax=6)
    f.modes[3] = np.cos(2 * np.pi * solver03.t / solver03.tau)
    out = solver03.apply(f)
    others = np.delete(np.arange(7), 3)
    assert np.max(np.abs(out.modes[others])) == 0.0


def test_hbar_periodic_solution(solver03):
    assert solver03.int_hbar > 0
    resid = solver03.apply_mode(0, solver03.hbar) - 1.0
    assert np.max(np.abs(resid)) < 1e-6


def test_hbar_variation_of_parameters(chart03, solver03):
    # the zero-initial-condition object carries the pointwise properties
    tf, vals = solver03.hbar_variation_of_parameters()
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert np.min(vals) > -1e-10  # positive except at t = 0
    # it solves h'' + p h = x^2 with zero data: compare with an IVP
    a, q = 0.3, 0.3 * 0.7

    def rhs(t, y):
        x, xp, h, hp = y
        p = 2 * x * x + 2 * q * q / (x * x)
        return (xp, (1 - 2 * q) * x - 2 * x**3, hp, x * x - p * h)

    sol = solve_ivp(rhs, (0, tf[-1]), (1 - a, 0.0, 0.0, 0.0), method="DOP853",
                    rtol=1e-12, atol=1e-13, dense_output=True)
    ref = sol.sol(tf)[2]
    assert np.max(np.abs(vals - ref)) < 1e-8
    # periodic hbar differs from it by an even homogeneous solution
    hb = cos_eval(cos_coeffs(solver03.hbar), tf, solver03.tau)
    diff = hb - vals

    def rhs_h(t, y):
        x, xp, u, up = y
        p = 2 * x * x + 2 * q * q / (x * x)
        return (xp, (1 - 2 * q) * x - 2 * x**3, up, -p * u)

    solh = solve_ivp(rhs_h, (0, tf[-1]), (1 - a, 0.0, diff[0], 0.0), method="DOP853",
                     rtol=1e-12, atol=1e-13, dense_output=True)
    assert np.max(np.abs(diff - solh.sol(tf)[2])) < 1e-7


def test_cylinder_chart_is_singular():
    with pytest.raises(SingularSystem):
        JacobiSolver(build_chart(0.5), kmax=1, m=128)


def test_project_coeffs_examples(solver03):
    E1 = solver03.zero_field()
    E1.modes[0] = 1.0
    assert solver03.project_coeffs(E1) == pytest.approx((0.0, 1.0))
    E2 = solver03.nu2_field()
    c, d = solver03.project_coeffs(E2)
    assert (c, d) == pytest.approx((1.0, 0.0), abs=1e-12)
    E3 = solver03.zero_field()
    E3.modes[0] = 3.0
    E3.modes[1] = solver03.kernel.nu2
    c, d = solver03.project_coeffs(E3)
    assert (c, d) == pytest.approx((1.0, 3.0))


@settings(max_examples=10, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_project_coeffs_linearity(solver03, alpha, beta):
    rng = np.random.default_rng(11)
    E1 = random_symmetric_modes(solver03, 4, rng)
    E2 = random_symmetric_modes(solver03, 4, rng)
    c1, d1 = solver03.project_coeffs(E1)
    c2, d2 = solver03.project_coeffs(E2)
    c, d = solver03.project_coeffs(alpha * E1 + beta * E2)
    assert c == pytest.approx(alpha * c1 + beta * c2, abs=1e-9)
    assert d == pytest.approx(alpha * d1 + beta * d2, abs=1e-9)


def test_solve_projected_trivial(solver03):
    E1 = solver03.zero_field()
    E1.modes[0] = 1.0
    h, c, d = solver03.solve_projected(E1)
    assert h.norm_sup() < 1e-12 and (c, d) == pytest.approx((0.0, 1.0))
    E2 = solver03.nu2_field()
    h, c, d = solver03.solve_projected(E2)
    assert h.norm_sup() < 1e-12 and (c, d) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_solve_projected_random_residual(solver03):
    rng = np.random.default_rng(3)
    E = random_symmetric_modes(solver03, 6, rng)
    h, c, d = solver03.solve_projected(E)
    res = solver03.apply(h)
    target = E.modes.copy()
    target[1] -= c * solver03.kernel.nu2
    target[0] -= d
    scale = np.max(np.abs(E.modes))
    assert np.max(np.abs(res.modes - target)) < 1e-8 * scale
    # constraints hold exactly by construction
    assert abs(solver03.integral(h)) < 1e-10 * scale
    assert abs(solver03.integral_nu2(h)) < 1e-10 * scale
    # projections match the bordered coefficients
    cp, dp = solver03.project_coeffs(E)
    assert (cp, dp) == pytest.approx((c, d), abs=1e-9)
    # solvability: the projected right-hand side is nu_2-orthogonal
    proj = E.copy()
    proj.modes[1] -= c * solver03.kernel.nu2
    proj.modes[0] -= d
    assert abs(solver03.integral_nu2(proj)) < 1e-10 * scale


@pytest.mark.parametrize("kmax, m", [(4, 24), (6, 48)])  # the FAST and desk solvers
def test_solve_projected_matches_lu_reference_bitwise(kmax, m):
    # np.linalg.solve on each mode's system is LAPACK's getrf + getrs, the
    # arithmetic of scipy's lu_factor/lu_solve
    from scipy.linalg import lu_factor, lu_solve

    S = JacobiSolver(build_chart(0.3, 768), kmax=kmax, m=m)
    E = random_symmetric_modes(S, kmax, np.random.default_rng(m))
    h, c, d = S.solve_projected(E)
    border = (S.x2, S.x2 * S.kernel.nu2)  # bordering columns of k = 0 and 1
    for k in range(kmax + 1):
        A = S.D2 + np.diag(S.p - float(k * k))
        rhs = S.x2 * E.modes[k]
        if k < 2:
            A = JacobiSolver._bordered(A, border[k], S.w * border[k])
            rhs = np.r_[rhs, 0.0]
        sol = lu_solve(lu_factor(A), rhs)
        assert np.array_equal(h.modes[k], sol[:m + 1])
        if k < 2:
            assert sol[-1] == (c if k else d)
    hbar = lu_solve(lu_factor(S.D2 + np.diag(S.p)), S.x2)
    assert np.array_equal(S.hbar, hbar)


def test_solve_projected_bound_stable_under_refinement(chart03):
    rng = np.random.default_rng(5)
    ratios = []
    for m in (128, 256):
        S = JacobiSolver(chart03, kmax=6, m=m)
        E = random_symmetric_modes(S, 6, np.random.default_rng(5))
        h, _, _ = S.solve_projected(E)
        ratios.append(h.norm_sup() / E.norm_sup())
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.05


def test_self_adjointness(solver03):
    rng = np.random.default_rng(17)
    u = random_symmetric_modes(solver03, 5, rng)
    v = random_symmetric_modes(solver03, 5, rng)
    lhs = solver03.inner(solver03.apply(u), v)
    rhs = solver03.inner(u, solver03.apply(v))
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_surface_measure_consistency(prof03, chart03, solver03):
    # int_{Sigma_0} dsigma in (theta, t): 2 pi int x^2 dt equals the
    # (theta, y3) form 2 pi int f sqrt(1+f'^2) dy3
    area_t = 2 * np.pi * np.sum(solver03.w * solver03.x2)
    y3 = np.linspace(-prof03.T / 2, prof03.T / 2, 4001)
    f, fp = prof03.evaluate(y3, order=1)
    from scipy.integrate import simpson
    area_y = 2 * np.pi * simpson(f * np.sqrt(1 + fp**2), x=y3)
    assert area_t == pytest.approx(area_y, rel=1e-9)
