import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from dropcoil.errors import DomainError
from dropcoil.profile import (CYLINDER_IA, CYLINDER_PERIOD, CYLINDER_VOLUME, MAX_MODES,
                              _block_sums, _modes, build_chart, check_neck,
                              compute_Ia, compute_Ia_conformal, profile_scan,
                              solve_profile)


def test_cylinder_closed_forms():
    p = solve_profile(0.5)
    assert p.T == CYLINDER_PERIOD == pytest.approx(np.pi)
    assert p.V == CYLINDER_VOLUME == pytest.approx(np.pi**2 / 4)
    assert p.Ia == CYLINDER_IA == pytest.approx(np.pi / 4)
    # quadrature paths reproduce the closed forms
    assert compute_Ia(p) == pytest.approx(np.pi / 4, abs=1e-8)
    c = build_chart(0.5)
    assert compute_Ia_conformal(c) == pytest.approx(np.pi / 4, abs=1e-8)
    assert c.tau == pytest.approx(np.pi)


def test_neck_validation():
    with pytest.raises(DomainError):
        solve_profile(0.0)
    with pytest.raises(DomainError):
        solve_profile(0.6)
    with pytest.raises(DomainError):
        build_chart(-0.1)


def test_necks_past_the_node_cap_are_refused():
    # the node count, and with it the chart's dense (M, grid + 1) sine
    # matrix, grows as a^(-1/2); below a = 2.8e-17 eta rounds to 0 and
    # _modes overflows.  A neck that needs more than MAX_MODES nodes is
    # refused before anything is built; the cylinder has no node count
    assert _modes(1e-4) == 2048 and _modes(1e-6) == _modes(6.3e-7) == MAX_MODES
    for a in (1e-300, 2e-17, 1e-8, 6e-7):
        for build in (solve_profile, build_chart, lambda a: profile_scan([a])):
            with pytest.raises(DomainError, match=f"needs more than {MAX_MODES} roulette nodes"):
                build(a)
    assert check_neck(6.3e-7) == 6.3e-7 and check_neck(0.5) == 0.5


def test_small_neck_limit_sphere_profile():
    # a -> 0: T/2 -> 1 and f -> sqrt(1 - s^2) pointwise on a fixed grid
    s = np.linspace(0.0, 0.9, 40)
    errs = {}
    for a in (1e-3, 1e-4):
        p = solve_profile(a)
        errs[a] = (abs(p.T / 2 - 1.0),
                   np.max(np.abs(p.evaluate(s, order=0)[0] - np.sqrt(1 - s * s))))
    assert errs[1e-3][0] < 0.02 and errs[1e-3][1] < 0.05
    assert errs[1e-4][0] < errs[1e-3][0]
    assert errs[1e-4][1] < errs[1e-3][1]


def test_conserved_quantity_a03(prof03):
    assert prof03.conserved_residual() < 1e-12


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.49))
def test_profile_invariants_random_neck(a):
    p = solve_profile(a)
    # conserved quantity along every solved profile
    assert p.conserved_residual() < 1e-8
    # f ranges between the neck and bulge radii
    assert p.f.min() == pytest.approx(a, abs=1e-7)
    assert p.f.max() == pytest.approx(1 - a, abs=1e-7)
    assert np.all(p.f >= a - 1e-9) and np.all(p.f <= 1 - a + 1e-9)
    # mean curvature identity H = 2 at every sample
    assert p.mean_curvature_residual() < 1e-12
    # neck hit: f(T/2) = a
    assert abs(p.f[-1] - a) < 1e-8


def test_dual_ia_formulas_agree():
    for a in np.arange(0.05, 0.46, 0.05):
        p = solve_profile(a)
        c = build_chart(a)
        assert abs(compute_Ia_conformal(c) - p.Ia) / p.Ia < 1e-6


def test_small_a_ia_slope_ratio():
    p = solve_profile(1e-3)
    assert p.Ia / (2e-3) == pytest.approx(1.0, abs=0.05)


def test_positivity_scan():
    rows = profile_scan(np.arange(0.01, 0.50, 0.02))
    assert all(r[3] > 0 for r in rows)


def test_profile_scan_rows_match_solve_profile():
    # the scan takes T = 2 pi C_0 from the roulette sums; solve_profile's T,
    # its grid's end node doubled, has the same bits (the criterion-6 grid,
    # the appendix's necks and the cylinder)
    a_values = [0.01 + i * 0.01 for i in range(49)] + [0.002, 0.005, 0.01, 0.5]
    for row, a in zip(profile_scan(a_values), a_values):
        p = solve_profile(a)
        assert [float(v).hex() for v in row] == [float(v).hex() for v in (p.a, p.T, p.V, p.Ia)]
        assert p.T == 2.0 * p.grid[-1]


def test_chart_isothermal_identity():
    c = build_chart(0.2)
    assert c.isothermal_residual() < 1e-12
    # x even, z odd on the grid
    assert np.max(np.abs(c.x - c.x[::-1])) < 1e-12
    assert np.max(np.abs(c.z + c.z[::-1])) < 1e-12
    assert c.x[0] == pytest.approx(0.2, abs=1e-9)
    assert c.x[len(c.x) // 2] == pytest.approx(0.8)


def test_chart_matches_profile_period():
    p = solve_profile(0.2)
    c = build_chart(0.2)
    assert abs(c.z[-1] - p.T / 2) < 1e-6


def test_tau_log_divergence():
    # tau = -log a + log 4 + o(1); the "-2 log a" form seen in the
    # literature matches the full period 2 tau
    for a in (0.01, 0.005):
        c = build_chart(a)
        assert abs(c.tau + np.log(a)) < 3.0
        assert abs(2 * c.tau + 2 * np.log(a)) < 6.0


def test_fstar_positivity_proven_range():
    # a >= 1/4: f^2(-1 + 4 f'^2) + a(1-a)(3 + 2 f'^2) >= 0 along the profile
    a = 0.45
    p = solve_profile(a)
    c = build_chart(a)
    q = a * (1 - a)
    fstar = p.f**2 * (-1 + 4 * p.fp**2) + q * (3 + 2 * p.fp**2)
    assert np.all(fstar >= -1e-12)
    assert compute_Ia_conformal(c) > 0


def test_quadrature_refinement_order():
    # the phi trapezoid converges geometrically in the node count M, at the
    # rate exp(-2 M eta) set by the singularity of 1/sqrt(f^2 + f + q)
    a = 0.02
    eta = np.arccosh(1.0 + 2.0 * a / (0.5 - a))
    coef, V, Ia = _block_sums(a, 2 * _modes(a))
    for m in (8, 16):
        c, Vm, Im = _block_sums(a, m)
        for got, want in ((c[0, 0], coef[0, 0]), (Vm, V), (Im, Ia)):
            assert abs(got / want - 1.0) < 20.0 * np.exp(-2.0 * m * eta)
    # compute_Ia (Simpson on the stored grid) keeps its nominal 4th order over
    # two grid halvings (16^2), against the trapezoid value
    ref = solve_profile(a).Ia
    err32 = abs(compute_Ia(solve_profile(a, grid_size=32)) - ref)
    err128 = abs(compute_Ia(solve_profile(a, grid_size=128)) - ref)
    assert err32 / max(err128, 1e-15) > 200.0
    assert err128 < 1e-6


def test_mode_count_resolves_block_sums():
    # doubling M moves T, V and Ia only at rounding, from a near the sphere
    # limit to a near the cylinder
    for a in (1e-4, 0.002, 0.3, 0.49):
        m = _modes(a)
        c1, V1, I1 = _block_sums(a, m)
        c2, V2, I2 = _block_sums(a, 2 * m)
        for x, y in ((c1[0, 0], c2[0, 0]), (V1, V2), (I1, I2)):
            assert abs(x / y - 1.0) < 1e-14
    assert (_modes(0.3), _modes(0.002)) == (32, 512)


def _ode_profile_oracle(a, s_eval):
    """T, V, Ia and (f, f') at s_eval by DOP853 on the profile ODE (rtol 1e-13)."""
    def rhs(s, y):
        f, fp = y[:2]
        one = 1.0 + fp * fp
        fpp = one / f - 2.0 * one**1.5
        ia = f / one**2.5 * (f * fpp * (2.0 - fp * fp) + (1.0 + 3.0 * fp * fp) * one)
        return (fp, fpp, 2.0 * np.pi * f * f, ia)

    def neck(s, y):
        return y[1]

    neck.terminal, neck.direction = True, 1.0
    kw = dict(method="DOP853", rtol=1e-13, atol=1e-15, max_step=3e-3)
    sol = solve_ivp(rhs, (0.0, 20.0), (1.0 - a, 0.0, 0.0, 0.0), events=neck, **kw)
    _, _, V, Ia = sol.y_events[0][0]
    on_grid = solve_ivp(rhs, (0.0, s_eval[-1]), (1.0 - a, 0.0, 0.0, 0.0), t_eval=s_eval, **kw)
    return 2.0 * sol.t_events[0][0], V, Ia, on_grid.y[0], on_grid.y[1]


def _ode_chart_oracle(a, t_eval):
    """tau and (x, z) at t_eval by DOP853 on the conformal system (rtol 1e-13)."""
    q = a * (1.0 - a)

    def rhs(t, y):
        x, xp, z = y
        return (xp, (1.0 - 2.0 * q) * x - 2.0 * x**3, q + x * x)

    def neck(t, y):
        return y[1]

    neck.terminal, neck.direction = True, 1.0
    kw = dict(method="DOP853", rtol=1e-13, atol=1e-15, max_step=3e-3)
    sol = solve_ivp(rhs, (0.0, 60.0), (1.0 - a, 0.0, 0.0), events=neck, **kw)
    on_grid = solve_ivp(rhs, (0.0, t_eval[-1]), (1.0 - a, 0.0, 0.0), t_eval=t_eval, **kw)
    return sol.t_events[0][0], on_grid.y[0], on_grid.y[2]


@pytest.mark.parametrize("a", [0.01, 0.1, 0.3, 0.45])
def test_roulette_matches_ode_oracle(a):
    # the ODE path the roulette replaced, integrated tighter, as the oracle
    p = solve_profile(a, grid_size=256)
    T, V, Ia, f, fp = _ode_profile_oracle(a, p.grid)
    for got, want in ((p.T, T), (p.V, V), (p.Ia, Ia)):
        assert abs(got / want - 1.0) < 1e-11
    assert np.max(np.abs(p.f - f)) < 1e-11
    assert np.max(np.abs(p.fp - fp)) < 1e-11
    c = build_chart(a, grid_size=256)
    t, x, _, z, _, _ = c.half_view()
    tau, xo, zo = _ode_chart_oracle(a, t)
    assert abs(c.tau / tau - 1.0) < 1e-11
    assert np.max(np.abs(x - xo)) < 1e-11
    assert np.max(np.abs(z - zo)) < 1e-11


def test_evaluate_periodic_fold(prof03):
    s = np.linspace(-3 * prof03.T, 3 * prof03.T, 301)
    f, fp, fpp = prof03.evaluate(s, order=2)
    one = 1 + fp**2
    H = -fpp / one**1.5 + 1 / (f * np.sqrt(one))
    assert np.max(np.abs(H - 2)) < 1e-9
    fT = prof03.evaluate(s + prof03.T, order=0)[0]
    assert np.max(np.abs(fT - f)) < 1e-12


def _roulette_angle(anti, row, target):
    """phi in [0, pi] with G_row(phi) = target (s for row 0, t for row 1), by Newton."""
    k = np.arange(1, anti.shape[1])
    grid = np.linspace(0.0, np.pi, 4097)
    G = anti[row, 0] * grid + np.sin(np.outer(grid, k)) @ anti[row, 1:]
    phi = np.interp(target, G, grid)
    for _ in range(20):
        g = anti[row, 0] * phi + np.sin(np.outer(phi, k)) @ anti[row, 1:]
        dg = anti[row, 0] + np.cos(np.outer(phi, k)) @ (k * anti[row, 1:])
        phi = phi - (g - target) / dg
    return phi


def _exact_f(a, phi):
    """(f, f') at roulette angle phi in closed form."""
    f = 0.5 + (0.5 - a) * np.cos(phi)
    fp = -(0.5 - a) * np.sin(phi) * np.sqrt(f * f + f + a * (1.0 - a)) / (f * f + a * (1.0 - a))
    return f, fp


@pytest.mark.parametrize("a", [0.05, 0.3, 0.45])
def test_profile_interpolant_built_on_first_evaluate(a):
    # solving keeps the antiderivative coefficients of s(phi); the first evaluation
    # builds the Hermite interpolant on samples at uniform phi, 4x finer than the
    # grid, with non-uniform knots s and f, f' in closed form; later ones reuse it
    p = solve_profile(a)
    assert p._interp is None and p._anti is not None
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 0.5 * p.T, 4000)
    f, fp = p.evaluate(s, order=1)
    interp = p._interp
    assert interp is not None
    p.evaluate(s, order=0)
    assert p._interp is interp
    # against the exact roulette inversion s(phi) = s
    f_ex, fp_ex = _exact_f(a, _roulette_angle(_block_sums(a, _modes(a))[0], 0, s))
    assert np.max(np.abs(f - f_ex)) <= 2e-15
    assert np.max(np.abs(fp - fp_ex)) <= 5e-11


@pytest.mark.parametrize("a", [0.05, 0.3, 0.45])
def test_chart_interpolants_match_roulette_inversion(a):
    # x(t) and x'(t) on the uniform t grid, t(z) on the z knots, all Hermite on
    # closed-form slopes, against Newton inversion of t(phi) and s(phi) = z
    c = build_chart(a)
    anti = _block_sums(a, _modes(a))[0]
    rng = np.random.default_rng(11)
    t = rng.uniform(-c.tau, c.tau, 4000)
    f_ex, fp_ex = _exact_f(a, _roulette_angle(anti, 1, np.abs(t)))
    x, xp = c.x_of_t(t)
    assert np.max(np.abs(x - f_ex)) <= 1e-11
    assert np.max(np.abs(xp - np.sign(t) * fp_ex * (f_ex**2 + a * (1.0 - a)))) <= 3e-11
    y3 = rng.uniform(-c.z[-1], c.z[-1], 4000)
    phi = _roulette_angle(anti, 0, np.abs(y3))
    t_ex = np.sign(y3) * (anti[1, 0] * phi
                          + np.sin(np.outer(phi, np.arange(1, anti.shape[1]))) @ anti[1, 1:])
    assert np.max(np.abs(c.t_of_y3(y3) - t_ex)) <= 5e-11


def test_evaluate_order_zero_matches_order_one(prof03, prof_cyl):
    # order 0 evaluates f alone, with the same bits as the f of order 1
    s = np.linspace(-3.0, 4.0, 301)
    for p in (prof03, prof_cyl):
        f0 = p.evaluate(s, order=0)
        assert len(f0) == 1
        assert np.array_equal(f0[0], p.evaluate(s, order=1)[0])
