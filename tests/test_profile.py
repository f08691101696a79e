import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from dropcoil.errors import DomainError
from dropcoil.profile import (CYLINDER_IA, CYLINDER_PERIOD, CYLINDER_VOLUME,
                              DEFAULT_GRID, ConformalChart, DelaunayProfile, build_chart,
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
    assert prof03.conserved_residual() < 10 * prof03.tol


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
    assert p.mean_curvature_residual() < 10 * p.tol
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


def test_chart_isothermal_identity():
    c = build_chart(0.2)
    assert c.isothermal_residual() < 10 * c.tol
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
    # over two grid halvings the Ia error must drop at least as fast as the
    # nominal 4th order (16^2); measured against a deeply refined reference
    ref = solve_profile(0.02, grid_size=4096).Ia
    err32 = abs(solve_profile(0.02, grid_size=32).Ia - ref)
    err128 = abs(solve_profile(0.02, grid_size=128).Ia - ref)
    assert err32 / max(err128, 1e-15) > 200.0
    assert err128 < 1e-6


def test_profile_json_roundtrip(prof03):
    p2 = DelaunayProfile.from_json(prof03.to_json())
    assert p2.a == prof03.a and p2.T == prof03.T
    assert np.allclose(p2.f, prof03.f)
    s = np.linspace(-1.0, 2.0, 57)
    f1 = prof03.evaluate(s, order=2)
    f2 = p2.evaluate(s, order=2)
    for u, v in zip(f1, f2):
        assert np.max(np.abs(u - v)) < 1e-9


def test_chart_json_roundtrip(chart03):
    c2 = ConformalChart.from_json(chart03.to_json())
    assert c2.tau == chart03.tau
    y3 = np.linspace(-1.0, 1.0, 11)
    assert np.max(np.abs(c2.t_of_y3(y3) - chart03.t_of_y3(y3))) < 1e-10


def test_evaluate_periodic_fold(prof03):
    s = np.linspace(-3 * prof03.T, 3 * prof03.T, 301)
    f, fp, fpp = prof03.evaluate(s, order=2)
    one = 1 + fp**2
    H = -fpp / one**1.5 + 1 / (f * np.sqrt(one))
    assert np.max(np.abs(H - 2)) < 1e-9
    fT = prof03.evaluate(s + prof03.T, order=0)[0]
    assert np.max(np.abs(fT - f)) < 1e-12


def test_profile_spline_built_on_first_evaluate():
    # solving keeps the dense ODE solution; the first evaluation builds the
    # clamped spline on it, sampled 4x finer than the grid
    p = solve_profile(0.3)
    assert p._spline is None and p._dense is not None
    s = np.linspace(-1.0, 2.0, 57)
    f, fp = p.evaluate(s, order=1)
    assert p._spline is not None
    half = 0.5 * p.T
    sf = np.linspace(0.0, half, 4 * DEFAULT_GRID + 1)
    eager = CubicSpline(sf, p._dense(sf)[0], bc_type=((1, 0.0), (1, 0.0)))
    assert np.array_equal(p._spline.x, eager.x) and np.array_equal(p._spline.c, eager.c)
    u = np.mod(s + half, p.T) - half
    assert np.array_equal(f, eager(np.abs(u)))
    assert np.array_equal(fp, np.where(u >= 0.0, 1.0, -1.0) * eager(np.abs(u), 1))
    # later evaluations reuse it
    spline = p._spline
    p.evaluate(s, order=0)
    assert p._spline is spline


def test_evaluate_order_zero_matches_order_one(prof03, prof_cyl):
    # order 0 evaluates f alone, with the same bits as the f of order 1
    s = np.linspace(-3.0, 4.0, 301)
    for p in (prof03, DelaunayProfile.from_dict(prof03.to_dict()), prof_cyl):
        f0 = p.evaluate(s, order=0)
        assert len(f0) == 1
        assert np.array_equal(f0[0], p.evaluate(s, order=1)[0])
