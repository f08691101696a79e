import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dropcoil.coulomb import (GRAPH_MZ, NormalGraphBoundary, ball_potential_exact,
                              solid_boundary, surface_potentials)
from dropcoil.errors import (BracketFailure, DomainError, NoContraction, RootNotBracketed,
                             SingularSystem)
from dropcoil.fields import (SymmetricField, cos_coeffs, cos_eval, is_zero_field, series_eval,
                             theta_mirror)
from dropcoil.geometry import build_sphere, evaluate_forms
from dropcoil.profile import solve_profile
import dropcoil.reduction as reduction
from dropcoil.reduction import (COARSE_UNTIL, ReductionContext, ReductionSettings,
                                _coulomb_samples, _equation_samples, _project_equation,
                                evaluate_equation,
                                find_neck_for_mass, fixed_point_solve,
                                gamma_leading, mass_map, select_block_count,
                                solve_gamma)

FAST = ReductionSettings(kmax=4, ntheta=12, m_t=24, chart_grid=768,
                         quad_resolution=(6, 12, 14),
                         final_quad_resolution=(6, 16, 20),
                         self_panel_q=4, self_core_q=4, self_column_q=5,
                         final_self_q=5, coulomb_t_stride=3)


@pytest.fixture(scope="module")
def ctx32(prof03):
    return ReductionContext(prof03, 32, FAST)


@pytest.fixture(scope="module")
def state32(prof03, ctx32):
    return solve_gamma(prof03, 32, FAST, ctx32)


def test_gamma_leading_identity(prof03):
    for n in (8, 32, 200):
        lead = gamma_leading(prof03, n)
        assert lead.gamma * np.log(n) == pytest.approx(
            2 * prof03.Ia * prof03.T / prof03.V, rel=1e-14)
        assert lead.c3 == pytest.approx(prof03.V / prof03.T)
        assert lead.c5 == pytest.approx(2 * prof03.Ia / lead.c3)
    with pytest.raises(DomainError):
        gamma_leading(prof03, 4)


def test_gamma_leading_cylinder_values():
    cyl = solve_profile(0.5)
    lead = gamma_leading(cyl, 32)
    # I = pi/4, T = pi, V = pi^2/4  =>  gamma ln n = 2
    assert lead.gamma * np.log(32) == pytest.approx(2.0, rel=1e-12)


def test_gamma_leading_monotone(prof03):
    assert gamma_leading(prof03, 64).gamma < gamma_leading(prof03, 32).gamma


def test_equation_at_zero_perturbation(prof03, ctx32):
    ev = evaluate_equation(prof03, 32, None, 0.0, ctx=ctx32)
    # G = H ~ 2 + O(1/n); d ~ 2 and c carries the Phi-weighted projection
    assert ev.d == pytest.approx(2.0, abs=0.01)
    c1 = np.pi * np.sum(ctx32.solver.w * ctx32.solver.kernel.nu2**2 * ctx32.solver.x2)
    c4 = 2 * np.pi**2 / (prof03.T * c1)
    assert ev.c == pytest.approx(2 * prof03.Ia * c4 / 32, rel=0.02)
    # includes admissible harmonics beyond kmax, hence only ~1e-8 at kmax=4
    assert ev.symmetry_residual < 1e-6


def test_zero_field_equation_equals_no_field(prof03, ctx32):
    # one zero-field rule picks the unperturbed patch and Coulomb boundary
    zero = ctx32.zero_field()
    assert is_zero_field(None) and is_zero_field(zero)
    bump = zero.copy()
    bump.modes[0] += 1e-3
    assert not is_zero_field(bump)
    a = evaluate_equation(prof03, 32, zero, 0.1, ctx=ctx32)
    b = evaluate_equation(prof03, 32, None, 0.1, ctx=ctx32)
    assert np.array_equal(a.field.modes, b.field.modes)
    assert (a.c, a.d, a.residual, a.symmetry_residual) == (b.c, b.d, b.residual,
                                                           b.symmetry_residual)


def test_sphere_sanity_bypasses_coil():
    # H + gamma * N is exactly constant on a ball: 2/r + gamma (4 pi/3) r^2
    r, gamma = 1.0, 0.1
    th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    H = evaluate_forms(build_sphere(r), th, np.full_like(th, 0.2)).H
    u = ball_potential_exact(r, radius=r)
    G = H + gamma * u
    assert np.max(np.abs(G - (2 / r + gamma * 4 * np.pi / 3 * r**2))) < 1e-10


def test_fixed_point_first_step_is_projected_solve(prof03):
    # the first step's gamma zeroes c at h = 0 on the coarse tier; its update
    # is T(G) there
    cheap = replace(FAST, max_iter=1)
    ctx = ReductionContext(prof03, 32, cheap)
    st = fixed_point_solve(prof03, 32, cheap, ctx)
    gamma = st.history[0]["gamma"]
    assert st.history[0]["rule"] == "coarse" and ctx.coarse_rule is not ctx.loop_rule
    H, N, boundary = _equation_samples(ctx, ctx.zero_field(), ctx.coarse_rule)
    ev = _project_equation(ctx, H, N, gamma, boundary)
    assert abs(ev.c) < 1e-13 * abs(ev.d)
    delta, _, _ = ctx.solver.solve_projected(ev.field)
    assert st.history[0]["delta_norm"] == pytest.approx(delta.norm_sup(), rel=1e-12)
    assert np.array_equal(st.h.modes, delta.modes)


def test_fixed_point_contracts(prof03, ctx32):
    st = fixed_point_solve(prof03, 32, FAST, ctx32)
    assert st.converged
    norms = [row["delta_norm"] for row in st.history]
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    assert all(r < 1.0 for r in ratios[-3:])
    # mean-zero is enforced exactly by the bordered solve
    assert abs(ctx32.solver.integral(st.h)) < 1e-10
    assert abs(ctx32.solver.integral_nu2(st.h)) < 1e-10


# sha256 of every number the (h, gamma) loop and its final-rule report give at
# FAST, n = 32 (``_loop_bits``).  0.3 converges in 8 full steps; 0.455 halves
# 14 of its 32 steps; 0.46 stops unconverged after max_iter = 40 steps
LOOP_BITS = {
    0.3: "fff914ba9ae103ff13d7fceee35242b45b0d9f799a0311f0ec9b3879af335a80",
    0.455: "8dd46f9e4f67c64b21abb61cae11d2c19eb56d028b7d604c09a14099991a2324",
    0.46: "bc7eea844ae5aec62d8856b3a1ca0dfbea29f235225d28f2bb8f28da72695b0e",
}


def _loop_bits(state):
    """sha256 of the float.hex of every history row (rule and step included),
    the h modes, gamma, c, d, both residuals, c_final, the integration count
    and the convergence flag."""
    def word(v):
        return float(v).hex() if isinstance(v, float) else repr(v)

    words = [f"{k}={word(v)}" for row in state.history for k, v in sorted(row.items())]
    words += [word(v) for v in state.h.modes.ravel()]
    words += [word(getattr(state, k)) for k in ("gamma", "c", "d", "residual", "residual_final",
                                                 "c_final", "coulomb_integrations", "converged")]
    return hashlib.sha256("\n".join(words).encode()).hexdigest()


@pytest.mark.parametrize("a", sorted(LOOP_BITS))
def test_loop_keeps_every_bit(a):
    # a restructured loop gives every bit of the one it replaced, on a
    # converging, a step-halving and an unconverged solve
    state = solve_gamma(solve_profile(a), 32, FAST)
    assert _loop_bits(state) == LOOP_BITS[a]


@pytest.mark.parametrize("factors, raises", [((1e-3, 1e-2, 1e-1, 1.0), True),
                                             ((1e-3, 1e-2, 1e-1, 1e-2), False)])
def test_growing_updates_halve_the_step(prof03, monkeypatch, factors, raises):
    # each update is scaled by the next factor; starting small keeps h near 0,
    # so the unscaled update barely moves and the scaled norm follows the
    # factors.  A growth halves the step, a third in a row raises
    # NoContraction, and a shrink restores the full step
    settings = replace(FAST, max_iter=len(factors))
    ctx = ReductionContext(prof03, 32, settings)
    solve, scale = ctx.solver.solve_projected, iter(factors)

    def scaled(E):
        delta, c, d = solve(E)
        return next(scale) * delta, c, d

    monkeypatch.setattr(ctx.solver, "solve_projected", scaled)
    if raises:
        with pytest.raises(NoContraction, match=r"update norm grew 3 times \(last .* > .*\)"):
            fixed_point_solve(prof03, 32, settings, ctx)
    else:
        st = fixed_point_solve(prof03, 32, settings, ctx)
        assert [row["step"] for row in st.history] == [1.0, 0.5, 0.25, 1.0]


def test_coarse_tier_error_below_its_bound(prof03, ctx32, state32):
    # COARSE_UNTIL = 50 eps rests on the tier's N error eps <= 2e-5 against
    # the final rule at the solved h (1.8e-5 measured); the loop rule's own
    # (1.0e-6) is over ten times smaller, and the tier's sub-grid is half the loop's
    assert COARSE_UNTIL == pytest.approx(50 * 2e-5)
    boundary = state32.equation.boundary
    final = _coulomb_samples(ctx32, boundary, rule=ctx32.final_rule)

    def err(rule):
        return np.max(np.abs(_coulomb_samples(ctx32, boundary, rule=rule) - final)) / \
            np.max(np.abs(final))

    assert err(ctx32.coarse_rule) < 2e-5
    assert err(ctx32.loop_rule) < 2e-5 / 10
    assert ctx32.coarse_rule.quad.resolution[1:] == (8, 10)
    assert 2 * (len(ctx32.coarse_rule.y3_sub) - 1) == len(ctx32.loop_rule.y3_sub) - 1
    # h = 0 and the two updates above COARSE_UNTIL (2.1e-2, 3.6e-3) put 3 of
    # the solve's 10 sample sets on the tier
    rules = [row["rule"] for row in state32.history]
    assert rules == ["coarse"] * 3 + ["loop"] * (len(rules) - 3)
    assert state32.coulomb_integrations == 10


@pytest.mark.parametrize("grid, a, rows", [("desk", 0.2, 17), ("desk", 0.3, 9), ("desk", 0.45, 9),
                                           ("desk", 0.48, 9), ("fast", 0.48, 5)])
def test_loop_subgrid_follows_profile(grid, a, rows):
    # n = 32, h = 0: the loop rule takes N on twice the final rule's stride
    # where LOOP_SUBGRID_TOL allows, and that sub-grid's interpolation error
    # is at most a fifth of the loop rule's own against the final rule; the
    # final rule keeps coulomb_t_stride and the coarse tier twice the loop's
    # stride.  Near the cylinder f is almost constant, so FAST takes 5 rows
    prof = solve_profile(a)
    settings = FAST if grid == "fast" else ReductionSettings()
    ctx = ReductionContext(prof, 32, settings)
    stride = (len(ctx.y3_nodes) - 1) // (rows - 1)
    assert np.array_equal(ctx.loop_rule.y3_sub, ctx.y3_nodes[::stride])
    assert np.array_equal(ctx.final_rule.y3_sub, ctx.y3_nodes[::settings.coulomb_t_stride])
    assert np.array_equal(ctx.coarse_rule.y3_sub, ctx.y3_nodes[::2 * stride])
    boundary = solid_boundary(prof)
    every = _coulomb_samples(ctx, boundary, rule=replace(ctx.loop_rule, y3_sub=ctx.y3_nodes))
    loop = _coulomb_samples(ctx, boundary, rule=ctx.loop_rule)
    final = _coulomb_samples(ctx, boundary, rule=ctx.final_rule)
    sub_err = np.max(np.abs(loop - every)) / np.max(np.abs(every))
    loop_err = np.max(np.abs(every - final)) / np.max(np.abs(final))
    assert sub_err <= loop_err / 5


def test_fast_subgrids_by_neck(prof_cyl):
    # at m_t = 24 the loop and the final rule keep 9 rows and the tier 5 on
    # every neck the loop solves (to a = 0.455); from a = 0.46, where no
    # solve converges at either sub-grid, f passes on 5 rows and the loop
    # takes them.  The cylinder has no Jacobi solver, so no context
    for a, strides in ((0.1, (6, 3, 3)), (0.2, (6, 3, 3)), (0.29, (6, 3, 3)),
                       (0.3, (6, 3, 3)), (0.31, (6, 3, 3)), (0.45, (6, 3, 3)),
                       (0.455, (6, 3, 3)), (0.46, (12, 6, 3)), (0.48, (12, 6, 3))):
        ctx = ReductionContext(solve_profile(a), 32, FAST)
        for rule, stride in zip((ctx.coarse_rule, ctx.loop_rule, ctx.final_rule), strides):
            assert np.array_equal(rule.y3_sub, ctx.y3_nodes[::stride])
    with pytest.raises(SingularSystem):
        ReductionContext(prof_cyl, 32, FAST)


@pytest.mark.parametrize("a", [0.2, 0.3, 0.45])
@pytest.mark.parametrize("grid", ["fast", "desk"])
def test_loop_theta_subgrid_alias(grid, a):
    # the loop and coarse rules integrate N on 2 (kmax + 1) theta nodes, one
    # own column a mode 0..kmax, and a step reads N's modes 0..kmax only;
    # those differ from the modes of N on every column of ctx.theta by an
    # alias of modes kmax + 2 and above, at most a twentieth of the loop
    # rule's own error against the final rule at h = 0 and at the solved h
    settings = FAST if grid == "fast" else ReductionSettings()
    prof = solve_profile(a)
    for n in (16, 32):
        ctx = ReductionContext(prof, n, settings)
        for rule in (ctx.loop_rule, ctx.coarse_rule):
            assert len(theta_mirror(len(rule.theta))[0]) == settings.kmax + 1
        assert ctx.final_rule.theta is ctx.theta
        st = fixed_point_solve(prof, n, settings, ctx)
        assert st.converged
        for boundary in (solid_boundary(prof), st.equation.boundary):
            def modes(rule):
                N = _coulomb_samples(ctx, boundary, rule=rule)
                return SymmetricField.from_samples(N, ctx.solver.tau, settings.kmax)[0].modes

            every = modes(replace(ctx.loop_rule, theta=ctx.theta))
            alias = np.max(np.abs(modes(ctx.loop_rule) - every))
            assert alias <= np.max(np.abs(every - modes(ctx.final_rule))) / 20


def test_coarse_tier_only_when_cheaper(prof03):
    # a loop rule with fewer (n_phi, n_z) nodes than the tier keeps its own
    # rule throughout; a sub-grid that twice the stride does not divide
    # keeps the loop stride
    ctx = ReductionContext(prof03, 16, replace(FAST, quad_resolution=(4, 8, 8)))
    assert ctx.coarse_rule is ctx.loop_rule and ctx.loop_rule.name == "loop"
    ctx = ReductionContext(prof03, 16, replace(FAST, coulomb_t_stride=8))
    assert ctx.coarse_rule.name == "coarse"
    assert np.array_equal(ctx.coarse_rule.y3_sub, ctx.loop_rule.y3_sub)
    st = fixed_point_solve(prof03, 16, replace(FAST, quad_resolution=(4, 8, 8)))
    assert st.converged and {row["rule"] for row in st.history} == {"loop"}


@pytest.mark.parametrize("tol_h, rules", [(5e-3, ["coarse", "coarse", "loop"]),
                                          (5e-2, ["coarse", "loop"])])
def test_solve_ends_on_loop_rule(prof03, tol_h, rules):
    # above COARSE_UNTIL a small update fed by coarse samples does not stop
    # the solve; the state it returns is a loop-rule evaluation
    assert tol_h > COARSE_UNTIL
    settings = replace(FAST, tol_h=tol_h)
    ctx = ReductionContext(prof03, 32, settings)
    st = fixed_point_solve(prof03, 32, settings, ctx)
    assert st.converged
    assert [row["rule"] for row in st.history] == rules
    # the step before the last was small enough to stop, but coarse-fed
    assert st.history[-2]["rule"] == "coarse" and st.history[-2]["delta_norm"] < tol_h
    ev = evaluate_equation(prof03, 32, st.h, st.gamma, ctx=ctx)
    assert (ev.c, ev.d, ev.residual) == (st.c, st.d, st.residual)
    assert st.coulomb_integrations == len(rules) + 1


def test_context_for_another_a_or_n_raises(prof03, ctx32, state32):
    # the context fixes the profile, chart, solver and rules, so one built for
    # another neck or block count would compute there and be recorded here
    h = ctx32.zero_field()
    for prof, n in ((solve_profile(0.2), 32), (prof03, 16)):
        with pytest.raises(DomainError, match="built for a = 0.3, n = 32"):
            evaluate_equation(prof, n, h, 0.4, ctx=ctx32)
        with pytest.raises(DomainError, match="built for a = 0.3, n = 32"):
            fixed_point_solve(prof, n, FAST, ctx32)
        with pytest.raises(DomainError, match="built for a = 0.3, n = 32"):
            solve_gamma(prof, n, FAST, ctx32)
        with pytest.raises(DomainError, match="built for a = 0.3, n = 32"):
            mass_map(prof, n, FAST, state=state32, ctx=ctx32)


def test_mass_map_refuses_a_state_of_another_a_or_n(prof03, state32):
    # the state's gamma and h belong to its own (a, n): a mass map elsewhere
    # from them would report a mass no solve at that cell gave
    for prof, n in ((solve_profile(0.2), 32), (prof03, 64)):
        with pytest.raises(DomainError, match=f"reduction state solved at a = 0.3, n = 32, "
                                              f"used at a = {prof.a}, n = {n}"):
            mass_map(prof, n, FAST, state=state32)


def test_settings_other_than_the_contexts_raise(prof03, ctx32, state32):
    # the context is the one source of settings: other settings passed with
    # it are refused rather than run at the context's; equal settings, or
    # none, run as before
    other = replace(FAST, kmax=6)
    h = ctx32.zero_field()
    for call in (lambda s: evaluate_equation(prof03, 32, h, 0.4, ctx=ctx32, settings=s),
                 lambda s: fixed_point_solve(prof03, 32, s, ctx32),
                 lambda s: solve_gamma(prof03, 32, s, ctx32),
                 lambda s: mass_map(prof03, 32, s, state=state32, ctx=ctx32)):
        with pytest.raises(DomainError, match="settings kmax = 6 differ from the reduction "
                                              "context's"):
            call(other)
    st = solve_gamma(prof03, 32, ctx=ctx32)
    assert st.gamma == state32.gamma and np.array_equal(st.h.modes, state32.h.modes)
    assert mass_map(prof03, 32, replace(FAST), state=st, ctx=ctx32) == \
        mass_map(prof03, 32, state=state32, ctx=ctx32)


def test_coupling_without_root_raises(prof03, ctx32, monkeypatch):
    # N with no nu_2 component leaves c = c_H for every gamma: no root
    monkeypatch.setattr(reduction, "_coulomb_samples",
                        lambda ctx, boundary, rule:
                        np.zeros((len(ctx.theta), len(ctx.t_nodes))))
    with pytest.raises(RootNotBracketed):
        fixed_point_solve(prof03, 32, FAST, ctx32)


def test_solve_gamma_root(prof03, ctx32, state32):
    assert abs(state32.c) < 1e-6 * abs(state32.d)
    target = 2 * prof03.Ia * prof03.T / prof03.V
    assert state32.gamma * np.log(32) / target == pytest.approx(1.0, abs=0.2)
    assert state32.residual < 1e-4
    with pytest.raises(DomainError):
        solve_gamma(prof03, 8, FAST)


def test_solve_gamma_keeps_every_solve(prof03, ctx32, state32):
    # one row a Picard step, each tagged with the gamma it used
    rows = state32.history
    assert [row["iter"] for row in rows] == list(range(state32.iterations))
    assert len({row["gamma"] for row in rows}) >= 2
    assert rows[-1]["gamma"] == state32.gamma
    # the reported state is the stopped h projected at the last step's gamma
    ev = evaluate_equation(prof03, 32, state32.h, state32.gamma, ctx=ctx32)
    assert (ev.c, ev.d, ev.residual) == (state32.c, state32.d, state32.residual)


def test_h_norm_scaling(prof03, state32):
    st16 = solve_gamma(prof03, 16, FAST)
    C16 = st16.h_norm * np.log(16)
    C32 = state32.h_norm * np.log(32)
    assert 0.2 < C32 / C16 < 2.0  # C stable across n
    # odd (y2-odd) content is the O(1/n) forcing response: n * |odd| is the
    # stable constant at desk scale (|h| itself still decays like 1/n here,
    # so the |h|-normalized form only makes sense asymptotically)
    consts = []
    for st, n in ((st16, 16), (state32, 32)):
        consts.append(n * st.h.odd_part().norm_sup())
    assert all(c < 5.0 for c in consts)
    assert 0.6 < consts[1] / consts[0] < 1.67


def test_mass_map_volume(prof03, ctx32, state32):
    mm = mass_map(prof03, 32, FAST, state=state32, ctx=ctx32)
    assert abs(mm.volume_ratio - 1.0) < 0.1
    assert mm.m == pytest.approx(state32.gamma * mm.volume)
    # m(n) ~ (n / ln n) 2 I_a T_a within the o(1) band
    pred = 32 / np.log(32) * 2 * prof03.Ia * prof03.T
    assert mm.m / pred == pytest.approx(1.0, abs=0.25)
    # without a context mass_map builds one from the settings, on the solve's chart
    assert mass_map(prof03, 32, FAST, state=state32) == mm


def test_reduction_deterministic(prof03):
    s1 = solve_gamma(prof03, 16, FAST)
    s2 = solve_gamma(prof03, 16, FAST)
    assert s1.gamma == s2.gamma
    assert np.array_equal(s1.h.modes, s2.h.modes)


def test_select_block_count(prof03):
    n = select_block_count(40.0, prof03)
    assert isinstance(n, int) and n >= 4
    with pytest.raises(DomainError):
        select_block_count(1.0, prof03)


def test_find_neck_for_mass(prof03):
    # target the mass produced by a mid-bracket neck so bisection can land
    target = mass_map(prof03, 16, FAST).m
    mm = find_neck_for_mass(target, 16, bracket=(0.2, 0.4), settings=FAST,
                            max_bisect=4, rtol=0.02)
    # the accepted neck's own mass map: its a is the neck b
    assert 0.2 < mm.a < 0.4 and mm.n == 16
    assert abs(mm.m - target) < 0.02 * target
    with pytest.raises(BracketFailure):
        find_neck_for_mass(1e6, 16, bracket=(0.25, 0.35), settings=FAST)


def test_settings_validation():
    with pytest.raises(DomainError):
        ReductionSettings(max_iter=0)
    with pytest.raises(DomainError):
        ReductionSettings(m_t=50, chart_grid=768)
    with pytest.raises(DomainError):
        ReductionSettings(m_t=48, chart_grid=768, coulomb_t_stride=5)


def test_mirrored_samples_match_full_grid(prof03):
    # each rule integrates one column of each mirror pair of its own theta
    # grid; integrating every column gives the same samples to rounding
    for settings in (ReductionSettings(), FAST):
        ctx = ReductionContext(prof03, 32, settings)
        for h in (_loop_test_field(ctx), ctx.zero_field()):
            boundary = solid_boundary(prof03, h, ctx.chart)
            for final in (False, True):
                full = _column_loop_samples(ctx, h, final, mirror=False)
                rule = ctx.final_rule if final else ctx.loop_rule
                mirrored = _coulomb_samples(ctx, boundary, rule=rule)
                assert np.max(np.abs(mirrored - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("ntheta,final,columns", [
    (12, False, [0, 1, 2, 6, 7]),   # the loop's 2 (kmax + 1) = 10 theta nodes
    (12, True, [0, 1, 2, 3, 7, 8, 9]),
    (11, False, [0, 1, 2, 6, 7]),   # the loop's theta grid does not follow ntheta
    (11, True, list(range(11))),    # pi - theta_i is off an odd grid
])
def test_mirror_columns_need_even_ntheta(prof03, monkeypatch, ntheta, final, columns):
    ctx = ReductionContext(prof03, 16, replace(FAST, ntheta=ntheta))
    rule = ctx.final_rule if final else ctx.loop_rule
    assert len(rule.theta) == (ntheta if final else 2 * (FAST.kmax + 1))
    seen = []
    calls = []

    def fake_kernel(profile, n, boundary, theta, y3, quad, self_cfg):
        # one row a point over broadcast (theta, y3); the row sum is the potential
        theta, y3 = np.broadcast_arrays(theta, y3)
        calls.append(theta.size)
        seen.extend(int(round(th * len(rule.theta) / (2 * np.pi))) for th in theta.ravel())
        return (np.sin(theta) ** 2 + 0.5 * np.sin(theta)).reshape(-1, 1)

    monkeypatch.setattr(reduction, "surface_potentials", fake_kernel)
    samples = _coulomb_samples(ctx, solid_boundary(prof03), rule=rule)
    assert len(calls) == 1  # one kernel call an evaluation
    assert sorted(set(seen)) == columns
    assert len(seen) == len(columns) * len(rule.y3_sub)
    # an even function of theta -> pi - theta, constant in y3
    s = np.sin(ctx.theta)[:, None]
    assert np.max(np.abs(samples - (s * s + 0.5 * s))) < 1e-12


def _loop_test_field(ctx):
    h = ctx.zero_field()
    t, tau = ctx.t_nodes, ctx.solver.tau
    c = np.cos(np.pi * t / tau)
    h.modes[0] = 0.01 * c + 0.004
    h.modes[1] = 0.004 * ctx.solver.kernel.nu2
    h.modes[2] = 0.005 * np.cos(2 * np.pi * t / tau)
    h.modes[3] = 0.002 * c
    h.modes[4] = 0.001
    return h


@pytest.mark.parametrize("name,settings,perturbed", [
    ("desk", ReductionSettings(), True),
    ("fast", FAST, True),
    ("fast_zero", FAST, False),
])
def test_coulomb_samples_match_frozen(prof03, name, settings, perturbed):
    # frozen from the per-point loop (one potential_perturbed call a point)
    # that the batched theta-column kernel replaced
    with open(Path(__file__).parent / "data" / "coulomb_samples_frozen.json") as fh:
        want = np.array(json.load(fh)[name])
    ctx = ReductionContext(prof03, 32, settings)
    h = _loop_test_field(ctx) if perturbed else ctx.zero_field()
    # the loop rule on the sub-grid the data were frozen on, every theta
    # column and every coulomb_t_stride-th y3 node (the desk loop takes 9
    # rows and 2 (kmax + 1) theta nodes at a = 0.3)
    rule = replace(ctx.loop_rule, y3_sub=ctx.y3_nodes[::settings.coulomb_t_stride],
                   theta=ctx.theta)
    got = _coulomb_samples(ctx, solid_boundary(prof03, h, ctx.chart), rule=rule)
    assert got.shape == want.shape
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


def _column_loop_samples(ctx, h, final, mirror=True):
    """N on the rule's (theta, y3) sub-grid, one surface_potentials call per
    integrated theta column, taken to the sample grid as ``_coulomb_samples`` does.

    With ``mirror`` one column of each theta -> pi - theta pair is integrated
    and copied to the other; without, every column is integrated.
    """
    rule = ctx.final_rule if final else ctx.loop_rule
    boundary = solid_boundary(ctx.profile, h, ctx.chart)
    ntheta = len(rule.theta)
    cols = np.arange(ntheta)
    mirror = (ntheta // 2 - cols) % ntheta if mirror and ntheta % 2 == 0 else cols
    sub = np.empty((ntheta, len(rule.y3_sub)))
    for i in cols[mirror >= cols]:
        sub[i] = surface_potentials(ctx.profile, ctx.n, boundary, rule.theta[i], rule.y3_sub,
                                    rule.quad, rule.self_cfg).sum(axis=1)
        sub[mirror[i]] = sub[i]
    if ntheta != len(ctx.theta):
        fld = SymmetricField.from_samples(sub, ctx.solver.tau, ctx.settings.kmax)[0]
        sub = fld.grid_values(len(ctx.theta))
    return cos_eval(cos_coeffs(sub), ctx.t_nodes, ctx.solver.tau)


@pytest.mark.parametrize("settings", [ReductionSettings(), FAST], ids=["desk", "fast"])
def test_coulomb_samples_batch_matches_column_loop(prof03, settings):
    # one batch of every integrated point gives every bit of the column loop
    ctx = ReductionContext(prof03, 32, settings)
    for h in (_loop_test_field(ctx), ctx.zero_field()):
        boundary = solid_boundary(prof03, h, ctx.chart)
        for final in (False, True):
            got = _coulomb_samples(ctx, boundary,
                                   rule=ctx.final_rule if final else ctx.loop_rule)
            want = _column_loop_samples(ctx, h, final)
            assert [float(v).hex() for v in got.ravel()] == \
                [float(v).hex() for v in want.ravel()]


def test_one_integration_per_h_and_rule(prof03, ctx32, monkeypatch):
    # a gamma solve integrates N once for each (h, rule) it evaluates and
    # builds each nonzero h's normal-graph boundary once; the mass map
    # builds none
    integrated, built = [], []
    kernel = reduction.surface_potentials
    init = NormalGraphBoundary.__init__

    def counting_kernel(profile, n, boundary, theta, y3, quad, self_cfg):
        h = getattr(boundary, "h", None)
        integrated.append((None if h is None else h.modes.tobytes(), quad.resolution))
        return kernel(profile, n, boundary, theta, y3, quad, self_cfg)

    def counting_init(self, profile, chart, h, *args, **kwargs):
        built.append(h.modes.tobytes())
        init(self, profile, chart, h, *args, **kwargs)

    monkeypatch.setattr(reduction, "surface_potentials", counting_kernel)
    monkeypatch.setattr(NormalGraphBoundary, "__init__", counting_init)
    st = solve_gamma(prof03, 32, FAST, ctx32)
    # h = 0, the h after each Picard step, and the solved h on the final rule
    steps = len(st.history)
    assert len(integrated) == len(set(integrated)) == steps + 2 == st.coulomb_integrations
    assert len(built) == len(set(built)) == steps
    assert set(built) == {h for h, _ in integrated if h is not None}
    mass_map(prof03, 32, FAST, state=st, ctx=ctx32)
    assert len(built) == steps


def test_equal_evaluations_each_integrate(prof03, ctx32, monkeypatch):
    # the reuse rides on a solve's own states: no cache keyed by the inputs
    calls = []
    kernel = reduction.surface_potentials
    monkeypatch.setattr(reduction, "surface_potentials",
                        lambda *args: calls.append(1) or kernel(*args))
    h = _loop_test_field(ctx32)
    a = evaluate_equation(prof03, 32, h, 0.4, ctx=ctx32)
    assert len(calls) == 1
    b = evaluate_equation(prof03, 32, h, 0.4, ctx=ctx32)
    assert len(calls) == 2
    assert np.array_equal(a.field.modes, b.field.modes) and a.c == b.c


@pytest.mark.parametrize("which, nphi", [("desk", 36), ("fast", 28)])
def test_normal_graph_radius_matches_direct_inversion(prof03, ctx32, state32, which, nphi):
    # oracle of the interpolant: the Newton inversion it samples, at 1000
    # random off-grid points over two periods, for the stored `reduce --a 0.3
    # --n 32` solution and the FAST solve's h (both on 768-panel charts);
    # nphi = max(4 (kmax + 1) + 8, 24) is the angular sample count
    if which == "desk":
        with open(Path(__file__).resolve().parents[1] / "results" / "reduce_a0.3_n32.json") as fh:
            h = SymmetricField.from_dict(json.load(fh)["h"])
    else:
        h = state32.h
    bnd = NormalGraphBoundary(prof03, ctx32.chart, h)
    rng = np.random.default_rng(17)
    phi = rng.uniform(0.0, 2.0 * np.pi, 1000)
    x3 = rng.uniform(-prof03.T, prof03.T, 1000)
    direct = bnd._radius_newton(phi, x3)
    got = bnd.radius(phi, x3)
    assert np.max(np.abs(got / direct - 1.0)) <= 1e-12
    # the chop keeps a leading block of the full series and drops rounding only
    full = bnd._interpolant(nphi, GRAPH_MZ)
    rows, cols = bnd._coef.shape
    assert full.shape == (nphi // 2, GRAPH_MZ + 1) and rows < nphi // 2 and cols <= GRAPH_MZ
    assert np.array_equal(bnd._coef, full[:rows, :cols])
    unchopped = series_eval(full, 0.5 * prof03.T, phi, x3)[0]
    assert np.max(np.abs(got / unchopped - 1.0)) <= 1e-13
    if which == "desk":
        # ten times the desk h has content in every mode: the chop drops none
        big = NormalGraphBoundary(prof03, ctx32.chart, 10.0 * h)
        assert np.array_equal(big._coef, big._interpolant(nphi, GRAPH_MZ))
