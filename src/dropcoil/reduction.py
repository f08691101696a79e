"""Lyapunov-Schmidt reduction at desk scale.

The equilibrium equation on the coiled surface,

    H(y) + gamma * N(y) = lambda   on  Sigma~^n_h,

is solved by one damped Picard iteration on (h, gamma).  H and N are
evaluated directly from the geometry and Coulomb modules (no expansion
shortcuts) and T is the projected Jacobi inverse (J[delta] = G - c nu_2 - d).
G = H + gamma N is affine in gamma, so its nu_2-projection c = c_H + gamma c_N
vanishes at gamma = -c_H / c_N: each step takes that gamma from the current
samples and then h <- h + T(G).  Since the linearization of G in h is -J to
leading order, adding the preconditioned residual contracts; the
d-projection plays the role of the Lagrange multiplier lambda.  A step map
takes h to its samples H, N (``_equation_samples``) and those to gamma, G
and T(G) (``_step``); the driver (``fixed_point_solve``) picks each step's
rule, halves steps, stops and keeps the ``history``.  Settings come from
the context alone: other settings passed with one raise DomainError.

N is integrated on one of three rules (``CoulombRule``).  The first steps,
whose updates are large, take N on a coarse tier (``COARSE_TIER``), as an
inexact Newton method would; once an update falls below ``COARSE_UNTIL``
the loop rule takes over, and the solve stops only on loop-rule samples.
The final rule serves the report, on every column of the theta grid; the
loop and coarse rules integrate N on the 2 (kmax + 1) theta nodes that fix
the modes 0..kmax a step reads.  Each Coulomb integral N is paid once
per (h, rule).  The normal-graph boundary of the solved h serves the last
loop evaluation and the final-resolution report.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import ClassVar

import numpy as np

from .coulomb import (BlockQuadrature, SelfBlockSettings, coil_volume, solid_boundary,
                      surface_potentials)
from .errors import BracketFailure, DomainError, NoContraction, RootNotBracketed
from .fields import SymmetricField, cos_coeffs, cos_eval, is_zero_field, theta_mirror
from .geometry import build_coil, evaluate_forms
from .jacobi import JacobiSolver
from .profile import DelaunayProfile, build_chart, solve_profile


@dataclass
class ReductionSettings:
    """Grid sizes, quadrature resolutions and loop tolerances (desk scale).

    ``coulomb_t_stride`` sizes the y3 sub-grid of N's final rule, every
    stride-th t node, and is the finest sub-grid of the loop rule, which
    takes twice the stride where the profile allows (``LOOP_SUBGRID_TOL``).
    """

    kmax: int = 6
    ntheta: int = 16
    m_t: int = 48
    chart_grid: int = 768
    quad_resolution: tuple = (8, 16, 20)
    final_quad_resolution: tuple = (8, 28, 40)
    self_panel_q: int = 5
    self_core_q: int = 5
    self_column_q: int = 6
    final_self_q: int = 7
    coulomb_t_stride: int = 3
    tol_h: float = 1e-7
    max_iter: int = 40
    # Not a setting: the iteration sets c = 0 by construction.  The benchmark's
    # |c| check (perfbench/workloads.py) is its only reader; the benchmark
    # restatement on ROADMAP.md replaces that read by the fixed bound 1e-6 |d|,
    # and this line goes with it.
    tol_c_rel: ClassVar[float] = 1e-6

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        if self.chart_grid % self.m_t != 0:
            raise DomainError("chart_grid must be a multiple of m_t")
        if self.m_t % self.coulomb_t_stride != 0:
            raise DomainError("m_t must be a multiple of coulomb_t_stride")


@dataclass
class GammaLeading:
    """gamma_n = 2 I_a T_a / (V_a ln n) with the c3, c5 constants exposed."""

    gamma: float
    c3: float  # |Omega_0| / T
    c5: float  # 2 I_a / c3
    n: int


def gamma_leading(profile: DelaunayProfile, n: int) -> GammaLeading:
    if n < 8:
        raise DomainError("leading coupling defined for n >= 8")
    c3 = profile.V / profile.T
    c5 = 2.0 * profile.Ia / c3
    return GammaLeading(gamma=c5 / np.log(n), c3=c3, c5=c5, n=int(n))


@dataclass
class CoulombRule:
    """One quadrature rule of N: block rule, self-block orders and the
    (theta, y3) sub-grid on which N is integrated.

    The final rule's theta nodes are the sample grid's; the loop and coarse
    rules take the 2 (kmax + 1) equispaced nodes that fix N's angular modes
    0..kmax, the only ones a step reads (``_coulomb_samples``).
    """

    name: str                  # "coarse", "loop" or "final"
    quad: BlockQuadrature
    self_cfg: SelfBlockSettings
    y3_sub: np.ndarray         # the y3 nodes at which N is integrated
    theta: np.ndarray          # the theta nodes at which N is integrated


COARSE_TIER = ((8, 10), SelfBlockSettings(panel_q=3, core_q=3, column_q=4), 2)
"""The coarse rule tier of N: block rule (n_phi, n_z), self-block orders, and
the factor on the loop rule's y3 stride of its sub-grid (used where it
divides ``m_t``, else the loop stride).

N error against the final rule, sup |N - N_final| / sup |N_final| at
a = 0.3, n = 32 and the solved h, and the Coulomb time of one evaluation
(one thread of a shared 2-core host), on sub-grids of 17, 9 and 5 y3 rows
(both loop rules take 9 at this neck, ``LOOP_SUBGRID_TOL``):

    rule, y3 rows                          N error           time (FAST / desk)
    FAST loop (12, 14), q (4, 4, 5), 9     1.0e-6            13 ms
    desk loop (16, 20), q (5, 5, 6), 17    1.2e-7            46 ms
    desk loop (16, 20), q (5, 5, 6), 9     1.2e-7            24 ms
    tier (8, 10), q (3, 3, 4), 17          1.85e-5           21 ms (desk)
    tier (8, 10), q (3, 3, 4), 9           1.85e-5 / 1.90e-5 9 / 11 ms
    tier (8, 10), q (3, 3, 4), 5           1.83e-5 / 1.84e-5 6 / 7 ms

So the tier's error is eps <= 2e-5 at both settings, and half the loop's
rows cost it nothing.
"""

COARSE_UNTIL = 1e-3
"""Update size above which the next evaluation of N is on the coarse tier.

Inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982):
a step needs N only to an accuracy in proportion to its update.  The
iteration contracts by about 0.15 a step, so samples taken after an update
u feed a step of about 0.15 u.  With COARSE_UNTIL = 50 eps = 1e-3
(``COARSE_TIER``), the smallest step the tier feeds is 1.5e-4, and the
tier's error eps = 2e-5 stays below about a tenth of it; every later step is
fed by the loop rule.  The tier alone lands 1.1e-5 from gamma*, so it may
not finish a solve (relative shifts).  Against a solve with every evaluation on the loop
rule: on the Tier-1 cell (a = 0.3, n = 32), 1e-3 puts 3 of 10 evaluations
on the tier and moves gamma* by 1.2e-9, 1e-4 puts 4 and moves it by
5.8e-9, and 3e-5 puts 5 and moves it by 2.6e-8.  At 1e-3, the Tier-1 and
desk settings at n = 16, 32 and 64 keep their evaluation counts, and gamma*
moves by at most 1.6e-9.
"""

LOOP_SUBGRID_TOL = 2.5e-8
"""Largest error, max |f_sub - f| / max f over the t nodes, of the cosine
interpolant f_sub of the profile radius f from the loop rule's candidate y3
sub-grid, twice ``coulomb_t_stride``.

N is interpolated in t from the sub-grid as f is, and it is as hard to
resolve where the neck is thin.  At the desk settings (m_t = 48), n = 32 and
h = 0, on 9 rows (relative errors; the loop rule's against the final rule):

    a       f, 9 rows   N, 9 rows   loop rule   N 9 rows / loop rule
    0.1     1.5e-5      5.8e-5      3.0e-5      2.0
    0.2     4.6e-7      8.1e-7      8.0e-7      1.0
    0.26    4.7e-8      4.0e-8      9.2e-8      0.44
    0.27    3.1e-8      2.6e-8      9.7e-8      0.27
    0.275   2.5e-8      2.0e-8      1.0e-7      0.20
    0.28    2.0e-8      1.6e-8      1.05e-7     0.15
    0.3     8.1e-9      5.4e-9      1.2e-7      0.044
    0.4     1.4e-11     4.1e-11     2.1e-7      2e-4
    0.45    2.8e-14     5.4e-12     2.1e-7      3e-5
    0.48    4.3e-16     2.2e-12     2.1e-7      1e-5

From a = 0.1 to 0.4 N's error follows f's, at 0.7 to 4 times it; from
0.45 on f's is at rounding and N's stays below 1e-11.  A sub-grid may
serve the loop while its N error is at most a fifth of the loop rule's
own, so that it adds at most 20% to the error the loop already accepts;
that ratio reaches 1/5 at a = 0.275, where f's 9-row error is 2.5e-8.

Only twice the final stride is a candidate: the solved h adds axial
structure that f does not see.  At a = 0.45 and the solved h, N's 5-row
error is 3.4e-7, above the loop rule's 2.2e-7, though f's 5-row error is
6.8e-8 and N's at h = 0 is 4.5e-9.  At the Tier-1 ``m_t`` = 24 (9 rows at
stride 3) the candidate is 5 rows, which miss f by 6.8e-8 at a = 0.45 and
4.0e-8 at 0.455, so those settings keep their sub-grid on every neck the
loop solves.  From a = 0.46 (2.2e-8) they take 5 rows, and N's 5-row error
at a = 0.48, h = 0 is 1.9e-10 against the loop rule's 1.7e-6; no solve
converges there on either sub-grid (40 steps at 0.46, a folded graph by 0.47).
"""


def _loop_stride(solver: JacobiSolver, stride: int) -> int:
    """Twice ``stride`` where it divides m and the cosine interpolant of the
    profile radius f from its y3 sub-grid meets ``LOOP_SUBGRID_TOL``, else
    ``stride``."""
    f, coarse = solver.x, 2 * stride
    if solver.m % coarse == 0:
        fit = cos_eval(cos_coeffs(f[::coarse]), solver.t, solver.tau)
        if np.max(np.abs(fit - f)) <= LOOP_SUBGRID_TOL * np.max(f):
            return coarse
    return stride


class ReductionContext:
    """Chart, solver, quadrature rules and sample grids shared across iterations.

    The loop and final rules come from the settings.  The final rule takes N
    on every ``coulomb_t_stride``-th y3 node, the loop rule on every second
    of those where the profile allows (``LOOP_SUBGRID_TOL``), else on the
    final rule's sub-grid.  The final rule integrates every column of
    ``theta``, the loop and coarse rules the 2 (kmax + 1) theta nodes that
    fix the modes a step reads.  The coarse tier (``COARSE_TIER``) is built
    here once, and is the loop rule itself unless it is cheaper: no more
    (n_phi, n_z) nodes and no higher self-block order.
    """

    def __init__(self, profile: DelaunayProfile, n: int, settings: ReductionSettings):
        self.profile = profile
        self.n = int(n)
        self.settings = settings
        self.chart = build_chart(profile.a, grid_size=settings.chart_grid)
        self.solver = JacobiSolver(self.chart, kmax=settings.kmax, m=settings.m_t)
        self.theta = 2.0 * np.pi * np.arange(settings.ntheta) / settings.ntheta
        n_sub = 2 * (settings.kmax + 1)
        theta_sub = 2.0 * np.pi * np.arange(n_sub) / n_sub
        self.t_nodes = self.solver.t
        self.y3_nodes = self.solver.z
        stride = _loop_stride(self.solver, settings.coulomb_t_stride)
        loop_cfg = SelfBlockSettings(panel_q=settings.self_panel_q,
                                     core_q=settings.self_core_q,
                                     column_q=settings.self_column_q)
        self.loop_rule = CoulombRule("loop", BlockQuadrature(profile, settings.quad_resolution),
                                     loop_cfg, self.y3_nodes[::stride], theta_sub)
        q = settings.final_self_q
        self.final_rule = CoulombRule(
            "final", BlockQuadrature(profile, settings.final_quad_resolution),
            SelfBlockSettings(panel_q=q, core_q=q, column_q=q + 1),
            self.y3_nodes[::settings.coulomb_t_stride], self.theta)
        (nphi, nz), cfg, factor = COARSE_TIER
        n_r, loop_nphi, loop_nz = settings.quad_resolution
        tier_cost = (nphi * nz, cfg.panel_q, cfg.core_q, cfg.column_q)
        loop_cost = (loop_nphi * loop_nz, loop_cfg.panel_q, loop_cfg.core_q, loop_cfg.column_q)
        self.coarse_rule = self.loop_rule
        if tier_cost != loop_cost and all(a <= b for a, b in zip(tier_cost, loop_cost)):
            if settings.m_t % (factor * stride) == 0:
                stride *= factor
            self.coarse_rule = CoulombRule("coarse", BlockQuadrature(profile, (n_r, nphi, nz)),
                                           cfg, self.y3_nodes[::stride], theta_sub)

    def zero_field(self) -> SymmetricField:
        return self.solver.zero_field()


def _context(profile: DelaunayProfile, n: int, settings: ReductionSettings,
             ctx: ReductionContext) -> ReductionContext:
    """``ctx``, checked against (profile, n, settings), or a new context for them.

    A context holds the profile, chart, solver, rules and settings of one
    (a, n); one built for another (a, n), or given with other settings, raises
    DomainError, so no result is recorded at (a, n) or at settings from
    numbers computed with others.  ``settings`` None takes the context's.
    """
    if ctx is None:
        return ReductionContext(profile, n, settings or ReductionSettings())
    if ctx.profile.a != profile.a or ctx.n != n:
        raise DomainError(f"reduction context built for a = {ctx.profile.a}, n = {ctx.n}, "
                          f"used at a = {profile.a}, n = {n}")
    if settings is not None and settings != ctx.settings:
        built = vars(ctx.settings)
        diff = ", ".join(f"{k} = {v}" for k, v in vars(settings).items() if v != built[k])
        raise DomainError(f"settings {diff} differ from the reduction context's")
    return ctx


@dataclass
class EquationEval:
    field: SymmetricField      # G projected on the symmetry class
    c: float
    d: float
    residual: float            # sup |G - d| over the sample grid
    symmetry_residual: float   # angular components outside the class
    H: np.ndarray = dfield(repr=False)          # mean curvature samples
    N: np.ndarray = dfield(repr=False)          # Coulomb samples
    boundary: object = dfield(repr=False)       # solid_boundary of the evaluated h


def _coulomb_samples(ctx: ReductionContext, boundary, rule: CoulombRule) -> np.ndarray:
    """N on the rule's (theta, y3) sub-grid, taken to the sample grid
    (``ctx.theta``, every t node) by its theta modes and t cosine series.

    Every admissible h, and so N, is even under theta -> pi - theta, so each
    rule integrates one column of each mirror pair (``theta_mirror``) and
    copies it to the other; a mirrored column differs from its integrated
    one by rounding only (2e-14 relative at the desk and Tier-1 settings).
    Every integrated point goes to the on-surface kernel in one batch on the
    solid's ``boundary``.  A step reads N only through its theta modes
    0..kmax, which the 2 (kmax + 1) nodes of the loop and coarse rules fix
    up to the alias of modes kmax + 2 and above (Trefethen & Weideman, SIAM
    Review 56, 2014); N's modes fall about 40 times a mode at a = 0.3.  Those
    rules' N is projected on modes 0..kmax and evaluated on ``ctx.theta``.
    """
    theta, y3_sub = rule.theta, rule.y3_sub
    own, mirror = theta_mirror(len(theta))
    sub = np.empty((len(theta), len(y3_sub)))
    Ik = surface_potentials(ctx.profile, ctx.n, boundary, theta[own, None],
                            y3_sub[None, :], rule.quad, rule.self_cfg)
    sub[own] = Ik.sum(axis=1).reshape(len(own), len(y3_sub))
    sub[mirror[own]] = sub[own]
    if len(theta) != len(ctx.theta):
        fld = SymmetricField.from_samples(sub, ctx.solver.tau, ctx.settings.kmax)[0]
        sub = fld.grid_values(len(ctx.theta))
    return cos_eval(cos_coeffs(sub), ctx.t_nodes, ctx.solver.tau)


def _project_equation(ctx: ReductionContext, H: np.ndarray, N: np.ndarray, gamma: float,
                      boundary) -> EquationEval:
    """G = H + gamma N and its projections on the sample grid."""
    G = H + gamma * N
    fld, drop = SymmetricField.from_samples(G, ctx.solver.tau, ctx.settings.kmax)
    c, d = ctx.solver.project_coeffs(fld)
    residual = float(np.max(np.abs(G - d)))
    return EquationEval(field=fld, c=c, d=d, residual=residual, symmetry_residual=drop,
                        H=H, N=N, boundary=boundary)


def _equation_samples(ctx: ReductionContext, h: SymmetricField, rule: CoulombRule,
                      boundary=None):
    """(H, N, boundary) of h on the sample grid, as ``evaluate_equation`` takes
    them, N on ``rule``."""
    perturb = None if is_zero_field(h) else h
    patch = build_coil(ctx.profile, ctx.n, perturb, chart=ctx.chart)
    H = evaluate_forms(patch, ctx.theta[:, None], ctx.y3_nodes[None, :]).H
    if boundary is None:
        boundary = solid_boundary(ctx.profile, perturb, ctx.chart)
    return H, _coulomb_samples(ctx, boundary, rule), boundary


def _step(ctx: ReductionContext, H: np.ndarray, N: np.ndarray, boundary):
    """One Picard step from h's samples: (gamma, ev, delta, c, d).

    gamma = -c_H / c_N is the root of c(H + gamma N) = c_H + gamma c_N, ev
    is G = H + gamma N projected, and (delta, c, d) = T(G) is the update.
    """
    c_H, c_N = (ctx.solver.project_coeffs(
        SymmetricField.from_samples(S, ctx.solver.tau, ctx.settings.kmax)[0])[0] for S in (H, N))
    gamma = -c_H / c_N if c_N != 0.0 else np.inf
    if not 0.0 < gamma < np.inf:
        raise RootNotBracketed(f"c = {c_H:.3e} + gamma ({c_N:.3e}) has no root gamma > 0")
    ev = _project_equation(ctx, H, N, gamma, boundary)
    return (gamma, ev, *ctx.solver.solve_projected(ev.field))


def evaluate_equation(profile: DelaunayProfile, n: int, h: SymmetricField,
                      gamma: float, ctx: ReductionContext = None,
                      settings: ReductionSettings = None,
                      final: bool = False, boundary=None) -> EquationEval:
    """G = H + gamma N on the symmetric sample grid, with projections.

    lambda is identified with the d-projection; the returned residual is
    sup |G - d| over the grid (c reported separately).  N is integrated on
    every call, on ``boundary`` when the caller already holds h's solid
    boundary, else on one built here and returned with the samples.
    """
    ctx = _context(profile, n, settings, ctx)
    rule = ctx.final_rule if final else ctx.loop_rule
    H, N, boundary = _equation_samples(ctx, h, rule, boundary)
    return _project_equation(ctx, H, N, gamma, boundary)


@dataclass
class ReductionState:
    a: float
    n: int
    gamma: float
    h: SymmetricField
    c: float
    d: float
    residual: float
    iterations: int
    converged: bool
    h_norm: float
    symmetry_residual: float
    equation: EquationEval = dfield(repr=False, compare=False)  # the evaluation at h
    coulomb_integrations: int = 0  # Coulomb sample sets integrated, loop and final
    history: list = dfield(default_factory=list)  # every Picard step: its gamma, its N rule
    lambda_convention: str = "lambda = d-projection of G against hbar"
    residual_final: float = None  # sup |G - d| at the full-resolution report
    c_final: float = None

    @property
    def lam(self) -> float:
        return self.d


def fixed_point_solve(profile: DelaunayProfile, n: int,
                      settings: ReductionSettings = None,
                      ctx: ReductionContext = None) -> ReductionState:
    """Damped Picard iteration on (h, gamma) from h = 0: the driver of the
    step map ``_equation_samples`` then ``_step``.

    Each step sets gamma = -c_H / c_N from the current H and N samples, so
    G = H + gamma N has c = 0, and takes h <- h + step T(G).  The step halves
    while the update norm grows; a third growth in a row raises
    NoContraction.  The iteration stops once the update is below the
    context's ``tol_h``, or after its ``max_iter`` steps.  The returned state
    is the h after the last step, projected at the gamma that step used.

    N is integrated on the coarse tier at h = 0 and after each update above
    ``COARSE_UNTIL``, else on the loop rule.  The iteration stops only on a
    step whose samples were on the loop rule, and the evaluation at the h it
    returns is always on the loop rule, so a converged state's (gamma, c, d,
    residual) all come from loop-rule samples.  Each ``history`` row names
    the rule of the samples its step used.
    """
    ctx = _context(profile, n, settings, ctx)
    tol_h, max_iter = ctx.settings.tol_h, ctx.settings.max_iter
    h = ctx.zero_field()
    rule = ctx.coarse_rule
    H, N, boundary = _equation_samples(ctx, h, rule)
    history = []
    grow = 0
    converged = False
    for it in range(max_iter):
        gamma, ev, delta, c, d = _step(ctx, H, N, boundary)
        nd = delta.norm_sup()
        grow = grow + 1 if history and nd > history[-1]["delta_norm"] else 0
        if grow >= 3:
            raise NoContraction(f"update norm grew 3 times "
                                f"(last {nd:.3e} > {history[-1]['delta_norm']:.3e})")
        step = 0.5 ** grow
        h = h + step * delta
        history.append({"iter": it, "gamma": gamma, "delta_norm": nd, "c": c, "d": d,
                        "residual": ev.residual, "step": step, "rule": rule.name})
        small = nd < tol_h * max(1.0, h.norm_sup())
        converged = small and rule is ctx.loop_rule
        coarse = nd > COARSE_UNTIL and not small and it < max_iter - 1
        rule = ctx.coarse_rule if coarse else ctx.loop_rule
        H, N, boundary = _equation_samples(ctx, h, rule)
        if converged:
            break
    ev = _project_equation(ctx, H, N, gamma, boundary)
    # one sample set at h = 0 and one after each step
    return ReductionState(a=profile.a, n=int(n), gamma=float(gamma), h=h,
                          c=ev.c, d=ev.d, residual=ev.residual,
                          iterations=len(history), converged=converged,
                          h_norm=h.norm_sup(),
                          symmetry_residual=ev.symmetry_residual,
                          equation=ev, coulomb_integrations=len(history) + 1,
                          history=history)


def solve_gamma(profile: DelaunayProfile, n: int,
                settings: ReductionSettings = None,
                ctx: ReductionContext = None) -> ReductionState:
    """The (h, gamma) iteration of ``fixed_point_solve`` and a final-rule report.

    The solved (h, gamma) is evaluated once more on the final quadrature rule
    (the loop runs at reduced resolution); ``residual_final`` and ``c_final``
    report it, and ``coulomb_integrations`` counts the loop's sample sets
    and the report's.
    """
    if n < 16:
        raise DomainError("solve_gamma needs n >= 16")
    ctx = _context(profile, n, settings, ctx)
    state = fixed_point_solve(profile, n, ctx=ctx)
    fin = evaluate_equation(profile, n, state.h, state.gamma, ctx=ctx, final=True,
                            boundary=state.equation.boundary)
    state.residual_final = fin.residual
    state.c_final = fin.c
    state.coulomb_integrations += 1
    return state


@dataclass
class MassMap:
    a: float
    n: int
    gamma: float
    volume: float
    m: float
    volume_ratio: float  # volume / (n V_a)


def mass_map(profile: DelaunayProfile, n: int, settings: ReductionSettings = None,
             state: ReductionState = None, ctx: ReductionContext = None) -> MassMap:
    """m = gamma* |Omega~^n_h| at the solved coupling, on the context's chart.

    A ``state`` solved at another (a, n) raises DomainError.
    """
    ctx = _context(profile, n, settings, ctx)
    if state is None:
        state = solve_gamma(profile, n, ctx=ctx)
    elif state.a != profile.a or state.n != n:
        raise DomainError(f"reduction state solved at a = {state.a}, n = {state.n}, "
                          f"used at a = {profile.a}, n = {n}")
    vol = coil_volume(profile, n, state.h, ctx.chart)
    return MassMap(a=profile.a, n=int(n), gamma=state.gamma, volume=vol,
                   m=state.gamma * vol, volume_ratio=vol / (n * profile.V))


def _check_mass(m: float):
    """Refuse a target mass that is not finite and positive."""
    if not (np.isfinite(m) and m > 0.0):
        raise DomainError(f"mass {m} is not finite and positive")


def select_block_count(m: float, profile: DelaunayProfile) -> int:
    """Block-count heuristic n ~ [m (log m - log log m) C_a], C_a = 1/(2 I_a T_a)."""
    _check_mass(m)
    if m <= np.e:
        raise DomainError("mass too small for the block-count heuristic")
    Ca = 1.0 / (2.0 * profile.Ia * profile.T)
    return max(int(round(m * (np.log(m) - np.log(np.log(m))) * Ca)), 4)


def find_neck_for_mass(m: float, n: int, bracket=(0.1, 0.42),
                       settings: ReductionSettings = None,
                       max_bisect: int = 12,
                       rtol: float = 1e-3) -> MassMap:
    """Bisection on the neck parameter b so that mass_map(b, n).m = m.

    Returns the accepted neck's MassMap (its ``a`` is b), or the one at the
    midpoint of the last bracket when the bisection runs out.  A mass that
    is not finite and positive raises DomainError before anything is solved.
    """
    _check_mass(m)

    def mass_of(b):
        return mass_map(solve_profile(b), n, settings)

    lo, hi = bracket
    m_lo, m_hi = mass_of(lo).m, mass_of(hi).m
    if m_lo >= m_hi:
        raise BracketFailure(f"mass map not increasing on [{lo}, {hi}]: "
                             f"{m_lo:.4f} >= {m_hi:.4f}")
    if not (m_lo < m < m_hi):
        raise BracketFailure(f"target mass {m} outside [{m_lo:.4f}, {m_hi:.4f}]")
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        mm = mass_of(mid)
        if abs(mm.m - m) < rtol * m:
            return mm
        if mm.m < m:
            lo = mid
        else:
            hi = mid
    return mass_of(0.5 * (lo + hi))
