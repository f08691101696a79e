"""Coulomb potential and energy of coiled Delaunay regions.

Unrolling the coil through X(y) = (y1, (R+y2) cos(y3/R), (R+y2) sin(y3/R))
gives the exact chordal identity

    |X(x) - X(y)|^2 = |xbar - ybar|^2 + a_R^2 (1 + (x2+y2)/R + x2 y2 / R^2),
    a_R = 2 R sin((x3 - y3)/(2R)),

so the potential of the solid splits into blocks differing only through
a_{Rk} = 2 R sin(kT/(2R) + (x3-y3)/(2R)).  The block cut is re-centered at the
evaluation point (x3 in [y3 - T/2, y3 + T/2]), which keeps every k != 0 block
uniformly regular and puts the single integrable singularity in the k = 0
block.  In cylindrical coordinates the squared distance is an exact quadratic
in r (the kappa factor is linear in x2 = r sin phi), so each column integral
int r^m / sqrt(Q(r)) dr has a closed form; blocks need only a 2D (x3, phi)
rule, and the k = 0 log singularity is handled by graded panels plus a small
Duffy core around the evaluation point.

Every potential here is taken on the surface, by ``surface_potentials``.  The
coil energy needs no other kernel: scaling (Pohozaev) gives
D = 1/2 int int dx dy / |x - y| = (1/5) int_Sigma u (x . nu) dsigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import simpson
from scipy.optimize import brentq

from .errors import DomainError, NonConvergence, QuadratureDivergence, RootNotBracketed
from .fields import SymmetricField, is_zero_field, on_axis_derivatives, series_eval
from .geometry import build_coil, evaluate_forms
from .profile import ConformalChart, DelaunayProfile

DEFAULT_RESOLUTION = (24, 32, 48)  # (n_r, n_phi, n_z)
# Largest axial residual |y - shift - x3| accepted from the normal-graph
# Newton inversion; the radius interpolant reproduces it to the same 1e-9.
NEWTON_TOL = 1e-9
# Axial intervals of the half period [0, T/2] on which rho_h is sampled.
GRAPH_MZ = 48
# Elements per tile of the regular-block sweep and of the self-block columns
# over a batch of points: every temporary of one tile holds at most TILE
# doubles (96 KiB), whatever n, the node count and the batch size are.  The
# Duffy core and the normal graph's radius tables, which pay a call a tile,
# allow 4 TILE.
TILE = 12288
# (theta, y3) trapezoid nodes over one period of the coil energy's surface rule;
# the integrand is smooth and periodic, and 32 x 48 moves D by 5e-12.  Both
# counts are even and the first a multiple of 4, so the rule folds onto a quarter.
ENERGY_GRID = (16, 24)


# ---------------------------------------------------------------------------
# boundaries of the (possibly perturbed) solid in unrolled coordinates
# ---------------------------------------------------------------------------

class AxisymBoundary:
    """Unperturbed block boundary r = f(x3)."""

    def __init__(self, profile: DelaunayProfile):
        self.profile = profile

    def radius(self, phi, x3):
        x3 = np.asarray(x3, dtype=float)
        f = self.profile.evaluate(x3, order=0)[0]
        return np.broadcast_to(f, np.broadcast(phi, x3).shape).copy()

    def surface_point(self, theta, y3):
        """(r, x3) of the surface points over broadcast (theta, y3)."""
        theta, y3 = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                        np.asarray(y3, dtype=float))
        return self.profile.evaluate(y3, order=0)[0], y3


class NormalGraphBoundary:
    """Boundary of the normal-graph solid: r = rho_h(phi, x3).

    The graph point over (theta, y3) sits at radius f + h W and axial position
    y3 - f' h W; the radius function inverts the axial shift by Newton steps.
    rho_h inherits the symmetry class of h (theta -> pi - theta, x3 -> -x3,
    T-periodic), so it is sampled once on a tensor grid and stored as a
    Fourier-in-phi x cosine-in-x3 interpolant for fast batched evaluation.
    """

    def __init__(self, profile: DelaunayProfile, chart: ConformalChart,
                 h: SymmetricField, newton_iters: int = 3):
        self.profile = profile
        self.chart = chart
        self.h = h
        self.newton_iters = newton_iters
        nphi = max(4 * (h.kmax + 1) + 8, 24)
        self._tau = 0.5 * profile.T
        phi_s = 2.0 * np.pi * np.arange(nphi) / nphi
        x3_s = self._tau * np.arange(GRAPH_MZ + 1) / GRAPH_MZ
        # phi as an open axis: the exp(i k phi) tables hold its nphi values only
        rho, _ = SymmetricField.from_samples(
            self._radius_newton(phi_s[:, None], x3_s[None, :]), self._tau, nphi // 2 - 1)
        self._coef = rho.coeffs()

    def _graph(self, phi, y):
        f, fp, fpp = self.profile.evaluate(y, order=2)
        hv, _, h3 = on_axis_derivatives(self.h, self.chart, phi, y, order=1)
        W = 1.0 / np.sqrt(1.0 + fp * fp)
        Wp = -fp * fpp * W**3
        shift = fp * hv * W
        shift3 = fpp * hv * W + fp * h3 * W + fp * hv * Wp
        return f + hv * W, shift, shift3

    def _radius_newton(self, phi, x3):
        y = x3.copy()
        for _ in range(self.newton_iters):
            rad, shift, shift3 = self._graph(phi, y)
            y = y - (y - shift - x3) / (1.0 - shift3)
        rad, shift, _ = self._graph(phi, y)
        resid = float(np.max(np.abs(y - shift - x3)))
        if not resid <= NEWTON_TOL:
            raise NonConvergence(
                f"normal-graph axial inversion residual {resid:.3e} > {NEWTON_TOL:.0e} "
                f"after {self.newton_iters} Newton steps")
        return rad

    def radius(self, phi, x3):
        """rho_h at broadcast (phi, x3); open grids pay for distinct values only.

        The axial exp table holds GRAPH_MZ + 1 complex values for each x3
        value, so the leading axis of a larger call is taken in tiles whose
        tables hold at most 4 TILE doubles.
        """
        phi, x3 = np.asarray(phi, dtype=float), np.asarray(x3, dtype=float)
        if 2 * (GRAPH_MZ + 1) * x3.size <= 4 * TILE:
            return series_eval(self._coef, self._tau, phi, x3)[0]
        shape = np.broadcast_shapes(phi.shape, x3.shape)
        phi, x3 = (v.reshape((1,) * (len(shape) - v.ndim) + v.shape) for v in (phi, x3))
        rows = max(1, 2 * TILE * len(x3) // ((GRAPH_MZ + 1) * x3.size))
        out = np.empty(shape)
        for lo in range(0, shape[0], rows):
            p = slice(lo, lo + rows)
            out[p] = series_eval(self._coef, self._tau, phi[p] if len(phi) > 1 else phi,
                                 x3[p] if len(x3) > 1 else x3)[0]
        return out

    def surface_point(self, theta, y3):
        """(r, x3) of the graph points over broadcast (theta, y3)."""
        y3 = np.asarray(y3, dtype=float)
        rad, shift, _ = self._graph(np.asarray(theta, dtype=float), y3)
        return rad, y3 - shift


def solid_boundary(profile: DelaunayProfile, h: SymmetricField = None,
                   chart: ConformalChart = None):
    """The block boundary of the solid: the profile's for a zero h, else h's normal graph."""
    if is_zero_field(h):
        return AxisymBoundary(profile)
    if chart is None:
        raise DomainError("a nonzero normal graph h needs the conformal chart")
    return NormalGraphBoundary(profile, chart, h)


# ---------------------------------------------------------------------------
# closed-form radial moments
# ---------------------------------------------------------------------------

def _node_factors(P, r_eval, chi, phi):
    """The factors of the column kernel that do not involve a_k.

    Computed once per node set and shared by every a_k row of a sweep:
    sin(phi), P and, with vers = 1 - cos(chi) taken as 2 sin^2(chi/2) so that
    it keeps full precision at small chi, the kappa-free parts of b, Q(P),
    2P + b, 4c - b^2 and the kappa cross term of 4c - b^2.
    """
    vers = 2.0 * np.sin(0.5 * chi) ** 2
    two_p = 2.0 * P
    return {"sin_phi": np.sin(phi), "P": P, "two_p": two_p, "r2": r_eval * r_eval,
            "b0": -2.0 * r_eval * (1.0 - vers),
            "Q0": (P - r_eval) ** 2 + two_p * r_eval * vers,
            "up0": 2.0 * (P - r_eval + r_eval * vers),
            "disc0": 4.0 * (r_eval * np.sin(chi)) ** 2,
            "disc1": 4.0 * r_eval * (1.0 - vers)}


def _scratch(shape):
    """Work arrays of one tile of ``_column_values``.

    Eight float arrays and one bool of the tile shape, then five float
    arrays of its lattice: the tile shape with the last (phi or chi) axis
    collapsed, over which a_k and every factor of a_k alone are constant.
    Callers allocate them once per sweep and keep them in their own frame,
    so concurrent sweeps (worker threads) never share them.
    """
    lattice = shape[:-1] + (1,) if shape else ()
    return ([np.empty(shape) for _ in range(8)] + [np.empty(shape, dtype=bool)]
            + [np.empty(lattice) for _ in range(5)])


def _radial_moments(g, blin, cadd, s):
    """(M0, M1, M2) with M_m = int_0^P r^m / sqrt(r^2 + b r + c) dr, in scratch ``s``.

    b = -2 r_eval cos_chi + blin, c = r_eval^2 + cadd, with cadd >= 0 and
    blin the (signed, small) linear kappa term; ``g`` holds the node factors
    of ``_node_factors``.  ``blin`` may be ``s[1]`` and is overwritten then;
    ``cadd`` holds lattice values (it may be ``s[10]``), and c, sqrt(c),
    2 sqrt(c), 4 cadd and 4c stay on the lattice too, broadcast only where a
    node factor enters.  All expressions are grouped so near-singular columns
    keep full precision, and each is evaluated in the operation order of the
    allocating reference kept in the tests, so the bits do not depend on the
    buffering or on the lattice.
    """
    A, B, C, D, E, F, G, H, neg, cadd4, _, c, sc, sc2 = s
    np.add(g["b0"], blin, out=C)                                   # b
    np.add(g["r2"], cadd, out=c)                                   # c
    # Q(P) assembled from nonnegative geometric pieces
    np.multiply(blin, g["P"], out=E)
    np.add(g["Q0"], E, out=E)
    np.add(E, cadd, out=E)
    np.maximum(E, 0.0, out=E)
    np.sqrt(E, out=E)                                              # sqrt(Q(P))
    np.sqrt(c, out=sc)                                             # sqrt(c)
    # 2P + b without the cancellation of P against r_eval cos_chi
    np.multiply(E, 2.0, out=G)
    np.add(G, g["up0"], out=G)
    np.add(G, blin, out=G)                                         # up
    # 4c - b^2 = 4 [r sin(chi)]^2 + positive kappa terms (stable when b < 0)
    np.multiply(cadd, 4.0, out=cadd4)
    np.add(g["disc0"], cadd4, out=A)
    np.multiply(g["disc1"], blin, out=H)
    np.add(A, H, out=A)
    np.multiply(blin, blin, out=B)
    np.subtract(A, B, out=A)
    np.maximum(A, 1e-300, out=A)                                   # disc
    # one log of the selected argument (the b < 0 form rationalizes 2 sqrt(c) + b)
    np.multiply(sc, 2.0, out=sc2)
    np.add(sc2, C, out=H)
    np.maximum(H, 1e-300, out=H)
    np.maximum(G, 1e-300, out=B)
    np.divide(B, H, out=B)                                         # b >= 0
    np.subtract(sc2, C, out=H)
    np.multiply(G, H, out=H)
    np.maximum(H, 1e-300, out=H)
    np.divide(H, A, out=H)                                         # b < 0
    np.less(C, 0.0, out=neg)
    np.copyto(B, H, where=neg)
    np.log(B, out=B)                                               # M0
    np.subtract(E, sc, out=A)
    np.multiply(C, 0.5, out=G)
    np.multiply(G, B, out=G)
    np.subtract(A, G, out=A)                                       # M1
    np.multiply(C, 3.0, out=H)                                     # 3b
    np.subtract(g["two_p"], H, out=G)
    np.multiply(G, E, out=G)
    np.multiply(H, sc, out=F)
    np.add(G, F, out=G)
    np.divide(G, 4.0, out=G)
    np.multiply(c, 4.0, out=c)                                     # 4c
    np.multiply(H, C, out=H)
    np.subtract(c, H, out=D)
    np.divide(D, 8.0, out=D)
    np.multiply(D, B, out=D)
    np.subtract(G, D, out=G)                                       # M2
    return B, A, G


def _column_values(g, ak, kap, R, s):
    """Column integrals int_0^P (1 + r sin(phi)/R) r / sqrt(Q) dr, into ``s[0]``.

    ``g`` holds the node factors, ``ak`` the block offsets a_k on the
    lattice (it may be ``s[9]`` itself) and kap = 1 + y2 / R; ``s`` is a
    ``_scratch`` set of the broadcast shape.  a_k^2 and cadd = a_k^2 kap
    are formed on the lattice.
    """
    B, a2, cadd = s[1], s[9], s[10]
    np.multiply(ak, ak, out=a2)
    np.multiply(a2, g["sin_phi"], out=B)
    np.multiply(B, kap, out=B)
    np.divide(B, R, out=B)                                         # blin
    np.multiply(a2, kap, out=cadd)
    _, M1, M2 = _radial_moments(g, B, cadd, s)
    np.multiply(g["sin_phi"], M2, out=M2)
    np.divide(M2, R, out=M2)
    return np.add(M1, M2, out=M1)


# ---------------------------------------------------------------------------
# 1D rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gl(q):
    x, w = leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


def _panel_rule(edges, q):
    """Composite Gauss-Legendre nodes/weights on consecutive [e_i, e_{i+1}].

    Edges run along the last axis; leading axes are separate rules.
    """
    x01, w01 = _gl(q)
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges, axis=-1)[..., None]
    shape = edges.shape[:-1] + (-1,)
    nodes = (edges[..., :-1, None] + widths * x01).reshape(shape)
    weights = (widths * w01).reshape(shape)
    return nodes, weights


def _graded_edges(start, stop, h0, ratio=2.0):
    """Edges from start to stop with first width h0 growing geometrically."""
    edges = [start]
    w = h0
    x = start
    while x + w < stop:
        x += w
        edges.append(x)
        w *= ratio
    edges.append(stop)
    return np.asarray(edges)


def _sym_graded_rule(delta, outer, h0, q, ratio=2.0):
    """Nodes on [-outer, -delta] u [delta, outer], graded toward +-delta."""
    e = _graded_edges(delta, outer, h0, ratio)
    n, w = _panel_rule(e, q)
    return np.concatenate((-n[::-1], n)), np.concatenate((w[::-1], w))


def _stack_rules(rules):
    """(P, L) nodes and weights of P 1-D rules of up to L nodes.

    Each shorter row is padded with zero-weight copies of its last node.
    """
    L = max(len(x) for x, _ in rules)
    nodes = np.empty((len(rules), L))
    weights = np.zeros((len(rules), L))
    for i, (x, w) in enumerate(rules):
        nodes[i, :len(x)] = x
        nodes[i, len(x):] = x[-1]
        weights[i, :len(w)] = w
    return nodes, weights


# ---------------------------------------------------------------------------
# quadrature configuration and block rule
# ---------------------------------------------------------------------------

@dataclass
class SelfBlockSettings:
    """Singular k = 0 block: quadrature orders and chi grading."""

    panel_q: int = 7
    core_q: int = 7
    column_q: int = 8
    grade_ratio: float = 2.0

    def core_size(self, a_neck: float, T: float) -> float:
        return min(a_neck, T / 8.0) / 4.0

    def refined(self) -> "SelfBlockSettings":
        return SelfBlockSettings(panel_q=self.panel_q + 2,
                                 core_q=self.core_q + 2, column_q=self.column_q + 2,
                                 grade_ratio=min(self.grade_ratio, 1.7))


@dataclass
class BlockQuadrature:
    """Quadrature over one block of the solid in cylindrical coordinates.

    ``resolution`` = (n_r, n_phi, n_z).  Every integral over the solid takes
    r in closed form on the (n_phi, n_z) product rule, so no rule reads n_r.
    """

    profile: DelaunayProfile
    resolution: tuple = DEFAULT_RESOLUTION

    def __post_init__(self):
        n_r, n_phi, n_z = self.resolution
        if min(n_r, n_phi, n_z) < 2:
            raise DomainError("block quadrature resolution too small")
        T = self.profile.T
        xi, wxi = _gl(n_z)
        self.z_nodes = (xi - 0.5) * T
        self.z_weights = wxi * T
        self.phi_nodes = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        self.phi_weights = np.full(n_phi, 2.0 * np.pi / n_phi)

    def nodes2d(self, y3_center, boundary):
        """(x3, phi, rho_b, w) product rule centred at y3_center, on its lattice.

        x3 has shape centres + (n_z,) and rho_b centres + (n_z, n_phi), from
        one ``radius`` call; phi (n_phi,) and the weights w (n_z, n_phi) are
        shared by every centre.
        """
        x3 = np.asarray(y3_center, dtype=float)[..., None] + self.z_nodes
        return (x3, self.phi_nodes, boundary.radius(self.phi_nodes[None, :], x3[..., None]),
                np.outer(self.z_weights, self.phi_weights))


@dataclass
class CoulombResult:
    value: float
    breakdown: np.ndarray
    err_est: Optional[float] = None


def _columns(boundary, R, theta, y3c, r_eval, xi, wxi, chi, wchi, depth=None, rho_b=None):
    """Analytic-r columns of the k = 0 block summed on a (xi, chi) rule, one value a point.

    theta, y3c, r_eval (and ``depth``) hold one value a point and chi, wchi
    one row a point; the xi rule is shared.  Each column runs from the axis
    to rho_b, or to rho_b - depth; ``rho_b`` (points, xi, chi) passes radii
    the caller already has, else they come from ``boundary``.  Points are
    taken in tiles of max(1, TILE // (xi nodes x chi nodes)), so, as in the
    regular blocks, every temporary holds at most TILE doubles whatever the
    batch size, and one ``_scratch`` set serves every tile.
    """
    XI = xi[:, None]
    ak = 2.0 * R * np.sin(XI / (2.0 * R))
    rows = max(1, TILE // (len(xi) * chi.shape[1]))
    scratch = _scratch((min(rows, len(chi)), len(xi), chi.shape[1]))
    out = np.empty(len(chi))
    for lo in range(0, len(chi), rows):
        p = slice(lo, lo + rows)
        th, z3, r = (v[p, None, None] for v in (theta, y3c, r_eval))
        CHI = chi[p, None, :]
        phi = th + CHI
        P = boundary.radius(phi, z3 + XI) if rho_b is None else rho_b[p]
        if depth is not None:
            P = np.maximum(P - depth[p, None, None], 0.0)
        s = [v[:len(chi) - lo] for v in scratch]
        vals = _column_values(_node_factors(P, r, CHI, phi), ak, 1.0 + r * np.sin(th) / R,
                              R, s)
        np.multiply(vals, wxi[:, None] * wchi[p, None, :], out=vals)
        out[p] = vals.sum(axis=(1, 2))
    return out


def _self_block(boundary, R, T, theta, y3c, r_eval, cfg: SelfBlockSettings, a_neck: float):
    """Singular k = 0 block integral at on-surface points, one value a point.

    theta, y3c and r_eval are 1-D arrays of points.  Graded analytic-r
    columns away from the evaluation point, closed-form columns with the
    depth window [0, d_eta] removed over the footprint, and a Duffy-pyramid
    core in depth coordinates eta = rho_b - r around the singular point.
    The xi rules are shared by every point; the chi rules scale with
    d_chi(r_eval) and are stacked one row a point.
    """
    rho = cfg.core_size(a_neck, T)
    d_xi = min(rho, T / 4.0)
    d_chi = np.minimum(rho / np.maximum(r_eval, rho), np.pi / 2.0)
    q = cfg.panel_q

    def columns(xi_rule, chi_rule, depth=None, rho_b=None):
        return _columns(boundary, R, theta, y3c, r_eval, *xi_rule, *chi_rule, depth, rho_b)

    xi_out = _sym_graded_rule(d_xi, T / 2.0, d_xi, q)
    chi_full = _stack_rules([_sym_graded_rule(0.0, np.pi, d, q, cfg.grade_ratio)
                             for d in d_chi])
    total = columns(xi_out, chi_full)

    xi_in = _panel_rule(np.array([-d_xi, 0.0, d_xi]), cfg.column_q)
    chi_out = _stack_rules([_sym_graded_rule(d, np.pi, d, q) for d in d_chi])
    total += columns(xi_in, chi_out)

    # footprint: columns with the depth window [0, d_eta] removed ...
    fp_chi = _panel_rule(np.stack((-d_chi, np.zeros_like(d_chi), d_chi), axis=-1),
                         cfg.column_q)
    fp_rho = boundary.radius(theta[:, None, None] + fp_chi[0][:, None, :],
                             y3c[:, None, None] + xi_in[0][:, None])
    d_eta = np.minimum(rho, 0.45 * fp_rho.min(axis=(1, 2)))
    total += columns(xi_in, fp_chi, depth=d_eta, rho_b=fp_rho)

    # ... and the Duffy core over the window, apex at the singular point
    total += _duffy_core(boundary, R, theta, y3c, r_eval, d_xi, d_chi, d_eta, cfg.core_q)
    return total


def _duffy_core(boundary, R, theta, y3c, r_eval, d_xi, d_chi, d_eta, q):
    """Pyramid decomposition of the core box in (xi, chi, eta) coordinates.

    The box is |xi| <= d_xi, |chi| <= d_chi, 0 <= eta <= d_eta with the
    apex at the singular point; theta, y3c, r_eval, d_chi and d_eta hold
    one value a point, and the faces carry a leading point axis.  A face's
    largest temporary is the exp table of its ``radius`` call on the normal
    graph: GRAPH_MZ + 1 complex values for each of the face's q^2 axial
    positions, 2 (GRAPH_MZ + 1) q^2 doubles a point, where the face grid
    holds q^3.  A tile pays one radius call and some thirty array operations
    a face whatever its size, so it is allowed 4 TILE doubles of table, the
    bound ``NormalGraphBoundary.radius`` keeps: tiles of
    max(1, 2 TILE // ((GRAPH_MZ + 1) q^2)) points, 10 at q = 7 and 31 at
    q = 4.  A point's face sums do not depend on the tile it falls in.
    """
    u, wu = _gl(q)
    U = u[:, None, None]
    W = wu[:, None, None] * wu[None, :, None] * wu[None, None, :] * U * U
    rows = max(1, 2 * TILE // ((GRAPH_MZ + 1) * q * q))
    out = np.empty(len(theta))
    for lo in range(0, len(theta), rows):
        p = slice(lo, lo + rows)
        out[p] = _duffy_faces(boundary, R, theta[p], y3c[p], r_eval[p], d_xi, d_chi[p],
                              d_eta[p], u, W)
    return out


def _duffy_faces(boundary, R, theta, y3c, r_eval, d_xi, d_chi, d_eta, u, W):
    """Sum of the five pyramid faces of ``_duffy_core`` over one tile of points."""
    theta, y3c, r_eval, d_chi, d_eta = (np.reshape(v, (-1, 1, 1, 1))
                                        for v in (theta, y3c, r_eval, d_chi, d_eta))
    y2 = r_eval * np.sin(theta)
    U = u[:, None, None]
    lo = (-d_xi, -d_chi, 0.0)
    hi = (d_xi, d_chi, d_eta)
    # the eta = d_eta face only when the depth window is not degenerate
    keep = (d_eta > 1e-14 * np.maximum(d_xi, d_eta)).ravel()

    total = 0.0
    for axis, D in ((0, lo[0]), (0, hi[0]), (1, lo[1]), (1, hi[1]), (2, hi[2])):
        others = [a for a in (0, 1, 2) if a != axis]
        rel = {axis: D}
        for a, s in zip(others, (u[:, None], u)):  # the face's two free axes
            rel[a] = lo[a] + (hi[a] - lo[a]) * s
        xi = U * rel[0]
        chi = U * rel[1]
        eta = U * rel[2]
        phi = theta + chi
        rho_b = boundary.radius(phi, y3c + xi)
        r = rho_b - eta
        ak = 2.0 * R * np.sin(xi / (2.0 * R))
        kap = 1.0 + (r * np.sin(phi) + y2) / R + r * np.sin(phi) * y2 / R**2
        dist2 = (r - r_eval) ** 2 + 4.0 * r * r_eval * np.sin(0.5 * chi) ** 2 + ak * ak * kap
        kern = (1.0 + r * np.sin(phi) / R) * r / np.sqrt(np.maximum(dist2, 1e-300))
        WW = (W * np.abs(D)
              * (hi[others[0]] - lo[others[0]]) * (hi[others[1]] - lo[others[1]]))
        face = np.sum(kern * WW, axis=(1, 2, 3))
        total = total + (np.where(keep, face, 0.0) if axis == 2 else face)
    return total


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def _regular_blocks(nodes, n, R, T, theta, y3c, r_eval):
    """I_k for k = 1..n-1 via the analytic-r column rule, one row a point.

    theta, y3c and r_eval are 1-D arrays of points, and ``nodes`` is the
    lattice rule of ``BlockQuadrature.nodes2d`` centred at y3c: x3 (points,
    n_z), phi (n_phi,), rho_b (points, n_z, n_phi), w (n_z, n_phi).  A tile
    is (points, k, n_z, n_phi): when a point's whole sweep, (n - 1) x
    nodes, fits in TILE, a tile carries max(1, TILE // ((n - 1) x nodes))
    points; otherwise it holds one point and k is swept in
    max(1, TILE // nodes) rows.  The node factors are formed once per tile
    of points, and a_k = 2R sin((kT + x3 - y3c)/(2R)) once per (point, k,
    z node), broadcast over phi, all through one ``_scratch`` set.  Each
    row keeps its own reduction over the flat node axis, so neither the
    tiling nor the lattice changes a single bit.
    """
    x3, phi, rho_b, w = nodes
    rows = min(n - 1, max(1, TILE // w.size))
    pts = min(len(theta), max(1, TILE // (rows * w.size)))
    kT = np.arange(1, n)[:, None, None] * T
    scratch = _scratch((pts, rows) + w.shape)
    Ik = np.empty((len(theta), n - 1))
    for p0 in range(0, len(theta), pts):
        p = slice(p0, p0 + pts)
        th, r = theta[p, None, None, None], r_eval[p, None, None, None]
        g = _node_factors(rho_b[p, None], r, phi - th, phi)
        kap = 1.0 + r * np.sin(th) / R
        dx3 = (x3[p] - y3c[p, None])[:, None, :, None]
        for lo in range(0, n - 1, rows):
            s = [v[:len(theta) - p0, :n - 1 - lo] for v in scratch]
            ak = s[9]
            np.add(kT[lo:lo + rows], dx3, out=ak)
            np.divide(ak, 2.0 * R, out=ak)
            np.sin(ak, out=ak)
            np.multiply(ak, 2.0 * R, out=ak)
            vals = _column_values(g, ak, kap, R, s)
            np.multiply(vals, w, out=vals)
            vals.reshape(vals.shape[:2] + (-1,)).sum(axis=2, out=Ik[p, lo:lo + rows])
    return Ik


def potential_coil(profile: DelaunayProfile, n: int, y, quad: BlockQuadrature = None,
                   self_cfg: SelfBlockSettings = None, error_estimate: bool = True,
                   divergence_rtol: float = 1e-3) -> CoulombResult:
    """Newton potential of the coiled solid at the surface point y = (theta, y3).

    Sums the per-block integrals I_k; the k = 0 self block uses the
    desingularized rule.  With ``error_estimate`` the whole sum is recomputed
    at one refinement step and the difference reported (the refined value is
    returned).
    """
    return _potential_at(AxisymBoundary(profile), profile, n, y, quad, self_cfg,
                         error_estimate, divergence_rtol)


def potential_perturbed(profile: DelaunayProfile, n: int, h: SymmetricField, y,
                        chart: ConformalChart = None, quad: BlockQuadrature = None,
                        self_cfg: SelfBlockSettings = None, error_estimate: bool = True,
                        divergence_rtol: float = 1e-3) -> CoulombResult:
    """Potential of the normal-graph solid at the moved point X(y_h).

    h = 0 reduces exactly to potential_coil (same code path).
    """
    boundary = solid_boundary(profile, h, chart)
    if isinstance(boundary, AxisymBoundary):
        return potential_coil(profile, n, y, quad, self_cfg, error_estimate, divergence_rtol)
    return _potential_at(boundary, profile, n, y, quad, self_cfg,
                         error_estimate, divergence_rtol)


def surface_potentials(profile: DelaunayProfile, n: int, boundary, theta, y3,
                       quad: BlockQuadrature, self_cfg: SelfBlockSettings) -> np.ndarray:
    """Block integrals I_k, k = 0..n-1, at the surface points over (theta, y3).

    theta and y3 broadcast to a batch of points; row p of the (points, n)
    result is the breakdown of point p, whose potential is the row sum.
    The surface points come from one ``surface_point`` call and their
    regular-block nodes from one ``nodes2d`` call; the regular blocks and
    the singular self block each run once over the whole batch, in tiles of
    points.
    """
    if n < 4:
        raise DomainError("coil potential needs n >= 4")
    theta, y3 = (v.ravel() for v in np.broadcast_arrays(np.asarray(theta, dtype=float),
                                                         np.asarray(y3, dtype=float)))
    T = profile.T
    R = n * T / (2.0 * np.pi)
    r_eval, y3c = boundary.surface_point(theta, y3)
    Ik = np.empty((len(theta), n))
    Ik[:, 1:] = _regular_blocks(quad.nodes2d(y3c, boundary), n, R, T, theta, y3c, r_eval)
    Ik[:, 0] = _self_block(boundary, R, T, theta, y3c, r_eval, self_cfg, profile.a)
    return Ik


def _potential_at(boundary, profile, n, y, quad, self_cfg, error_estimate, divergence_rtol):
    quad = quad or BlockQuadrature(profile)
    self_cfg = self_cfg or SelfBlockSettings()

    def one_pass(q2d, cfg):
        return surface_potentials(profile, n, boundary, float(y[0]), float(y[1]), q2d, cfg)[0]

    Ik = one_pass(quad, self_cfg)
    err = None
    if error_estimate:
        n_r, n_phi, n_z = quad.resolution
        fine = BlockQuadrature(profile, (n_r, int(n_phi * 1.5), int(n_z * 1.5)))
        Ik_f = one_pass(fine, self_cfg.refined())
        err = float(abs(Ik_f.sum() - Ik.sum()))
        if err > divergence_rtol * max(abs(Ik_f.sum()), 1.0):
            raise QuadratureDivergence(
                f"potential refinement moved by {err:.3e} (value {Ik_f.sum():.6e})")
        Ik = Ik_f
    return CoulombResult(value=float(Ik.sum()), breakdown=Ik, err_est=err)


def toroidal_potential_reference(profile: DelaunayProfile, n: int, y, q: int = 4,
                                 boundary=None) -> float:
    """Brute-force oracle: raw R^3 quadrature over the full coiled solid.

    Global toroidal coordinates (ring angle, cross-section polar), graded
    midpoint-free panels toward the evaluation point, no block decomposition
    and no chordal identity.  Accuracy ~0.1-1%; independent of the block path.
    ``boundary`` (default the unperturbed one) gives the section radius
    rho_b(polar angle, R * ring angle) and the surface point over y.
    """
    theta, y3 = float(y[0]), float(y[1])
    boundary = boundary or AxisymBoundary(profile)
    T = profile.T
    R = n * T / (2.0 * np.pi)
    r_y, y3c = boundary.surface_point(theta, y3)
    # evaluation point in R^3
    ang_y = y3c / R
    P0 = np.array([r_y * np.cos(theta),
                   (R + r_y * np.sin(theta)) * np.cos(ang_y),
                   (R + r_y * np.sin(theta)) * np.sin(ang_y)])

    # ring angle panels graded toward ang_y (period 2 pi)
    span = np.pi * 2.0
    e = _graded_edges(0.0, span / 2.0, T / (4.0 * R), 1.7)
    ang_r, ang_w = _panel_rule(e, q)
    ang = np.concatenate((ang_y - ang_r[::-1], ang_y + ang_r))
    ang_w = np.concatenate((ang_w[::-1], ang_w))
    # cross-section polar angle graded toward theta
    e2 = _graded_edges(0.0, np.pi, 0.05, 1.7)
    tt_r, tt_w = _panel_rule(e2, q)
    tt = np.concatenate((theta - tt_r[::-1], theta + tt_r))
    tt_w = np.concatenate((tt_w[::-1], tt_w))
    # radial coordinate graded toward the boundary
    e3 = 1.0 - _graded_edges(0.0, 1.0, 0.02, 1.6)[::-1]
    rr, rr_w = _panel_rule(e3, q)

    # section radius at axial arc position R * ang and polar angle tt
    F = boundary.radius(tt[None, :], R * ang[:, None])

    A, Tt = np.meshgrid(ang, tt, indexing="ij")
    WA, WTt = np.meshgrid(ang_w, tt_w, indexing="ij")
    total = 0.0
    for j, r01 in enumerate(rr):
        rho = F * r01
        c1 = rho * np.cos(Tt)
        c2 = rho * np.sin(Tt)
        px = c1
        py = (R + c2) * np.cos(A)
        pz = (R + c2) * np.sin(A)
        d = np.sqrt((px - P0[0]) ** 2 + (py - P0[1]) ** 2 + (pz - P0[2]) ** 2)
        dV = WA * WTt * rho * (R + c2) * F * rr_w[j]
        total += float(np.sum(dV / d))
    return total


# ---------------------------------------------------------------------------
# energies, balls, critical mass
# ---------------------------------------------------------------------------

BALL_UNIT_COULOMB = 16.0 * np.pi**2 / 15.0  # D(B_1)


def ball_potential_exact(s, radius: float = 1.0):
    """Newton potential of the unit-density ball, closed form."""
    s = np.asarray(s, dtype=float)
    inside = 2.0 * np.pi * (radius**2 - s**2 / 3.0)
    outside = (4.0 * np.pi / 3.0) * radius**3 / np.maximum(s, 1e-300)
    return np.where(s <= radius, inside, outside)


def ball_potential_radial(s, radius: float = 1.0, n_nodes: int = 2001):
    """Same potential by 1D radial quadrature over spherical shells."""
    rho = np.linspace(0.0, radius, n_nodes)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s)
    for i, si in enumerate(s):
        integrand = 4.0 * np.pi * rho**2 / np.maximum(np.maximum(si, rho), 1e-300)
        out[i] = simpson(integrand, x=rho)
    return out if out.size > 1 else float(out[0])


def ball_coulomb_energy(radius: float = 1.0) -> float:
    return BALL_UNIT_COULOMB * radius**5


def ball_energy(m: float) -> float:
    """Perimeter + Coulomb energy of the ball with volume m."""
    r = (3.0 * m / (4.0 * np.pi)) ** (1.0 / 3.0)
    return 4.0 * np.pi * r * r + ball_coulomb_energy(r)


def coulomb_energy(region, quad: BlockQuadrature = None,
                   self_cfg: SelfBlockSettings = None) -> float:
    """D(Omega) = 1/2 int int dx dy / |x - y|.

    region is ("ball", radius) or ("coil", profile, n).  Ball by the radial
    closed form; coil by the Pohozaev identity D = (1/5) int_Sigma u (x . nu)
    dsigma, with u from ``surface_potentials`` on the ENERGY_GRID trapezoid
    rule over one period and x measured from the coil centre, so every block
    contributes the same.  The integrand is even under theta -> pi - theta
    and y3 -> -y3, so the rule runs over the quarter theta in [pi/2, 3pi/2],
    y3 in [-T/2, 0], counting each node once on the lines a map fixes and
    twice elsewhere.
    """
    kind = region[0]
    if kind == "ball":
        return ball_coulomb_energy(region[1])
    if kind != "coil":
        raise DomainError(f"unknown region kind {kind!r}")
    profile, n = region[1], int(region[2])
    quad = quad or BlockQuadrature(profile)
    self_cfg = self_cfg or SelfBlockSettings()
    n_th, n_z = ENERGY_GRID
    T = profile.T
    i = np.arange(n_th // 4, 3 * n_th // 4 + 1)
    j = np.arange(n_z // 2 + 1)
    theta, y3 = np.meshgrid(2.0 * np.pi * i / n_th, T * (j / n_z - 0.5), indexing="ij")
    mult = np.outer(np.where((i == i[0]) | (i == i[-1]), 1.0, 2.0),
                    np.where((j == j[0]) | (j == j[-1]), 1.0, 2.0))
    u = surface_potentials(profile, n, AxisymBoundary(profile), theta, y3, quad,
                           self_cfg).sum(axis=1).reshape(theta.shape)
    patch = build_coil(profile, n)
    forms = evaluate_forms(patch, theta, y3)
    x_nu = np.sum(patch.position(theta, y3) * forms.normal, axis=-1)
    dsigma = np.sqrt(np.linalg.det(forms.g))
    w = 2.0 * np.pi * T / (n_th * n_z)
    return float(n * w * np.sum(mult * u * x_nu * dsigma) / 5.0)


CRITICAL_MASS_CLOSED_FORM = 5.0 * (2.0 ** (1.0 / 3.0) - 1.0) / (1.0 - 2.0 ** (-2.0 / 3.0))


def critical_mass(bracket=(1.0, 8.0)):
    """Root of E(m) = 2 E(m/2) for balls; returns (numeric, closed_form)."""

    def gap(m):
        return ball_energy(m) - 2.0 * ball_energy(m / 2.0)

    lo, hi = bracket
    if gap(lo) * gap(hi) > 0.0:
        raise RootNotBracketed(f"E(m) - 2E(m/2) does not change sign on {bracket}")
    root = brentq(gap, lo, hi, xtol=1e-12, rtol=1e-14)
    return float(root), CRITICAL_MASS_CLOSED_FORM


def coil_volume(profile: DelaunayProfile, n: int, h: SymmetricField = None,
                chart: ConformalChart = None) -> float:
    """|Omega~^n_h| by the exact-in-r rule: n int (rho^2/2 + sin(phi) rho^3/(3R)) dphi dx3.

    The (phi, x3) rule is the block rule with 64 midpoints in phi and 48
    Gauss nodes in x3 (its r nodes are not used).
    """
    R = n * profile.T / (2.0 * np.pi)
    boundary = solid_boundary(profile, h, chart)
    _, phi, rho, w = BlockQuadrature(profile, (2, 64, 48)).nodes2d(0.0, boundary)
    vals = rho**2 / 2.0 + np.sin(phi) * rho**3 / (3.0 * R)
    return float(n * np.sum(w * vals))
