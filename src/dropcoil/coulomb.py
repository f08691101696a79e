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

Far blocks come from a multipole expansion.  Block k is the evaluation
point's window block turned by kT/R about the coil axis, so from n = FAR_MIN_N
on, each point forms the window's moments once, to order FAR_ORDER = 8, about
X(0, 0, y3c): row by row in closed form in r, summed on phi against a cached
harmonic table and carried to the centre by the addition theorem.  The blocks
FAR_K0 = 8 .. n - FAR_K0 are that expansion evaluated at the point turned by
-kT/R: O(L^2) work a block instead of O(nodes), with a truncation below 1e-13
a block.  The near blocks stay on the closed-form columns, with the separated
kernel: no regular block's column line comes near the evaluation point, so
only the self block's columns with |xi| <= d_xi need the guarded one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, EmbeddingViolation, NonConvergence, QuadratureDivergence
from .fields import (SymmetricField, graph_height, is_zero_field, series_eval, shifted_series,
                     theta_mirror)
from .geometry import build_coil, evaluate_forms, normal_graph_map
from .profile import ConformalChart, DelaunayProfile

DEFAULT_RESOLUTION = (24, 32, 48)  # (n_r, n_phi, n_z)
# Largest axial residual |y - shift - x3| accepted from the normal-graph
# Newton inversion, and largest tail of the radius interpolant's series (the
# sum of |c| over its last angular row or its last axial column), which
# tracked the interpolant's error to within a factor of 3-10 where measured.
NEWTON_TOL = 1e-9
# Newton steps of that inversion before its residual is checked.
NEWTON_STEPS = 3
# Axial intervals of the half period [0, T/2] on which rho_h is sampled
# (doubled once when the axial tail of its series exceeds NEWTON_TOL).
GRAPH_MZ = 48
# Elements per tile of the regular-block sweep, the self-block columns and
# the Duffy core over a batch of points: every temporary of one tile's kernel
# holds at most TILE doubles (96 KiB), whatever n, the node count and the
# batch size are.
TILE = 12288
# Largest change of a potential under the error estimate's refinement, relative
# to max(|value|, 1), before QuadratureDivergence is raised.
DIVERGENCE_RTOL = 1e-3
# (theta, y3) trapezoid nodes over one period of the coil energy's surface rule;
# the integrand is smooth and periodic, and 32 x 48 moves D by 5e-12.  Both
# counts are even and the first a multiple of 4, so the rule folds onto a quarter.
ENERGY_GRID = (16, 24)
# (phi, y) trapezoid nodes over one period of ``coil_volume``'s rule; at the
# desk solution 32 x 48 agrees with a (64, 48) midpoint-Gauss lattice rule on
# the boundary to 4.4e-16 (16 x 24: 1.1e-14).
VOLUME_GRID = (32, 48)
# Far field of the regular blocks (``_far_blocks``, where the three are derived
# from measured truncation and cost): the multipole order L, the first far
# block k0 (blocks k0..n-k0 are far) and the smallest n that uses it.
FAR_ORDER = 8
FAR_K0 = 8
FAR_MIN_N = 48


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

    def radius_about(self, offsets, centre):
        """``radius`` at x3 = centre[p] + offsets[j] as a function of (phi, j, p).

        The profile is evaluated at every centre + offset once, here, one
        table an offset array; the function broadcasts the table's rows to
        phi's shape, as a copy its caller may overwrite.
        """
        centre = np.asarray(centre, dtype=float)
        tables = [self.profile.evaluate(centre.reshape(centre.shape + (1,) * np.ndim(o)) + o,
                                        order=0)[0] for o in offsets]

        def radius(phi, j=0, p=None):
            f = tables[j] if p is None else tables[j][p]
            return np.broadcast_to(f, np.broadcast_shapes(np.shape(phi), f.shape)).copy()
        return radius

    def surface_point(self, theta, y3):
        """(r, x3) of the surface points over broadcast (theta, y3)."""
        theta, y3 = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                        np.asarray(y3, dtype=float))
        return self.profile.evaluate(y3, order=0)[0], y3


def _graph(profile: DelaunayProfile, chart: ConformalChart, h: tuple, phi, y):
    """(radius, shift, d shift / dy) of h's normal graph over broadcast (phi, y).

    ``h`` is the pair (``coeffs()``, tau) of the field.  The graph point over
    (phi, y) sits at that radius and at axial position y - shift; its angle
    is phi, since the profile's normal has no angular part.
    """
    f, fp, fpp = profile.evaluate(y, order=2)
    return normal_graph_map(f, fp, fpp, *graph_height(*h, chart, phi, y))[2:]


class NormalGraphBoundary:
    """Boundary of the normal-graph solid: r = rho_h(phi, x3).

    The graph point over (theta, y3) sits at radius f + h W and axial position
    y3 - f' h W; the radius function inverts the axial shift by Newton steps.
    rho_h inherits the symmetry class of h (theta -> pi - theta, x3 -> -x3,
    T-periodic), so it is sampled once on a tensor grid over [0, T/2], by
    Newton on the phi columns that own their mirror (``theta_mirror``) and
    copied to the others, and stored as a Fourier-in-phi x cosine-in-x3
    interpolant.  A direction whose series tail (``_series_tails``) exceeds
    NEWTON_TOL is sampled again at twice the count; a tail still above it
    raises NonConvergence.  The series is then chopped to the angular rows
    and axial columns up to the last holding a coefficient above
    8 eps max|c|: what it drops is rounding.  The boundary keeps a copy of
    h, and its cosine coefficients formed once for every ``_graph`` call, so
    ``surface_point`` and ``radius`` describe the same solid whatever the
    caller later does to its field.  The Coulomb rules take rho_h
    about shared offsets from ``radius_about``, to rounding ``radius``.
    """

    def __init__(self, profile: DelaunayProfile, chart: ConformalChart,
                 h: SymmetricField):
        self.profile = profile
        self.chart = chart
        self.h = h.copy()
        self._h = self.h.coeffs(), h.tau
        self._tau = 0.5 * profile.T
        shape = (max(4 * (h.kmax + 1) + 8, 24), GRAPH_MZ)
        coef = self._interpolant(*shape)
        tails = _series_tails(coef)
        if max(tails) > NEWTON_TOL:
            coef = self._interpolant(*(2 * n if t > NEWTON_TOL else n
                                       for n, t in zip(shape, tails)))
            tails = _series_tails(coef)
        if not max(tails) <= NEWTON_TOL:
            raise NonConvergence(f"normal-graph radius series tails {tails[0]:.3e} (phi), "
                                 f"{tails[1]:.3e} (x3) after doubling: rho_h is not "
                                 f"resolved to {NEWTON_TOL:.0e}")
        big = np.abs(coef) > 8.0 * np.finfo(float).eps * np.abs(coef).max()
        rows, cols = (np.flatnonzero(big.any(axis=a))[-1] + 1 for a in (1, 0))
        self._coef = np.ascontiguousarray(coef[:rows, :cols])

    def _interpolant(self, nphi, mz):
        """Full (nphi/2, mz + 1) series of rho_h from Newton samples over [0, T/2]."""
        own, mirror = theta_mirror(nphi)
        phi_s = 2.0 * np.pi * own / nphi
        x3_s = self._tau * np.arange(mz + 1) / mz
        samples = np.empty((nphi, mz + 1))
        samples[own] = self._radius_newton(phi_s[:, None], x3_s[None, :])
        samples[mirror[own]] = samples[own]
        return SymmetricField.from_samples(samples, self._tau, nphi // 2 - 1)[0].coeffs()

    def _radius_newton(self, phi, x3):
        y = x3.copy()
        for _ in range(NEWTON_STEPS):
            rad, shift, shift3 = _graph(self.profile, self.chart, self._h, phi, y)
            y = y - (y - shift - x3) / (1.0 - shift3)
        rad, shift, _ = _graph(self.profile, self.chart, self._h, phi, y)
        resid = float(np.max(np.abs(y - shift - x3)))
        if not resid <= NEWTON_TOL:
            raise NonConvergence(
                f"normal-graph axial inversion residual {resid:.3e} > {NEWTON_TOL:.0e} "
                f"after {NEWTON_STEPS} Newton steps")
        return rad

    def radius(self, phi, x3):
        """rho_h at broadcast (phi, x3); open grids pay for distinct values only."""
        return series_eval(self._coef, self._tau, phi, x3)[0]

    def radius_about(self, offsets, centre):
        """rho_h at x3 = centre[p] + offsets[j], a function of (phi, j, p): ``shifted_series``."""
        return shifted_series(self._coef, self._tau, offsets, centre)

    def surface_point(self, theta, y3):
        """(r, x3) of the graph points over broadcast (theta, y3)."""
        theta, y3 = np.asarray(theta, dtype=float), np.asarray(y3, dtype=float)
        rad, shift, _ = _graph(self.profile, self.chart, self._h, theta, y3)
        return rad, y3 - shift


def _series_tails(coef):
    """Sums of |c| over the last angular row and the last axial column of a series."""
    return np.abs(coef[-1]).sum(), np.abs(coef[:, -1]).sum()


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

def _separated_factors(P, r_eval, chi, phi, w, R, out):
    """Node factors of ``_separated_values``, with s = sin(phi)/R and the weight w folded in.

    The four with P's shape are written into ``out``, arrays the caller
    allocates once a sweep; hb0 is among them, so no pass broadcasts it.
    The rest keep the shape of their operands (w may be a scalar).
    """
    q1, wsph, hb0, Q0 = out
    s = np.sin(phi) / R
    np.multiply(P, s, out=q1)
    np.add(q1, 1.0, out=q1)
    np.multiply(0.5 * w, P, out=wsph)
    np.multiply(wsph, s, out=wsph)
    np.subtract(P, r_eval, out=Q0)
    np.multiply(Q0, Q0, out=Q0)
    np.multiply(P, 4.0, out=hb0)
    np.multiply(hb0, r_eval, out=hb0)
    np.multiply(hb0, np.sin(0.5 * chi) ** 2, out=hb0)
    np.add(Q0, hb0, out=Q0)
    np.multiply(-r_eval, np.cos(chi), out=hb0)
    return {"P": P, "q1": q1, "sh": 0.5 * s, "w": w, "ws32": 1.5 * w * s, "wsph": wsph,
            "wsh": 0.5 * w * s, "hb0": hb0, "Q0": Q0}


def _separated_values(g, cadd, c, sc, s):
    """Weighted columns w int_0^P (1 + r s) r / sqrt(Q) dr of a separated block, into ``s[0]``.

    With h = b/2 and Q(P) = Q0 + cadd (1 + P s), M0 = log((sqrt(Q(P)) + P + h)
    / (sqrt(c) + h)), M1 = sqrt(Q(P)) - sqrt(c) - h M0 and s M2 = (s P/2)
    sqrt(Q(P)) - (3/2) s h M1 - (s/2) c M0, so the column is
    (1 - (3/2) s h) M1 + (s P/2) sqrt(Q(P)) - (s/2) c M0.  ``g`` holds the
    factors of ``_separated_factors``; cadd = a_k^2 kap, c and sqrt(c) are
    lattice values and ``s`` holds five work arrays of the tile shape.
    c >= a_k^2 kap > 0, and sqrt(c) + h > 0 while the column's line misses
    the evaluation point, as every line of a block k >= 1 does on the rules
    ``BlockQuadrature`` accepts, and every outer self-block line
    (``_self_block``), so neither needs a guard.
    """
    V, A, E, G, H = s
    np.multiply(cadd, g["q1"], out=E)
    np.add(E, g["Q0"], out=E)
    np.sqrt(E, out=E)                                              # sqrt(Q(P))
    np.multiply(cadd, g["sh"], out=H)
    np.add(H, g["hb0"], out=H)                                     # h = b/2
    np.add(H, g["P"], out=G)
    np.add(G, E, out=G)
    np.add(H, sc, out=V)
    np.divide(G, V, out=G)
    np.log(G, out=G)                                               # M0
    np.subtract(E, sc, out=V)
    np.multiply(H, G, out=A)
    np.subtract(V, A, out=V)                                       # M1
    np.multiply(H, g["ws32"], out=A)
    np.subtract(g["w"], A, out=A)
    np.multiply(V, A, out=V)
    np.multiply(E, g["wsph"], out=E)
    np.add(V, E, out=V)
    np.multiply(G, c, out=G)
    np.multiply(G, g["wsh"], out=G)
    return np.subtract(V, G, out=V)


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


def _sym_graded_rules(delta, outer, h0, q, ratio=2.0):
    """Rows of nodes/weights on [-outer, -delta] u [delta, outer], graded toward +-delta.

    delta and h0 broadcast to one value a row.  Each row's panel edges
    are those of ``_graded_edges(delta, outer, h0, ratio)``: the widths
    h0 ratio^i by a running product and the edges by a running sum, both
    sequential, so each row is bitwise its one-row rule.  The rule of a
    row is its mirrored panels, then its panels; shorter rows are padded
    with zero-weight copies of their last node, and each row's rule length
    is returned too.
    """
    delta, h0 = (np.atleast_1d(v).astype(float) for v in np.broadcast_arrays(delta, h0))
    x01, w01 = _gl(q)
    # enough widths that every row's edges pass outer: h0 (ratio^i - 1) / (ratio - 1) >= span
    span = (outer - delta) / h0
    steps = int(np.ceil(np.max(np.log1p(span * (ratio - 1.0)) / np.log(ratio) if ratio > 1.0
                               else span))) + 2
    widths = np.empty((len(h0), steps))
    widths[:, 0], widths[:, 1:] = h0, ratio
    np.cumprod(widths, axis=1, out=widths)
    edges = np.empty((len(h0), steps + 2))
    edges[:, 0], edges[:, 1:-1] = delta, widths
    np.cumsum(edges[:, :-1], axis=1, out=edges[:, :-1])
    inner = np.count_nonzero(edges[:, 1:-1] < outer, axis=1)       # edges below outer
    panels = inner + 1
    edges[np.arange(steps + 2) > inner[:, None]] = outer
    edges = edges[:, :panels.max() + 1]
    span = np.diff(edges, axis=1)[..., None]
    nodes = (edges[:, :-1, None] + span * x01).reshape(len(h0), -1)
    weights = (span * w01).reshape(len(h0), -1)
    # row j: nodes[K - 1 - j] mirrored, then nodes[j - K], then copies of nodes[K - 1]
    K = (panels * q)[:, None]
    j = np.arange(2 * nodes.shape[1])
    idx = np.where(j < K, K - 1 - j, np.where(j < 2 * K, j - K, K - 1))
    out_nodes = np.take_along_axis(nodes, idx, axis=1)
    np.negative(out_nodes, out=out_nodes, where=j < K)
    out_weights = np.where(j < 2 * K, np.take_along_axis(weights, idx, axis=1), 0.0)
    return out_nodes, out_weights, 2 * K[:, 0]


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


def _phi_nodes(n_phi: int):
    """The block rule's n_phi midpoint nodes in phi."""
    return 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi


def _degenerate_rule(n_phi: int, n_z: int) -> bool:
    """n_phi = 2 (mod 4) and n_z odd: see ``BlockQuadrature``."""
    return n_phi % 4 == 2 and n_z % 2 == 1


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
        if _degenerate_rule(n_phi, n_z):
            # Such a rule has nodes at phi = pi/2 and 3pi/2 and at the block's
            # centre x3 = y3c.  For even n, at a point with theta = pi/2 or
            # 3pi/2, block n/2 then has a node whose column line passes through
            # the point: 4c - b^2 = 0, clamped to 1e-300, and M0 blows up
            # (errors of order 1 at n = 32, with no error raised).
            raise DomainError(f"block rule (n_phi, n_z) = ({n_phi}, {n_z}) puts a node on "
                              "the column line of an evaluation point; take n_phi "
                              "!= 2 (mod 4) or n_z even")
        T = self.profile.T
        xi, wxi = _gl(n_z)
        self.z_nodes = (xi - 0.5) * T
        self.z_weights = wxi * T
        self.phi_nodes = _phi_nodes(n_phi)
        self.phi_weights = np.full(n_phi, 2.0 * np.pi / n_phi)

    def nodes2d(self, y3_center, boundary):
        """(x3, phi, rho_b, w) product rule centred at y3_center, on its lattice.

        x3 has shape centres + (n_z,) and rho_b centres + (n_z, n_phi), from
        one ``radius_about`` call; phi (n_phi,) and the weights w (n_z, n_phi)
        are shared by every centre.
        """
        x3 = np.asarray(y3_center, dtype=float)[..., None] + self.z_nodes
        return (x3, self.phi_nodes,
                boundary.radius_about([self.z_nodes[:, None]], y3_center)(self.phi_nodes),
                np.outer(self.z_weights, self.phi_weights))


@dataclass
class CoulombResult:
    value: float
    breakdown: np.ndarray
    err_est: Optional[float] = None


def _columns(radius, R, theta, r_eval, xi, wxi, chi, wchi, lengths, guarded=True,
             window=None):
    """Analytic-r columns of the k = 0 block summed on a (xi, chi) rule, one value a point.

    chi and wchi hold one row a point, whose first ``lengths`` nodes are
    its rule; the xi rule is shared, the offsets of ``radius``.  Points are
    tiled by rule length, so no padding node reaches ``_self_columns``,
    max(1, TILE // (m x length)) a tile, m the larger of the xi nodes and
    the ``_chi_factors`` rows.  ``window`` = (core size, n) removes the
    depth window [0, d_eta] from the columns of each point's first n chi
    nodes (the footprint), d_eta = min(core size, 0.45 min rho_b) there,
    and returns d_eta too.  At the desk loop batch a node cost 26 ns on
    the outer set and 58 ns on the inner set and footprint (37 and 69 ns
    with node-factor buffers and padded rows).
    """
    a2 = (2.0 * R * np.sin(xi / (2.0 * R)))[:, None] ** 2
    # the points sorted by rule length, so that a tile is a slice of them
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    th, r = (np.reshape(v[order], (-1, 1, 1)) for v in (theta, r_eval))
    kap = 1.0 + r * np.sin(th) / R
    out, d_eta = np.empty(len(order)), np.empty(len(order))
    ends = np.r_[np.flatnonzero(np.diff(lengths)) + 1, len(order)]
    for start, end in zip(np.r_[0, ends[:-1]], ends):
        L, nrow = lengths[start], 14 if guarded else 11
        rows = max(1, TILE // (max(len(xi), nrow) * L))
        chunk = max(1, TILE // (nrow * L * rows)) * rows
        scratch = [np.empty((min(rows, end - start), len(xi), L))
                   for _ in range(6 if guarded else 4)]
        for c0 in range(start, end, chunk):
            c = slice(c0, min(c0 + chunk, end))
            CHI = chi[order[c], None, :L]
            factors = _chi_factors(th[c] + CHI, r[c], CHI, R, guarded)
            for lo in range(c0, c.stop, rows):
                p = slice(lo, min(lo + rows, c.stop))
                P = radius(th[p] + CHI[lo - c0:p.stop - c0], 0, order[p])
                if window is not None:
                    fp = P[..., :window[1]]
                    de = np.minimum(window[0], 0.45 * fp.min(axis=(1, 2)))
                    np.maximum(fp - de[:, None, None], 0.0, out=fp)
                    d_eta[order[p]] = de
                sums = _self_columns(P, r[p], kap[p] * a2, factors[:, lo - c0:p.stop - c0],
                                     wchi[order[p], :L], [v[:p.stop - lo] for v in scratch],
                                     guarded)
                out[order[p]] = (wxi @ sums)[:, 0]
    return out if window is None else (out, d_eta)


def _chi_factors(phi, r, chi, R, guarded):
    """The (point, chi) factors of ``_self_columns``, (11 or 14, points, chi).

    With s = sin(phi)/R and v = 4 r sin^2(chi/2): s, v, 1 + r s, r v, 1,
    s/2, -r cos(chi), -(3/4) s^2, 1 + (3/2) s r cos(chi), 1, 0, and, when
    ``guarded``, -(1 + s r cos(chi)), -(r sin(chi))^2 and (s/2)^2.
    """
    rr, ch = r[:, 0], chi[:, 0]
    sr = np.sin(phi[:, 0]) / R
    v = np.sin(0.5 * ch) ** 2 * (4.0 * rr)
    hb = np.cos(ch) * -rr
    rows = [sr, v, sr * rr + 1.0, v * rr, 1.0, 0.5 * sr, hb, -0.75 * sr * sr,
            1.0 - 1.5 * sr * hb, 1.0, 0.0]
    if guarded:
        rows += [sr * hb - 1.0, -(np.sin(ch) * rr) ** 2, 0.25 * sr * sr]
    row = np.empty((len(rows),) + ch.shape)
    for i, x in enumerate(rows):
        row[i] = x
    return row


def _self_columns(P, r, cadd, row, wchi, s, guarded):
    """Self-block columns int_0^P (1 + r sin(phi)/R) r / sqrt(Q) dr, summed on chi.

    With s = sin(phi)/R, h = cadd s/2 - r cos(chi), c = r^2 + cadd,
    W = P - r and T = cadd s + 4 r sin^2(chi/2) (P + h = W + T/2),
    Q(P) = W (W + T) + r T + cadd, M0 = log((sqrt(Q(P)) + P + h) /
    (sqrt(c) + h)) and M1 = sqrt(Q(P)) - sqrt(c) - h M0, a column is
    (1 - (3/2) s h) M1 + (s/2) (P sqrt(Q(P)) - c M0) as in
    ``_separated_values``, s/2 taken into the weights.  ``guarded`` takes
    sqrt(c) + h as (c - h^2) / (sqrt(c) - h) where h < 0.  P (points, xi,
    chi) is overwritten; cadd holds one value a (point, xi), ``row`` the
    ``_chi_factors``.  Each sum of (point, xi) times (point, chi) factors
    is one batched matmul of rank 2 or 3, cheaper than a broadcast pass.
    ``s``: four work arrays of P's shape, six when ``guarded``.  Returns
    (points, xi, 1).
    """
    W, Q, H, G = s[:4]
    rr, cadd, row = r[:, 0], cadd[..., 0], row.transpose(1, 0, 2)
    c = rr * rr + cadd
    sc, one = np.sqrt(c), np.ones_like(c)
    lat = np.stack((c, sc, cadd, one, cadd * cadd, -sc, cadd, one), axis=-1)
    np.subtract(P, r, out=W)
    np.matmul(lat[..., 2:4], row[:, 0:2], out=Q)                   # T
    np.multiply(Q, 0.5, out=G)
    np.add(G, W, out=G)                                            # P + h
    np.add(Q, W, out=Q)
    np.multiply(Q, W, out=Q)
    np.matmul(lat[..., 2:4], row[:, 2:4], out=W)                   # r T + cadd
    np.add(Q, W, out=Q)
    if guarded:
        np.maximum(Q, 0.0, out=Q)
    np.sqrt(Q, out=Q)                                              # sqrt(Q(P))
    np.add(G, Q, out=G)
    np.matmul(lat[..., 2:4], row[:, 5:7], out=H)                   # h
    np.matmul(lat[..., 1:4], row[:, 4:7], out=W)                   # sqrt(c) + h
    if guarded:
        D, E = s[4:6]
        np.matmul(lat[..., 5:8], row[:, 4:7], out=D)               # h - sqrt(c)
        np.matmul(lat[..., 2:5], row[:, 11:14], out=E)             # h^2 - c
        np.divide(E, D, out=W, where=H < 0.0)
        np.maximum(W, 1e-300, out=W)
        np.maximum(G, 1e-300, out=G)
    np.divide(G, W, out=G)
    np.log(G, out=G)                                               # M0
    np.matmul(lat[..., 5:7], row[:, 9:11], out=W)                  # -sqrt(c)
    np.add(W, Q, out=W)
    np.multiply(H, G, out=H)
    np.subtract(W, H, out=W)                                       # M1
    np.matmul(lat[..., 2:4], row[:, 7:9], out=H)                   # 1 - (3/2) s h
    np.multiply(W, H, out=W)
    np.multiply(P, Q, out=P)
    np.matmul(lat[..., 0:2], row[:, 9:11], out=H)                  # c
    np.multiply(G, H, out=G)
    np.subtract(P, G, out=P)
    return W @ wchi[..., None] + P @ (wchi * row[:, 5])[..., None]


def _read_only(arrays):
    """``arrays`` as a tuple, each made read-only: a cached rule no caller may write."""
    for v in arrays:
        v.setflags(write=False)
    return tuple(arrays)


@lru_cache(maxsize=16)
def _xi_rule(d_xi, outer, q):
    """The self block's outer xi rule, on [-outer, -d_xi] u [d_xi, outer]."""
    nodes, weights, _ = _read_only(_sym_graded_rules(d_xi, outer, d_xi, q))
    return nodes[0], weights[0]


# The chi rules depend on the points only through d_chi, which is keyed by its
# bytes.  A one-point caller (the log law, ``nonlocal-check``) repeats its key
# at every n, for the base and the refined rule; the reduction loop's points
# move with h, so two entries a rule are all that is ever reused.
@lru_cache(maxsize=2)
def _outer_chi_rule(d_chi, q, ratio):
    """The outer set's chi rules, graded toward 0 from h0 = d_chi: one row a d_chi of the bytes."""
    return _read_only(_sym_graded_rules(0.0, np.pi, np.frombuffer(d_chi), q, ratio))


@lru_cache(maxsize=2)
def _near_rule(d_chi, column_q, panel_q):
    """The footprint's 2 column_q chi nodes, then the inner set's: one row a d_chi of the bytes."""
    d_chi = np.frombuffer(d_chi)
    fp = _panel_rule(np.stack((-d_chi, np.zeros_like(d_chi), d_chi), axis=-1), column_q)
    nodes, weights, lengths = _sym_graded_rules(d_chi, np.pi, d_chi, panel_q)
    return _read_only((np.concatenate((fp[0], nodes), axis=1),
                       np.concatenate((fp[1], weights), axis=1), lengths + fp[0].shape[1]))


def _self_block(boundary, R, T, theta, y3c, r_eval, cfg: SelfBlockSettings, a_neck: float):
    """Singular k = 0 block integral at on-surface points, one value a point.

    theta, y3c and r_eval are 1-D arrays of points.  Graded analytic-r
    columns away from the evaluation point, closed-form columns with the
    depth window [0, d_eta] removed over the footprint, and a Duffy-pyramid
    core in depth coordinates eta = rho_b - r around the singular point.
    The xi rules are shared; the chi rules scale with d_chi(r_eval), one
    row a point, and are memoized on d_chi's bytes and the orders
    (``_outer_chi_rule``, ``_near_rule``), so a point evaluated again, at
    another n or by the refined pass, reuses them.  Each of the three sets
    takes its radii from its own ``radius_about`` table (the profile's
    values, or the normal graph's axial tables), formed when the set
    starts, so one table at a time is alive.

    At a desk batch of 153 points (17 y3 rows, orders (5, 5, 6)) the outer set,
    |xi| > d_xi, is 359,500 nodes, the inner set 85,080, the footprint
    22,032 and the Duffy core 95,625.  Each outer line misses the point by
    at least 2R sin(d_xi / 2R) and r < R, so c > 0 and sqrt(c) + b/2 > 0:
    the outer set takes the separated form, 2.3e-14 from 256-node Gauss in
    r (guarded 1.8e-14).  Inner lines pass arbitrarily close to the point,
    and the separated form was 5x worse there, so the inner set and the
    footprint take the guarded one.
    """
    rho = cfg.core_size(a_neck, T)
    d_xi = min(rho, T / 4.0)
    d_chi = np.minimum(rho / np.maximum(r_eval, rho), np.pi / 2.0)
    q = cfg.panel_q
    xi_out = _xi_rule(d_xi, T / 2.0, q)
    xi_in = _panel_rule(np.array([-d_xi, 0.0, d_xi]), cfg.column_q)
    # the Duffy faces' xi nodes: on xi = -d_xi, on xi = d_xi, and on the other three
    u = _gl(cfg.core_q)[0]
    U = u[:, None, None]
    duffy = (np.stack((u * -d_xi, u * d_xi), axis=-1)[..., None],
             U * (-d_xi + (d_xi - -d_xi) * u[:, None]))

    key = d_chi.tobytes()
    total = _columns(boundary.radius_about([xi_out[0][:, None]], y3c), R, theta, r_eval,
                     *xi_out, *_outer_chi_rule(key, q, cfg.grade_ratio), guarded=False)
    # the inner set and the footprint on one chi rule a point: the footprint's
    # columns lose the depth window [0, d_eta] ...
    near, d_eta = _columns(boundary.radius_about([xi_in[0][:, None]], y3c), R, theta, r_eval,
                           *xi_in, *_near_rule(key, cfg.column_q, cfg.panel_q),
                           window=(rho, 2 * cfg.column_q))
    # ... and the Duffy core over the window, apex at the singular point
    return total + near + _duffy_core(boundary.radius_about(duffy, y3c), duffy, R, theta,
                                      r_eval, d_xi, d_chi, d_eta, cfg.core_q)


def _duffy_core(radius, xis, R, theta, r_eval, d_xi, d_chi, d_eta, q):
    """Pyramid decomposition of the core box in (xi, chi, eta) coordinates.

    The box is |xi| <= d_xi, |chi| <= d_chi, 0 <= eta <= d_eta with the
    apex at the singular point; theta, r_eval, d_chi and d_eta hold one
    value a point.  A face's nodes are u_i times its points, (point, i, a,
    b) for its free axes a, b; ``xis`` are the offsets 0 (faces xi =
    -d_xi, d_xi: (q, 2, 1)) and 1 (the other three: (q, q, 1)) of
    ``radius``.  Tiles of max(1, TILE // q^3) points keep each kernel
    temporary within TILE.  Factors of xi or chi alone keep their own
    shapes, and a point's face sum is one matrix-vector product whatever
    its tile.  A node cost 38 ns at the desk loop batch (68 ns with five
    radius tables a tile).
    """
    u, wu = _gl(q)
    U = u[:, None, None]
    W = (wu[:, None, None] * wu[None, :, None] * wu[None, None, :] * U * U).reshape(-1, 1)
    pair, grid = ((2.0 * R * np.sin(x / (2.0 * R))) ** 2 for x in xis)
    rows = max(1, TILE // q**3)
    out = np.empty(len(theta))
    for lo in range(0, len(theta), rows):
        p = slice(lo, lo + rows)
        th, re, dc, de = (np.reshape(v[p], (-1, 1, 1, 1)) for v in (theta, r_eval, d_chi, d_eta))
        ky = 1.0 + re * np.sin(th) / R

        def face(rb, eta, phi, chi, a2, jac):
            s, v = np.sin(phi) / R, (4.0 * re) * np.sin(0.5 * chi) ** 2
            return _duffy_values(rb - eta, s, v, a2 * ky, re, W)[:, 0, 0] * jac.ravel()

        eta = U * (0.0 + (de - 0.0) * u)                       # (point, i, 1, eta)
        chi = U * (-dc + (dc - -dc) * u)                       # (point, i, 1, chi)
        phi = th + chi
        span = (dc - -dc) * (de - 0.0)
        # faces xi = -d_xi and d_xi, (point, i, face, chi), chi then on the first free axis
        rb = radius(phi, 0, p)
        cT, pT = chi.swapaxes(-1, -2), phi.swapaxes(-1, -2)
        total = face(rb[:, :, 0, :, None], eta, pT, cT, pair[:, 0:1], d_xi * span)
        total += face(rb[:, :, 1, :, None], eta, pT, cT, pair[:, 1:2], d_xi * span)
        # faces chi = -d_chi and d_chi, (point, i, xi, face)
        chi2 = U * np.concatenate((-dc, dc), axis=-1)
        rb = radius(th + chi2, 1, p)
        for k in (0, 1):
            total += face(rb[..., k:k + 1], eta, th + chi2[..., k:k + 1], chi2[..., k:k + 1],
                          grid, dc * (d_xi - -d_xi) * (de - 0.0))
        # the eta = d_eta face only when the depth window is not degenerate
        top = face(radius(phi, 1, p), U * de, phi, chi, grid, de * (d_xi - -d_xi) * (dc - -dc))
        out[p] = total + np.where((de > 1e-14 * np.maximum(d_xi, de)).ravel(), top, 0.0)
    return out


def _duffy_values(r, s, v, A, r_eval, W):
    """Sum over a face's nodes of W (1 + r s) r / sqrt(dist^2), (points, 1, 1).

    dist^2 = (r - r_eval)^2 + r v + (1 + r s) A, the chordal identity with
    v = 4 r_eval sin^2(chi/2), s = sin(phi)/R and A = a^2 (1 + y2/R):
    kap = (1 + x2/R)(1 + y2/R).
    """
    g = r * s
    g += 1.0
    d = r - r_eval
    d *= d
    e = r * v
    d += e
    np.multiply(g, A, out=e)
    d += e
    np.maximum(d, 1e-300, out=d)
    np.sqrt(d, out=d)
    g *= r
    g /= d
    return np.matmul(g.reshape(len(g), 1, -1), W)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def _regular_blocks(nodes, ks, R, T, theta, y3c, r_eval):
    """I_k for the blocks ``ks`` via the analytic-r column rule, one row a point.

    theta, y3c and r_eval are 1-D arrays of points, and ``nodes`` is the
    lattice rule of ``BlockQuadrature.nodes2d`` centred at y3c: x3 (points,
    n_z), phi (n_phi,), rho_b (points, n_z, n_phi), w (n_z, n_phi).  Every
    block k >= 1 lies a_k >~ T/2 or more from the point for n >= 4, so its
    columns take the separated kernel ``_separated_values``, without the
    near-singular guards of the self block's ``_self_columns``; a rule that
    puts a column line through the point is refused by ``BlockQuadrature``.
    A tile is (points, k, n_z, n_phi), filled with points first: max(1,
    TILE // nodes) points, at most the batch, then as many rows of k as
    fit.  So a batch sweeps each a_k row over a tile of points whose rho_b
    factors have the tile's shape, and the kernel passes run flat, not
    broadcast along k; one point keeps k tiles of max(1, TILE // nodes)
    rows.  The node factors, weights folded in, are formed once per tile of
    points, and a_k^2 kap, c and sqrt(c) once per (point, k, z node),
    broadcast over phi, all in buffers allocated once a call.  Each
    (point, k) row keeps its own reduction over the flat node axis, so
    neither the tiling, the lattice nor the other blocks of ``ks`` change a
    single bit.
    """
    x3, phi, rho_b, w = nodes
    nk = len(ks)
    pts = min(len(theta), max(1, TILE // w.size))
    rows = min(nk, max(1, TILE // (pts * w.size)))
    kT = np.asarray(ks)[:, None, None] * T
    shape = (pts, rows) + w.shape
    scratch = [np.empty(shape) for _ in range(5)] + [np.empty(shape[:-1] + (1,))
                                                     for _ in range(3)]
    factors = [np.empty((pts, 1) + w.shape) for _ in range(4)]
    Ik = np.empty((len(theta), nk))
    for p0 in range(0, len(theta), pts):
        p = slice(p0, p0 + pts)
        th, r = theta[p, None, None, None], r_eval[p, None, None, None]
        g = _separated_factors(rho_b[p, None], r, phi - th, phi, w, R,
                               [v[:len(theta) - p0] for v in factors])
        kap = 1.0 + r * np.sin(th) / R
        dx3 = (x3[p] - y3c[p, None])[:, None, :, None]
        for lo in range(0, nk, rows):
            s = [v[:len(theta) - p0, :nk - lo] for v in scratch]
            cadd, c, sc = s[5:]
            np.add(kT[lo:lo + rows], dx3, out=cadd)
            np.divide(cadd, 2.0 * R, out=cadd)
            np.sin(cadd, out=cadd)
            np.multiply(cadd, 2.0 * R, out=cadd)                  # a_k
            np.multiply(cadd, cadd, out=cadd)
            np.multiply(cadd, kap, out=cadd)
            np.multiply(r, r, out=c)
            np.add(c, cadd, out=c)
            np.sqrt(c, out=sc)
            vals = _separated_values(g, cadd, c, sc, s[:5])
            vals.reshape(vals.shape[:2] + (-1,)).sum(axis=2, out=Ik[p, lo:lo + rows])
    return Ik


def _solid_harmonics(zeta, xi):
    """Regular solid harmonics R_l^m = |d|^l P_l^m(cos) e^{i m azimuth} / (l + m)!, m <= l.

    At real (zeta, xi), the coil axis as polar axis, as rows [l][m]: R_m^m =
    (-xi/2)^m / m!, R_{m+1}^m = zeta R_m^m, (l - m)(l + m) R_l^m = (2l - 1) zeta
    R_{l-1}^m - (zeta^2 + xi^2) R_{l-2}^m; at complex xi, xi^m times the same
    polynomial in zeta and |xi|^2.
    """
    L = FAR_ORDER
    out = [[None] * (L + 1) for _ in range(L + 1)]
    diag = np.ones_like(zeta)
    for m in range(L + 1):
        diag = out[m][m] = diag * (-0.5 / m) * xi if m else diag
        for l in range(m + 1, L + 1):
            out[l][m] = zeta * out[l - 1][m] if l == m + 1 else (
                ((2 * l - 1) * zeta * out[l - 1][m] - (zeta * zeta + xi * xi) * out[l - 2][m])
                / ((l - m) * (l + m)))
    return out


@lru_cache(maxsize=16)
def _phi_table(n_phi):
    """Per j, R_j^mu(cos phi, sin phi), mu <= j, over j + 2 atop over j + 3: (2 n_phi, j + 1)."""
    R = _solid_harmonics(np.cos(_phi_nodes(n_phi)), np.sin(_phi_nodes(n_phi)))
    return _read_only([np.concatenate([np.stack(R[j][:j + 1], axis=-1) / (j + i) for i in (2, 3)])
                       for j in range(FAR_ORDER + 1)])


@lru_cache(maxsize=1)
def _translation_terms():
    """``_window_moments``' columns, (n, |k|) for b^n cos and (n, 2L + 1 + |k|)
    for b^n sin(k alpha/2), and its terms' (column, j mu) entries, real
    coefficients, run starts and slots (re, im of M_l^m).  Term (l, m, j, mu),
    455 at L = 8, is (-1)^mu [mu < 0] R_n^nu(0, 1) (-i)^nu S_j^|mu| b^n
    e^{-i k alpha/2}, n = l - j, nu = |m - mu| <= n, n - nu even, k = m + mu.
    """
    L = FAR_ORDER
    c, terms = _solid_harmonics(np.zeros(()), np.ones(())), []
    for l in range(L + 1):
        for m, j in ((m, j) for m in range(l + 1) for j in range(l + 1)):
            n = l - j
            for mu in range(max(-j, m - n), min(j, m + n) + 1):
                nu, k = abs(m - mu), m + mu
                if (n - nu) % 2:
                    continue
                z = float(c[n][nu]) * (-1.0) ** (-mu if mu < 0 else 0) * (-1j) ** nu
                sin = -1j * ((k > 0) - (k < 0)) * z
                for col, f in (((n, abs(k)), z), ((n, 2 * L + 1 + abs(k)), sin)):
                    terms += [(2 * (l * (L + 1) + m) + part, col, j * (j + 1) // 2 + abs(mu), v)
                              for part, v in enumerate((f.real, f.imag)) if v]
    terms.sort(key=lambda t: t[0])
    cols = {key: i for i, key in enumerate(sorted({t[1] for t in terms}))}
    slot = np.array([t[0] for t in terms])
    first = np.r_[0, np.flatnonzero(np.diff(slot)) + 1]
    entry = np.array([cols[t[1]] * (L + 1) * (L + 2) // 2 + t[2] for t in terms])
    return _read_only((np.array(list(cols)), entry, np.array([t[3] for t in terms]), first,
                       slot[first]))


def _window_moments(nodes, R, y3c):
    """Multipole moments of each point's window block, (points, L + 1, L + 1) complex.

    M[p, l, m] = sum wt conj(R_l^m(d)), m <= l <= L = FAR_ORDER, over the
    ``nodes2d`` lattice and r in [0, rho_b], wt = w r (1 + s r), s = sin(phi)/R,
    d = X(x) - X(0, 0, y3c) turned by -y3c/R about the coil axis.  On the row
    at x3, alpha = (x3 - y3c)/R, b = 2R sin(alpha/2): d = rA + B, A = (cos phi,
    sin phi e^{i alpha}), B = (0, i b e^{i alpha/2}), so the row's moments are
    e^{-i mu alpha} S_j^mu, S_j^mu = sum_phi w (rho_b^{j+2}/(j+2) + s rho_b^{j+3}
    /(j+3)) R_j^mu(cos phi, sin phi) (r exact, as the Gauss rule in r was), one
    matmul a j on ``_phi_table``.  R_l^m(rA + B) = sum R_j^mu(rA) R_{l-j}^{m-mu}(B),
    R_n^nu(B) = R_n^nu(0, 1) (i b)^nu b^{n-nu} e^{i nu alpha/2}, takes them to
    the centre: one matmul over rows, its entries weighed by
    ``_translation_terms``.  Tiles of points keep lattice temporaries within
    TILE doubles (one point at least; the rows' sum adds 45 x 117 a point);
    each matmul is one point's, so the batch changes no bit.
    """
    x3, phi, rho_b, w = nodes
    L, (n_z, n_phi) = FAR_ORDER, w.shape
    cols, entry, coef, first, slot = _translation_terms()
    table, nj = _phi_table(n_phi), (L + 1) * (L + 2) // 2
    pts = min(len(y3c), max(1, TILE // (n_z * max(2 * n_phi, len(cols)))))
    s = np.sin(phi) / R
    M = np.zeros((len(y3c), (L + 1) ** 2 * 2))
    for p0 in range(0, len(y3c), pts):
        P = slice(p0, p0 + pts)
        rb = rho_b[P]
        # w rho_b^{j+2} and w s rho_b^{j+3} side by side, one power of rho_b a j
        pw = np.empty(rb.shape[:2] + (2, n_phi))
        np.multiply(rb * rb, w, out=pw[..., 0, :])
        np.multiply(pw[..., 0, :], rb * s, out=pw[..., 1, :])
        S = np.empty(rb.shape[:2] + (nj,))
        for j in range(L + 1):
            pw *= rb[..., None, :] if j else 1.0
            np.matmul(pw.reshape(rb.shape[:2] + (-1,)), table[j],
                      out=S[..., j * (j + 1) // 2:(j + 1) * (j + 2) // 2])
        alpha = (x3[P] - y3c[P, None]) / R
        bn = np.empty((len(rb), L + 1, n_z))
        bn[:, 0], bn[:, 1:] = 1.0, (2.0 * R * np.sin(0.5 * alpha))[:, None]
        np.cumprod(bn, axis=1, out=bn)
        half = 0.5 * np.arange(2 * L + 1)[:, None] * alpha[:, None]
        trig = np.concatenate((np.cos(half), np.sin(half)), axis=1)
        V = bn[:, cols[:, 0]]
        V *= trig[:, cols[:, 1]]
        vals = np.matmul(V, S).reshape(len(rb), -1)
        M[P, slot] = np.add.reduceat(vals[:, entry] * coef, first, axis=1)
    return M.view(complex).reshape(len(y3c), L + 1, L + 1)


def _far_blocks(nodes, ks, R, T, theta, y3c, r_eval):
    """I_k for the far blocks ``ks`` from each point's window multipole, one row a point.

    Block k is the window block turned by kT/R about the coil axis, so I_k
    is the window's potential at the point turned by -kT/R:
    Re sum_{l, m} c_m M_l^m I_l^m(p_k - C), c_0 = 1 and c_m = 2, with
    M from ``_window_moments`` and I_l^m(d) = (l - m)! P_l^m(cos)
    e^{i m azimuth} / |d|^{l+1} the irregular solid harmonic.  In the frame
    of ``_window_moments`` p_k - C = (y1, (R + y2) e^{-ikT/R} - R).  I_l^m is
    I_m^m times a real J_l^m, with I_m^m = -(2m - 1) xi I_{m-1}^{m-1} / |d|^2,
    J_m^m = 1, J_l^m = 0 for l < m and
    J_l^m = ((2l - 1) zeta J_{l-1}^m - (l - 1 + m)(l - 1 - m) J_{l-2}^m) / |d|^2,
    formed for every m at once.  Tiles of (m, point, k) hold at most TILE
    doubles.

    Measured at a = 0.3, 2-core host, one thread.  Truncation against the
    lattice with r by 30-node Gauss (log-law rules, both boundaries, n = 128
    and 1024, blocks k and n - k at two points), largest relative error a
    block: L = 6: 1.6e-11 at k = 8, 9.8e-14 at k = 16; L = 8: 1.2e-12 at
    k = 6, 8.8e-14 at k = 8; L = 10: 8.4e-15 at k = 6 (the column kernel:
    1e-13 to 4e-9 a quarter coil away).  Cost at one point, n = 1024, with
    the 2 (k0 - 1) near blocks, (32, 48) and (48, 72): L = 6, k0 = 16: 1.76,
    2.76 ms; L = 8, k0 = 8: 1.36, 2.13 ms; L = 10, k0 = 6: 1.79, 2.21 ms.
    So L = 8, k0 = 8.  The expansion's time over the column kernel's on
    blocks 8..n-8, on its callers' shapes, at n = 40 / 48 / 56 / 64:

        log law (32, 48), 1 point              0.49  0.37  0.31  0.27
        log law (48, 72), 1 point              0.24  0.19  0.16  0.14
        coarse tier (8, 10), 25 and 35 points  1.01  0.94  0.83  0.78
        FAST loop (12, 14), 45 points          0.76  0.64  0.61  0.51
        (16, 20), 63 points (FAST final, desk) 0.51  0.43  0.36  0.33
        desk final (28, 40), 153 points        0.28  0.22  0.18  0.16

    (the larger of two shapes that share a row; at other points the coarse
    tier gave 0.97, 0.88 and 0.84).  So FAR_MIN_N = 48.
    """
    L = FAR_ORDER
    M = _window_moments(nodes, R, y3c)
    m = np.arange(L + 1)[:, None, None]
    c_m = np.where(m == 0, 1.0, 2.0)
    y1, y2 = r_eval * np.cos(theta), r_eval * np.sin(theta)
    ang = np.asarray(ks) * T / R
    cols = min(len(ks), max(1, TILE // (2 * (L + 1))))
    pts = min(len(theta), max(1, TILE // (2 * (L + 1) * cols)))
    out = np.empty((len(theta), len(ks)))
    for p0 in range(0, len(theta), pts):
        P = slice(p0, p0 + pts)
        zeta = y1[P, None]
        for k0 in range(0, len(ks), cols):
            K = slice(k0, k0 + cols)
            # xi = (R + y2) e^{-i ang} - R without the cancellation at small angles
            xi = (y2[P, None] * np.cos(ang[K]) - 2.0 * R * np.sin(0.5 * ang[K]) ** 2
                  - 1j * (R + y2[P, None]) * np.sin(ang[K]))
            inv = 1.0 / (zeta * zeta + xi.real ** 2 + xi.imag ** 2)
            zr = zeta * inv
            diag = np.empty((L + 1,) + xi.shape, dtype=complex)
            diag[0] = np.sqrt(inv)
            diag[1:] = (1 - 2 * m[1:]) * (xi * inv)
            np.cumprod(diag, axis=0, out=diag)                      # I_m^m
            j2 = j1 = np.zeros(diag.shape)
            A = np.zeros(diag.shape, dtype=complex)
            for l in range(L + 1):
                j = (2 * l - 1) * zr * j1 - ((l - 1 + m) * (l - 1 - m)) * inv * j2
                j[l] = 1.0
                A += M[P, l].T[:, :, None] * j
                j2, j1 = j1, j
            out[P, K] = np.sum(c_m * (diag * A).real, axis=0)
    return out


def potential_coil(profile: DelaunayProfile, n: int, y, quad: BlockQuadrature = None,
                   self_cfg: SelfBlockSettings = None,
                   error_estimate: bool = True) -> CoulombResult:
    """Newton potential of the coiled solid at the surface point y = (theta, y3):
    ``potential_perturbed`` at h = 0."""
    return potential_perturbed(profile, n, None, y, quad=quad, self_cfg=self_cfg,
                               error_estimate=error_estimate)


def potential_perturbed(profile: DelaunayProfile, n: int, h: SymmetricField, y,
                        chart: ConformalChart = None, quad: BlockQuadrature = None,
                        self_cfg: SelfBlockSettings = None,
                        error_estimate: bool = True) -> CoulombResult:
    """Potential of the normal-graph solid at the moved point X(y_h).

    The solid's boundary is ``solid_boundary``'s, so at h = 0 it is the
    profile's.  Sums the per-block integrals I_k; the k = 0 self block uses
    the desingularized rule.  With ``error_estimate`` the whole sum is
    recomputed at one refinement step, 1.5x the (n_phi, n_z) nodes (one z
    node more where that rule would raise), and the difference reported (the
    refined value is returned); a change above ``DIVERGENCE_RTOL`` raises
    QuadratureDivergence.
    """
    boundary = solid_boundary(profile, h, chart)
    quad = quad or BlockQuadrature(profile)
    self_cfg = self_cfg or SelfBlockSettings()

    def one_pass(q2d, cfg):
        return surface_potentials(profile, n, boundary, float(y[0]), float(y[1]), q2d, cfg)[0]

    Ik = one_pass(quad, self_cfg)
    err = None
    if error_estimate:
        n_r, n_phi, n_z = quad.resolution
        n_phi, n_z = int(n_phi * 1.5), int(n_z * 1.5)
        fine = BlockQuadrature(profile, (n_r, n_phi, n_z + _degenerate_rule(n_phi, n_z)))
        Ik_f = one_pass(fine, self_cfg.refined())
        err = float(abs(Ik_f.sum() - Ik.sum()))
        if err > DIVERGENCE_RTOL * max(abs(Ik_f.sum()), 1.0):
            raise QuadratureDivergence(
                f"potential refinement moved by {err:.3e} (value {Ik_f.sum():.6e})")
        Ik = Ik_f
    return CoulombResult(value=float(Ik.sum()), breakdown=Ik, err_est=err)


def surface_potentials(profile: DelaunayProfile, n: int, boundary, theta, y3,
                       quad: BlockQuadrature, self_cfg: SelfBlockSettings) -> np.ndarray:
    """Block integrals I_k, k = 0..n-1, at the surface points over (theta, y3).

    theta and y3 broadcast to a batch of points; row p of the (points, n)
    result is the breakdown of point p, whose potential is the row sum.
    The surface points come from one ``surface_point`` call and their
    regular-block nodes from one ``nodes2d`` call; the regular blocks and
    the singular self block each run once over the whole batch, in tiles of
    points.  From n = FAR_MIN_N on, the blocks FAR_K0..n-FAR_K0 come from
    the window's multipole expansion (``_far_blocks``) and the rest from
    the column kernel.
    """
    if n < 4:
        raise DomainError("coil potential needs n >= 4")
    theta, y3 = (v.ravel() for v in np.broadcast_arrays(np.asarray(theta, dtype=float),
                                                         np.asarray(y3, dtype=float)))
    T = profile.T
    R = n * T / (2.0 * np.pi)
    r_eval, y3c = boundary.surface_point(theta, y3)
    Ik = np.empty((len(theta), n))
    # the self block first, so the lattice rule is not held through it
    Ik[:, 0] = _self_block(boundary, R, T, theta, y3c, r_eval, self_cfg, profile.a)
    nodes = quad.nodes2d(y3c, boundary)
    near = np.arange(1, n)
    if n >= FAR_MIN_N:
        near = np.r_[1:FAR_K0, n - FAR_K0 + 1:n]
        far = np.arange(FAR_K0, n - FAR_K0 + 1)
        Ik[:, far] = _far_blocks(nodes, far, R, T, theta, y3c, r_eval)
    Ik[:, near] = _regular_blocks(nodes, near, R, T, theta, y3c, r_eval)
    return Ik


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

    # the radial sweep's invariants, on the axes they vary along
    cos_a, sin_a = np.cos(ang)[:, None], np.sin(ang)[:, None]
    cos_t, sin_t = np.cos(tt)[None, :], np.sin(tt)[None, :]
    W2 = ang_w[:, None] * tt_w[None, :]
    total = 0.0
    for j, r01 in enumerate(rr):
        rho = F * r01
        ring = R + rho * sin_t
        d = np.sqrt((rho * cos_t - P0[0]) ** 2 + (ring * cos_a - P0[1]) ** 2
                    + (ring * sin_a - P0[2]) ** 2)
        total += float(np.sum(W2 * rho * ring * F * rr_w[j] / d))
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


def ball_potential_radial(s, radius: float = 1.0):
    """Same potential by 1D radial quadrature: Simpson over 2001 spherical shells."""
    from scipy.integrate import simpson

    rho = np.linspace(0.0, radius, 2001)
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


def coulomb_energy(profile: DelaunayProfile, n: int, quad: BlockQuadrature = None,
                   self_cfg: SelfBlockSettings = None) -> float:
    """D(Omega) = 1/2 int int dx dy / |x - y| of the coiled solid.

    By the Pohozaev identity D = (1/5) int_Sigma u (x . nu) dsigma, with u
    from ``surface_potentials`` on the ENERGY_GRID trapezoid rule over one
    period and x measured from the coil centre, so every block contributes
    the same.  The integrand is even under theta -> pi - theta
    and y3 -> -y3, so the rule runs over the quarter theta in [pi/2, 3pi/2],
    y3 in [-T/2, 0], counting each node once on the lines a map fixes and
    twice elsewhere.
    """
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


def critical_mass():
    """Root of E(m) = 2 E(m/2) for balls on m in [1, 8], where the gap changes
    sign; returns (numeric, closed_form)."""
    from scipy.optimize import brentq

    def gap(m):
        return ball_energy(m) - 2.0 * ball_energy(m / 2.0)

    root = brentq(gap, 1.0, 8.0, xtol=1e-12, rtol=1e-14)
    return float(root), CRITICAL_MASS_CLOSED_FORM


def coil_volume(profile: DelaunayProfile, n: int, h: SymmetricField = None,
                chart: ConformalChart = None) -> float:
    """|Omega~^n_h| = n int int (rad^2/2 + sin(phi) rad^3/(3R)) (1 - d shift/dy) dphi dy.

    The r integral of the solid, r (1 + r sin(phi)/R) dr, is exact; the
    (phi, x3) integral changes variables through the normal graph's own map,
    x3 = y - shift(phi, y) at radius rad(phi, y) (``_graph``), so no boundary
    is built.  The integrand is smooth and periodic in both, and a
    ``VOLUME_GRID`` trapezoid over one period takes it; a graph that folds
    back along the axis (1 - d shift/dy <= 0) raises EmbeddingViolation.
    """
    R = n * profile.T / (2.0 * np.pi)
    n_phi, n_y = VOLUME_GRID
    phi = 2.0 * np.pi * np.arange(n_phi)[:, None] / n_phi
    y = profile.T * np.arange(n_y) / n_y
    if is_zero_field(h):
        rad, jac = profile.evaluate(y, order=0)[0], 1.0
    else:
        if chart is None:
            raise DomainError("a nonzero normal graph h needs the conformal chart")
        rad, _, shift3 = _graph(profile, chart, (h.coeffs(), h.tau), phi, y)
        jac = 1.0 - shift3
        if not np.min(jac) > 0.0:
            raise EmbeddingViolation(f"normal graph folds back along the axis: "
                                     f"1 - d shift/dy = {np.min(jac):.3e}")
    vals = (rad**2 / 2.0 + np.sin(phi) * rad**3 / (3.0 * R)) * jac
    return float(n * np.sum(vals) * (2.0 * np.pi / n_phi) * (profile.T / n_y))
