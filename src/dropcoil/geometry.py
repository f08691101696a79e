"""Parametrized surfaces: straight and coiled unduloids, spheres, cylinders.

Every patch exposes position and analytic first/second parameter derivatives
in omega = (theta, y3); fundamental forms follow from

    g = Y^T Y,   II_ij = nu . d^2 y / domega_i domega_j,   A = g^{-1} II,
    H = -trace(A),

with nu the outward unit normal Y_1 x Y_2 / |Y_1 x Y_2| (H = +2 on the unit
sphere), formed component-wise.  On an open grid (theta[:, None], y3[None, :])
the curve is evaluated on y3's shape and cos/sin theta on theta's, bit for bit
as on the meshgrid.  The coiled patch bends n periods of the straight surface
around a circle of radius R = n T / (2 pi); with a normal perturbation h the
position is

    ( f_h cos th, (R + f_h sin th) cos((y3 - b)/R), (R + f_h sin th) sin((y3 - b)/R) ),
    f_h = f + h W,  b = f' h W,  W = (1 + f'^2)^{-1/2}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateMetric, DomainError, EmbeddingViolation, IoError
from .fields import SymmetricField, on_axis_derivatives
from .profile import ConformalChart, DelaunayProfile


class FundamentalForms:
    """Mean curvature H (the sum of the principal curvatures) of one frame.

    The metric g (..., 2, 2), the shape operator A (..., 2, 2) and the outward
    unit normal (..., 3) are given as component tuples (g11, g12, g22),
    (A11, A12, A21, A22) and (nu1, nu2, nu3), and stacked on first read: the
    curvature check and the reduction loop read only H.
    """

    def __init__(self, g, A, H, normal):
        self._g, self._A, self.H, self._normal = g, A, H, normal

    @functools.cached_property
    def g(self) -> np.ndarray:
        g11, g12, g22 = self._g
        return np.stack([_stack(g11, g12), _stack(g12, g22)], axis=-2)

    @functools.cached_property
    def A(self) -> np.ndarray:
        A11, A12, A21, A22 = self._A
        return np.stack([_stack(A11, A12), _stack(A21, A22)], axis=-2)

    @functools.cached_property
    def normal(self) -> np.ndarray:
        return _stack(*self._normal)


@dataclass
class SurfacePatch:
    """One of: straight-delaunay, coiled, sphere, cylinder (h optional).

    Unperturbed, the h terms are the scalar 0.0 through the same arithmetic
    (f + 0 W = f), so no grid of zeros is formed.
    """

    kind: str
    profile: Optional[DelaunayProfile] = None
    n: Optional[int] = None
    R: Optional[float] = None
    radius: Optional[float] = None
    h: Optional[SymmetricField] = None
    chart: Optional[ConformalChart] = None

    # -- profile data of the generating curve ------------------------------

    def _curve(self, y3):
        """(f, f', f'', f''') of the generating profile at y3."""
        if self.kind == "sphere":
            r = self.radius
            f = np.sqrt(np.maximum(r * r - y3 * y3, 0.0))
            fp = -y3 / f
            fpp = -r * r / f**3
            fppp = -3.0 * r * r * y3 / f**5
            return f, fp, fpp, fppp
        if self.kind == "cylinder":
            z = np.zeros_like(y3)
            return np.full_like(y3, self.radius), z, z, z
        return self.profile.evaluate(y3, order=3)

    def _perturbation(self, theta, y3):
        """h and its (theta, y3) derivatives; the scalar 0.0 when unperturbed."""
        if self.h is None:
            return (0.0,) * 6
        if self.chart is None:
            raise DomainError("perturbed patch needs the conformal chart")
        return on_axis_derivatives(self.h, self.chart, theta, y3, order=2)

    # -- position and derivatives -----------------------------------------

    def _straight_frame(self, theta, y3):
        """The straight patch's position and derivatives: the (x, y, z) component
        tuples, each ordered as ``_KEYS``, on the broadcast of theta and y3.  The
        curve is evaluated on y3's own shape and cos/sin theta on theta's."""
        theta = np.asarray(theta, dtype=float)
        y3 = np.asarray(y3, dtype=float)
        f, fp, fpp, fppp = self._curve(y3)
        hv, h_th, h_3, h_thth, h_th3, h_33 = self._perturbation(theta, y3)

        if self.h is not None:
            kap2 = 1.0 / (f * np.sqrt(1.0 + fp * fp))
            kmax = np.maximum(np.abs(2.0 - kap2), np.abs(kap2))
            if np.any(1.0 - hv * kmax <= 0.0):
                raise EmbeddingViolation("normal graph folds over: 1 - h*kappa <= 0")

        W, Wp, u, b, b_3 = normal_graph_map(f, fp, fpp, hv, h_3)
        Wpp = -(fpp * fpp + fp * fppp) * W**3 + 3.0 * fp**2 * fpp**2 * W**5

        u_th = h_th * W
        u_3 = fp + h_3 * W + hv * Wp
        u_thth = h_thth * W
        u_th3 = h_th3 * W + h_th * Wp
        u_33 = fpp + h_33 * W + 2.0 * h_3 * Wp + hv * Wpp

        b_th = fp * h_th * W
        b_thth = fp * h_thth * W
        b_th3 = fpp * h_th * W + fp * h_th3 * W + fp * h_th * Wp
        b_33 = (fppp * hv * W + 2.0 * fpp * h_3 * W + 2.0 * fpp * hv * Wp
                + fp * h_33 * W + 2.0 * fp * h_3 * Wp + fp * hv * Wpp)

        ct, st = np.cos(theta), np.sin(theta)
        x = (u * ct, u_th * ct - u * st, u_3 * ct,
             u_thth * ct - 2.0 * u_th * st - u * ct, u_th3 * ct - u_3 * st, u_33 * ct)
        y = (u * st, u_th * st + u * ct, u_3 * st,
             u_thth * st + 2.0 * u_th * ct - u * st, u_th3 * st + u_3 * ct, u_33 * st)
        z = (y3 - b, -b_th, 1.0 - b_3, -b_thth, -b_th3, -b_33)
        return x, y, z

    def _frame(self, theta, y3):
        """The straight frame, bent around the coil's circle when the patch is coiled."""
        frame = self._straight_frame(theta, y3)
        return _bend(self.R, frame) if self.kind == "coiled" else frame

    def derivatives(self, theta, y3):
        """Position and first/second derivatives, dict of (..., 3) arrays."""
        return {k: _stack(*v) for k, v in zip(_KEYS, zip(*self._frame(theta, y3)))}

    def position(self, theta, y3):
        return _stack(*(c[0] for c in self._frame(theta, y3)))


_KEYS = ("P", "P_th", "P_3", "P_thth", "P_th3", "P_33")


def normal_graph_map(f, fp, fpp, hv, h_3):
    """(W, W', u, b, db/dy3) of the normal graph of h over the profile f(y3).

    W = (1 + f'^2)^{-1/2} and W' = dW/dy3; the graph point over (theta, y3)
    sits at radius u = f + h W and axial position y3 - b, b = f' h W.  hv and
    h_3 are h and dh/dy3.  The one place this map is spelled out.
    """
    W = 1.0 / np.sqrt(1.0 + fp * fp)
    Wp = -fp * fpp * W**3
    return W, Wp, f + hv * W, fp * hv * W, fpp * hv * W + fp * h_3 * W + fp * hv * Wp


def _bend(R, frame):
    """(x, y, z) -> (x, Q cos psi, Q sin psi) with Q = R + y, psi = z / R, and the
    derivatives by the chain rule: the straight frame coiled around x."""
    x, y, z = frame
    Q = (R + y[0],) + y[1:]
    p = [c / R for c in z]
    cp, sp = np.cos(p[0]), np.sin(p[0])
    yb, zb = [Q[0] * cp], [Q[0] * sp]
    for a in (1, 2):
        yb.append(Q[a] * cp - Q[0] * p[a] * sp)
        zb.append(Q[a] * sp + Q[0] * p[a] * cp)
    for ab, a, b in ((3, 1, 1), (4, 1, 2), (5, 2, 2)):
        yb.append(Q[ab] * cp - Q[a] * p[b] * sp - Q[b] * p[a] * sp - Q[0] * p[ab] * sp
                  - Q[0] * p[a] * p[b] * cp)
        zb.append(Q[ab] * sp + Q[a] * p[b] * cp + Q[b] * p[a] * cp + Q[0] * p[ab] * cp
                  - Q[0] * p[a] * p[b] * sp)
    return x, yb, zb


def _stack(*parts):
    """The parts broadcast together and stacked on a new last axis."""
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _dot(a, b):
    """Component-wise a . b, summed in numpy's order for a length-3 axis."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def evaluate_forms(patch: SurfacePatch, theta, y3) -> FundamentalForms:
    """Metric, shape operator, mean curvature at broadcast (theta, y3)."""
    return _forms(patch._frame(theta, y3))


def _forms(frame) -> FundamentalForms:
    """The fundamental forms of an (x, y, z) frame as ``SurfacePatch._frame`` gives it."""
    d = dict(zip(_KEYS, zip(*frame)))
    Y1, Y2 = d["P_th"], d["P_3"]
    g11, g12, g22 = _dot(Y1, Y1), _dot(Y1, Y2), _dot(Y2, Y2)
    det = g11 * g22 - g12 * g12
    if np.any(det <= 0.0):
        raise DegenerateMetric("det g <= 0: self-intersecting parametrization")
    # Y1 x Y2 as np.cross forms it
    N = (Y1[1] * Y2[2] - Y1[2] * Y2[1], Y1[2] * Y2[0] - Y1[0] * Y2[2],
         Y1[0] * Y2[1] - Y1[1] * Y2[0])
    norm = np.sqrt(det)
    nu = tuple(c / norm for c in N)
    ii11, ii12, ii22 = (_dot(nu, d[k]) for k in ("P_thth", "P_th3", "P_33"))
    # A = g^{-1} II
    inv = 1.0 / det
    A11 = inv * (g22 * ii11 - g12 * ii12)
    A12 = inv * (g22 * ii12 - g12 * ii22)
    A21 = inv * (-g12 * ii11 + g11 * ii12)
    A22 = inv * (-g12 * ii12 + g11 * ii22)
    return FundamentalForms((g11, g12, g22), (A11, A12, A21, A22), -(A11 + A22), nu)


def straight_normal(profile: DelaunayProfile, theta, y3):
    """Closed-form outward normal of the unperturbed straight patch."""
    f, fp = profile.evaluate(y3, order=1)
    W = 1.0 / np.sqrt(1.0 + fp * fp)
    return _stack(W * np.cos(theta), W * np.sin(theta), -W * fp)


def build_sphere(radius: float = 1.0) -> SurfacePatch:
    return SurfacePatch(kind="sphere", radius=float(radius))


def build_cylinder(radius: float = 0.5) -> SurfacePatch:
    return SurfacePatch(kind="cylinder", radius=float(radius))


def build_straight(profile: DelaunayProfile, h: SymmetricField = None,
                   chart: ConformalChart = None) -> SurfacePatch:
    return SurfacePatch(kind="straight-delaunay", profile=profile, h=h, chart=chart)


def build_coil(profile: DelaunayProfile, n: int, h: SymmetricField = None,
               chart: ConformalChart = None) -> SurfacePatch:
    """Coil n blocks around the circle of radius R = n T / (2 pi)."""
    if n < 3:
        raise DomainError(f"coil needs n >= 3 blocks, got {n}")
    R = n * profile.T / (2.0 * np.pi)
    fh_max = 1.0 - profile.a
    if h is not None:
        fh_max += h.norm_sup()
    if R - fh_max <= 0.0:
        raise EmbeddingViolation(f"R = {R} does not clear the bulge radius {fh_max}")
    return SurfacePatch(kind="coiled", profile=profile, n=int(n), R=R, h=h, chart=chart)


def curvature_profile_coefficient(profile: DelaunayProfile, y3):
    """Phi(y3) = (2 - f'^2) f f'' / (1+f'^2)^{5/2} + (1 + 3 f'^2) / (1+f'^2)^{3/2}.

    First-order coefficient of the coil curvature: H = 2 + y2/(R f) Phi + O(n^-2).
    """
    f, fp, fpp = profile.evaluate(y3, order=2)
    one = 1.0 + fp * fp
    return (2.0 - fp * fp) * f * fpp / one**2.5 + (1.0 + 3.0 * fp * fp) / one**1.5


@dataclass
class ExpansionReport:
    a: float
    n_list: list
    max_err: list          # max |H - 2 - y2/(R f) Phi| per n
    decay_exponent: float   # fitted slope of log max_err vs log n
    phi_fit_rel_err: list   # coefficient recovery at y3 = 0, per n
    phi_fit_abs_err: list   # the same, |fitted Phi(0) - Phi(0)|, per n


def curvature_expansion_check(profile: DelaunayProfile, n_list) -> ExpansionReport:
    """Measure the n^-2 remainder of the first-order coil curvature expansion.

    The remainder is taken on a grid of 64 theta nodes by 129 y3 nodes over
    one period.  The straight frame does not depend on n: it is built once,
    and each coil bends it around its own circle.  The decay is fitted over
    at least two distinct n, and Phi(0) = 4a - 1 must not vanish (a = 1/4),
    since its fit is reported relative to it.  Near a = 1/4 that ratio says
    little, so the fit's absolute error is reported too.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(set(n_list)) < 2:
        raise DomainError(f"expansion check fits a decay over n and needs at least two "
                          f"distinct n, got {n_list}")
    if n_list[0] < 8:
        raise DomainError("expansion check needs n >= 8")
    phi0 = float(curvature_profile_coefficient(profile, np.array(0.0)))
    if phi0 == 0.0:
        raise DomainError(f"Phi(0) = 4a - 1 is 0 at a = {profile.a}: the relative error "
                          f"of its fit is undefined")
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    y3 = np.linspace(-profile.T / 2.0, profile.T / 2.0, 129)[None, :]
    phi = curvature_profile_coefficient(profile, y3)
    f = profile.evaluate(y3, order=0)[0]
    x = np.sin(th)
    y2 = f * x[:, None]
    straight = build_straight(profile)
    period = straight._straight_frame(th[:, None], y3)
    bulge = straight._straight_frame(th, np.zeros_like(th))
    errs = []
    phi_errs, phi_abs = [], []
    for n in n_list:
        R = build_coil(profile, n).R
        H = _forms(_bend(R, period)).H
        first = y2 / (R * f) * phi
        errs.append(float(np.max(np.abs(H - 2.0 - first))))
        # recover Phi(0) by fitting (H-2) R against y2/f = sin(theta) at y3 = 0
        H0 = _forms(_bend(R, bulge)).H
        slope = float(np.dot(x, (H0 - 2.0) * R) / np.dot(x, x))
        phi_abs.append(abs(slope - phi0))
        phi_errs.append(phi_abs[-1] / abs(phi0))
    exponent = float(np.polyfit(np.log(n_list), np.log(errs), 1)[0])
    return ExpansionReport(a=profile.a, n_list=n_list, max_err=errs,
                           decay_exponent=exponent, phi_fit_rel_err=phi_errs,
                           phi_fit_abs_err=phi_abs)


# ---- OBJ export -----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def export_mesh(patch: SurfacePatch, resolution, path) -> None:
    """Triangulated OBJ export of a coil's n periods, y3 from -T/2; the closed
    theta and y3 seams are welded by index reuse.  Other patches are refused."""
    ntheta, n3 = int(resolution[0]), int(resolution[1])
    if ntheta < 8 or n3 < 8:
        raise DomainError("mesh resolution must be at least (8, 8)")
    if patch.kind != "coiled":
        raise DomainError(f"mesh export takes a coiled patch, got {patch.kind!r}")

    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    T = patch.profile.T
    y3 = np.linspace(-T / 2.0, -T / 2.0 + patch.n * T, n3, endpoint=False)
    forms = evaluate_forms(patch, th[:, None], y3[None, :])
    P = patch.position(th[:, None], y3[None, :])

    idx = lambda i, j: (i % ntheta) * n3 + j % n3
    faces = []
    for i in range(ntheta):
        for j in range(n3):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# dropcoil surface mesh\n")
            for v in P.reshape(-1, 3):
                fh.write(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
            for vn in forms.normal.reshape(-1, 3):
                fh.write(f"vn {_fmt(vn[0])} {_fmt(vn[1])} {_fmt(vn[2])}\n")
            for a, b, c in faces:
                fh.write(f"f {a+1}//{a+1} {b+1}//{b+1} {c+1}//{c+1}\n")
    except OSError as exc:
        raise IoError(f"cannot write mesh to {path}: {exc}") from exc
