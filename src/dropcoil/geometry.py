"""Parametrized surfaces: straight and coiled unduloids, spheres, cylinders.

Every patch exposes position and analytic first/second parameter derivatives
in omega = (theta, y3); fundamental forms follow from

    g = Y^T Y,   II_ij = nu . d^2 y / domega_i domega_j,   A = g^{-1} II,
    H = -trace(A),

with nu the outward unit normal Y_1 x Y_2 / |Y_1 x Y_2| (H = +2 on the unit
sphere).  The coiled patch bends n periods of the straight surface around a
circle of radius R = n T / (2 pi); with a normal perturbation h the position is

    ( f_h cos th, (R + f_h sin th) cos((y3 - b)/R), (R + f_h sin th) sin((y3 - b)/R) ),
    f_h = f + h W,  b = f' h W,  W = (1 + f'^2)^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateMetric, DomainError, EmbeddingViolation, IoError
from .fields import SymmetricField, on_axis_derivatives
from .profile import ConformalChart, DelaunayProfile


@dataclass
class FundamentalForms:
    g: np.ndarray       # (..., 2, 2)
    A: np.ndarray       # (..., 2, 2) shape operator
    H: np.ndarray       # mean curvature (sum of principal curvatures)
    normal: np.ndarray  # (..., 3) outward unit normal


@dataclass
class SurfacePatch:
    """One of: straight-delaunay, coiled, sphere, cylinder (h optional)."""

    kind: str
    profile: Optional[DelaunayProfile] = None
    n: Optional[int] = None
    R: Optional[float] = None
    radius: Optional[float] = None
    h: Optional[SymmetricField] = None
    chart: Optional[ConformalChart] = None
    _kappa_max: float = field(default=0.0, repr=False)

    def y3_domain(self):
        if self.kind == "sphere":
            r = self.radius
            return (-r, r)
        if self.kind == "cylinder":
            return (-np.inf, np.inf)
        T = self.profile.T
        if self.kind == "coiled":
            return (-T / 2.0, -T / 2.0 + self.n * T)
        return (-T / 2.0, T / 2.0)

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
            f = np.full_like(y3, self.radius)
            z = np.zeros_like(y3)
            return f, z, z.copy(), z.copy()
        return self.profile.evaluate(y3, order=3)

    def _perturbation(self, theta, y3):
        """h and its (theta, y3) derivatives; zeros when unperturbed."""
        if self.h is None:
            z = np.zeros(np.broadcast(theta, y3).shape)
            return (z,) + tuple(z.copy() for _ in range(5))
        if self.chart is None:
            raise DomainError("perturbed patch needs the conformal chart")
        return on_axis_derivatives(self.h, self.chart, theta, y3, order=2)

    # -- position and derivatives -----------------------------------------

    def derivatives(self, theta, y3):
        """Position and first/second derivatives, dict of (..., 3) arrays."""
        theta = np.asarray(theta, dtype=float)
        y3 = np.asarray(y3, dtype=float)
        theta, y3 = np.broadcast_arrays(theta, y3)
        f, fp, fpp, fppp = self._curve(y3)
        hv, h_th, h_3, h_thth, h_th3, h_33 = self._perturbation(theta, y3)

        if self.h is not None:
            kap2 = 1.0 / (f * np.sqrt(1.0 + fp * fp))
            kap1 = 2.0 - kap2
            kmax = np.maximum(np.abs(kap1), np.abs(kap2))
            if np.any(1.0 - hv * kmax <= 0.0):
                raise EmbeddingViolation("normal graph folds over: 1 - h*kappa <= 0")

        W = 1.0 / np.sqrt(1.0 + fp * fp)
        Wp = -fp * fpp * W**3
        Wpp = -(fpp * fpp + fp * fppp) * W**3 + 3.0 * fp**2 * fpp**2 * W**5

        u = f + hv * W
        u_th = h_th * W
        u_3 = fp + h_3 * W + hv * Wp
        u_thth = h_thth * W
        u_th3 = h_th3 * W + h_th * Wp
        u_33 = fpp + h_33 * W + 2.0 * h_3 * Wp + hv * Wpp

        b = fp * hv * W
        b_th = fp * h_th * W
        b_3 = fpp * hv * W + fp * h_3 * W + fp * hv * Wp
        b_thth = fp * h_thth * W
        b_th3 = fpp * h_th * W + fp * h_th3 * W + fp * h_th * Wp
        b_33 = (fppp * hv * W + 2.0 * fpp * h_3 * W + 2.0 * fpp * hv * Wp
                + fp * h_33 * W + 2.0 * fp * h_3 * Wp + fp * hv * Wpp)

        ct, st = np.cos(theta), np.sin(theta)

        def vec(x, y, z):
            return np.stack(np.broadcast_arrays(x, y, z), axis=-1)

        if self.kind != "coiled":
            P = vec(u * ct, u * st, y3 - b)
            P_th = vec(u_th * ct - u * st, u_th * st + u * ct, -b_th)
            P_3 = vec(u_3 * ct, u_3 * st, 1.0 - b_3)
            P_thth = vec(u_thth * ct - 2.0 * u_th * st - u * ct,
                         u_thth * st + 2.0 * u_th * ct - u * st, -b_thth)
            P_th3 = vec(u_th3 * ct - u_3 * st, u_th3 * st + u_3 * ct, -b_th3)
            P_33 = vec(u_33 * ct, u_33 * st, -b_33)
        else:
            R = self.R
            Q = R + u * st
            Q_th = u_th * st + u * ct
            Q_3 = u_3 * st
            Q_thth = u_thth * st + 2.0 * u_th * ct - u * st
            Q_th3 = u_th3 * st + u_3 * ct
            Q_33 = u_33 * st

            psi = (y3 - b) / R
            ps_th = -b_th / R
            ps_3 = (1.0 - b_3) / R
            ps_thth = -b_thth / R
            ps_th3 = -b_th3 / R
            ps_33 = -b_33 / R

            cp, sp = np.cos(psi), np.sin(psi)

            def second(Qab, Qa, Qb, pa, pb, pab):
                comp2 = Qab * cp - Qa * pb * sp - Qb * pa * sp - Q * pab * sp - Q * pa * pb * cp
                comp3 = Qab * sp + Qa * pb * cp + Qb * pa * cp + Q * pab * cp - Q * pa * pb * sp
                return comp2, comp3

            P = vec(u * ct, Q * cp, Q * sp)
            P_th = vec(u_th * ct - u * st, Q_th * cp - Q * ps_th * sp, Q_th * sp + Q * ps_th * cp)
            P_3 = vec(u_3 * ct, Q_3 * cp - Q * ps_3 * sp, Q_3 * sp + Q * ps_3 * cp)
            c2, c3 = second(Q_thth, Q_th, Q_th, ps_th, ps_th, ps_thth)
            P_thth = vec(u_thth * ct - 2.0 * u_th * st - u * ct, c2, c3)
            c2, c3 = second(Q_th3, Q_th, Q_3, ps_th, ps_3, ps_th3)
            P_th3 = vec(u_th3 * ct - u_3 * st, c2, c3)
            c2, c3 = second(Q_33, Q_3, Q_3, ps_3, ps_3, ps_33)
            P_33 = vec(u_33 * ct, c2, c3)

        return {"P": P, "P_th": P_th, "P_3": P_3,
                "P_thth": P_thth, "P_th3": P_th3, "P_33": P_33}

    def position(self, theta, y3):
        return self.derivatives(theta, y3)["P"]


def evaluate_forms(patch: SurfacePatch, theta, y3) -> FundamentalForms:
    """Metric, shape operator, mean curvature at broadcast (theta, y3)."""
    d = patch.derivatives(theta, y3)
    Y1, Y2 = d["P_th"], d["P_3"]
    g11 = np.sum(Y1 * Y1, axis=-1)
    g12 = np.sum(Y1 * Y2, axis=-1)
    g22 = np.sum(Y2 * Y2, axis=-1)
    det = g11 * g22 - g12 * g12
    if np.any(det <= 0.0):
        raise DegenerateMetric("det g <= 0: self-intersecting parametrization")
    N = np.cross(Y1, Y2)
    nu = N / np.sqrt(det)[..., None]
    ii11 = np.sum(nu * d["P_thth"], axis=-1)
    ii12 = np.sum(nu * d["P_th3"], axis=-1)
    ii22 = np.sum(nu * d["P_33"], axis=-1)
    # A = g^{-1} II
    inv = 1.0 / det
    A11 = inv * (g22 * ii11 - g12 * ii12)
    A12 = inv * (g22 * ii12 - g12 * ii22)
    A21 = inv * (-g12 * ii11 + g11 * ii12)
    A22 = inv * (-g12 * ii12 + g11 * ii22)
    H = -(A11 + A22)
    g = np.stack([np.stack([g11, g12], axis=-1), np.stack([g12, g22], axis=-1)], axis=-2)
    A = np.stack([np.stack([A11, A12], axis=-1), np.stack([A21, A22], axis=-1)], axis=-2)
    return FundamentalForms(g=g, A=A, H=H, normal=nu)


def straight_normal(profile: DelaunayProfile, theta, y3):
    """Closed-form outward normal of the unperturbed straight patch."""
    f, fp = profile.evaluate(y3, order=1)
    W = 1.0 / np.sqrt(1.0 + fp * fp)
    return np.stack(np.broadcast_arrays(W * np.cos(theta), W * np.sin(theta), -W * fp), axis=-1)


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


def curvature_expansion_check(profile: DelaunayProfile, n_list,
                              ntheta: int = 64, n3: int = 129) -> ExpansionReport:
    """Measure the n^-2 remainder of the first-order coil curvature expansion."""
    n_list = sorted(int(n) for n in n_list)
    if n_list[0] < 8:
        raise DomainError("expansion check needs n >= 8")
    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    y3 = np.linspace(-profile.T / 2.0, profile.T / 2.0, n3)
    TH, Y3 = np.meshgrid(th, y3, indexing="ij")
    phi = curvature_profile_coefficient(profile, Y3)
    f = profile.evaluate(Y3, order=0)[0]
    errs = []
    phi_errs = []
    for n in n_list:
        patch = build_coil(profile, n)
        H = evaluate_forms(patch, TH, Y3).H
        first = (f * np.sin(TH)) / (patch.R * f) * phi
        errs.append(float(np.max(np.abs(H - 2.0 - first))))
        # recover Phi(0) by fitting (H-2) R against y2/f = sin(theta) at y3 = 0
        H0 = evaluate_forms(patch, th, np.zeros_like(th)).H
        x = np.sin(th)
        slope = float(np.dot(x, (H0 - 2.0) * patch.R) / np.dot(x, x))
        phi0 = float(curvature_profile_coefficient(profile, np.array(0.0)))
        phi_errs.append(abs(slope - phi0) / abs(phi0))
    exponent = float(np.polyfit(np.log(n_list), np.log(errs), 1)[0])
    return ExpansionReport(a=profile.a, n_list=n_list, max_err=errs,
                           decay_exponent=exponent, phi_fit_rel_err=phi_errs)


# ---- OBJ export -----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _write_obj(path, vertices, normals, faces):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# dropcoil surface mesh\n")
            for v in vertices:
                fh.write(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
            for vn in normals:
                fh.write(f"vn {_fmt(vn[0])} {_fmt(vn[1])} {_fmt(vn[2])}\n")
            for a, b, c in faces:
                fh.write(f"f {a+1}//{a+1} {b+1}//{b+1} {c+1}//{c+1}\n")
    except OSError as exc:
        raise IoError(f"cannot write mesh to {path}: {exc}") from exc


def export_mesh(patch: SurfacePatch, resolution, path) -> None:
    """Triangulated OBJ export; closed kinds weld seams by index reuse."""
    ntheta, n3 = int(resolution[0]), int(resolution[1])
    if ntheta < 8 or n3 < 8:
        raise DomainError("mesh resolution must be at least (8, 8)")

    if patch.kind == "sphere":
        _export_sphere(patch, ntheta, n3, path)
        return

    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    closed3 = patch.kind == "coiled"
    lo, hi = patch.y3_domain()
    if patch.kind == "cylinder":
        lo, hi = -1.0, 1.0
    y3 = np.linspace(lo, hi, n3, endpoint=not closed3)
    TH, Y3 = np.meshgrid(th, y3, indexing="ij")
    forms = evaluate_forms(patch, TH, Y3)
    P = patch.derivatives(TH, Y3)["P"]

    verts = P.reshape(-1, 3)
    norms = forms.normal.reshape(-1, 3)
    idx = lambda i, j: (i % ntheta) * n3 + (j % n3 if closed3 else j)
    faces = []
    jmax = n3 if closed3 else n3 - 1
    for i in range(ntheta):
        for j in range(jmax):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    _write_obj(path, verts, norms, faces)


def _export_sphere(patch, ntheta, nphi, path):
    """Closed sphere: nphi interior latitude rows plus two pole vertices."""
    r = patch.radius
    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    lat = np.pi * (np.arange(1, nphi + 1)) / (nphi + 1)  # colatitude from +e3 pole
    y3 = r * np.cos(lat)
    TH, Y3 = np.meshgrid(th, y3, indexing="ij")
    P = patch.derivatives(TH, Y3)["P"]
    nu = P / r

    verts = [np.array([0.0, 0.0, r])] + list(P.reshape(-1, 3)) + [np.array([0.0, 0.0, -r])]
    norms = [np.array([0.0, 0.0, 1.0])] + list(nu.reshape(-1, 3)) + [np.array([0.0, 0.0, -1.0])]
    north, south = 0, len(verts) - 1
    idx = lambda i, j: 1 + (i % ntheta) * nphi + j
    faces = []
    for i in range(ntheta):
        faces.append((north, idx(i, 0), idx(i + 1, 0)))
        for j in range(nphi - 1):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            faces.append((v00, v11, v10))
            faces.append((v00, v01, v11))
        faces.append((south, idx(i + 1, nphi - 1), idx(i, nphi - 1)))
    _write_obj(path, verts, norms, faces)
