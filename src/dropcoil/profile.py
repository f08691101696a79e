"""Delaunay unduloid profiles, conformal charts, and the stability integral.

The unduloid with neck radius ``a`` (0 < a <= 1/2, mean curvature fixed to 2)
is described by the even, T-periodic profile f solving

    -f'' / (1+f'^2)^{3/2} + 1 / (f sqrt(1+f'^2)) = 2,   f(0) = 1-a, f'(0) = 0,

with the conserved quantity f^2 - f/sqrt(1+f'^2) = -a(1-a).  The same surface
in isothermal coordinates is (x(t) cos th, x(t) sin th, z(t)) with

    x'' = (1 - 2a(1-a)) x - 2 x^3,   z' = a(1-a) + x^2,

and the conformal identity x^2 = (x')^2 + (z')^2.  a = 1/2 degenerates the
neck event and is served by cylinder closed forms (f = 1/2, T = pi).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline

from .errors import DomainError, NonConvergence

DEFAULT_TOL = 1e-10
DEFAULT_GRID = 2048  # samples per half-period (panel count; +1 nodes)

CYLINDER_NECK = 0.5
CYLINDER_PERIOD = np.pi
CYLINDER_VOLUME = np.pi**2 / 4.0
CYLINDER_IA = np.pi / 4.0


def check_neck(a: float, allow_cylinder: bool = True) -> float:
    """Validate the neck parameter and return it as a float."""
    a = float(a)
    hi = 0.5 if allow_cylinder else 0.5 - 1e-12
    if not (0.0 < a <= hi):
        raise DomainError(f"neck parameter a={a} outside (0, {'1/2]' if allow_cylinder else '1/2)'}")
    return a


def _fpp_from(f, fp):
    """f'' from the profile ODE (exact given f, f')."""
    one = 1.0 + fp * fp
    return one / f - 2.0 * one**1.5


def _fppp_from(f, fp, fpp):
    """f''' by differentiating the profile ODE."""
    one = 1.0 + fp * fp
    return 2.0 * fp * fpp / f - one * fp / f**2 - 6.0 * fp * fpp * np.sqrt(one)


@dataclass
class DelaunayProfile:
    """One solved unduloid profile on [0, T/2] plus derived block data.

    ``grid`` holds event-aligned samples s_i in [0, T/2]; f/fp/fpp are the
    profile and its derivatives there.  V is the block volume |Omega_0| and
    Ia the stability integral, both filled by quadrature on the grid.
    """

    a: float
    grid: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    T: float
    V: float
    Ia: float
    tol: float = DEFAULT_TOL
    _dense: object = field(default=None, repr=False, compare=False)
    _spline: object = field(default=None, init=False, repr=False, compare=False)

    def _half_eval(self, u, order):
        """f, and f' when ``order`` >= 1, on the folded coordinate u in [0, T/2].

        The clamped spline (f'(0) = f'(T/2) = 0 exactly) is built on the
        first call: from the dense ODE solution ``_dense`` sampled 4x finer
        than the grid when the profile was solved, else from the grid.
        """
        if self.a == CYLINDER_NECK:
            return np.full_like(u, 0.5), np.zeros_like(u)
        if self._spline is None:
            s, f = self.grid, self.f
            if self._dense is not None:
                s = np.linspace(0.0, self.grid[-1], 4 * (len(self.grid) - 1) + 1)
                f = self._dense(s)[0]
            self._spline = CubicSpline(s, f, bc_type=((1, 0.0), (1, 0.0)))
        if order == 0:
            return (self._spline(u),)
        return self._spline(u), self._spline(u, 1)

    def evaluate(self, s, order: int = 2):
        """Evaluate (f, f', ..., up to ``order``) at arbitrary axial positions.

        Uses the even/periodic symmetries of the profile: f is even about
        every neck and bulge and T-periodic.  Order 0 evaluates f alone.
        """
        s = np.asarray(s, dtype=float)
        half = 0.5 * self.T
        u = np.mod(s + half, self.T) - half
        parts = self._half_eval(np.abs(u), order)
        if order == 0:
            return parts[:1]
        f, fp = parts
        fp = np.where(u >= 0.0, 1.0, -1.0) * fp
        out = [f, fp]
        if order >= 2:
            out.append(_fpp_from(f, fp))
        if order >= 3:
            out.append(_fppp_from(f, fp, out[2]))
        return tuple(out[: order + 1])

    def conserved_residual(self) -> float:
        """max |f^2 - f/sqrt(1+f'^2) + a(1-a)| over the stored grid."""
        r = self.f**2 - self.f / np.sqrt(1.0 + self.fp**2) + self.a * (1.0 - self.a)
        return float(np.max(np.abs(r)))

    def mean_curvature_residual(self) -> float:
        """max |H - 2| recomputed from the stored samples."""
        one = 1.0 + self.fp**2
        H = -self.fpp / one**1.5 + 1.0 / (self.f * np.sqrt(one))
        return float(np.max(np.abs(H - 2.0)))

    def to_dict(self) -> dict:
        return {
            "kind": "delaunay-profile",
            "a": self.a,
            "T": self.T,
            "V": self.V,
            "Ia": self.Ia,
            "tol": self.tol,
            "grid": self.grid.tolist(),
            "f": self.f.tolist(),
            "fp": self.fp.tolist(),
            "fpp": self.fpp.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "DelaunayProfile":
        return cls(
            a=d["a"],
            grid=np.asarray(d["grid"]),
            f=np.asarray(d["f"]),
            fp=np.asarray(d["fp"]),
            fpp=np.asarray(d["fpp"]),
            T=d["T"],
            V=d["V"],
            Ia=d["Ia"],
            tol=d.get("tol", DEFAULT_TOL),
        )

    @classmethod
    def from_json(cls, text: str) -> "DelaunayProfile":
        return cls.from_dict(json.loads(text))


@dataclass
class ConformalChart:
    """Isothermal parametrization of one unduloid period.

    tgrid is a uniform symmetric grid on [-tau, tau] (odd length); x is even,
    z odd, and p(t) = x^2 |A|^2 = 2 x^2 + 2 a^2 (1-a)^2 / x^2 is the potential
    of the Jacobi operator J[h] = x^{-2}(h_thth + h_tt + p h).
    """

    a: float
    tgrid: np.ndarray
    x: np.ndarray
    xp: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    tau: float
    p: np.ndarray
    tol: float = DEFAULT_TOL
    _t_of_z: object = field(default=None, repr=False, compare=False)
    _x_of_t: object = field(default=None, repr=False, compare=False)

    @property
    def half_size(self) -> int:
        """Number of uniform panels on [0, tau]."""
        return (len(self.tgrid) - 1) // 2

    def half_view(self):
        """(t, x, xp, z, zp, p) restricted to [0, tau]."""
        m = self.half_size
        return (self.tgrid[m:], self.x[m:], self.xp[m:], self.z[m:], self.zp[m:], self.p[m:])

    def t_of_y3(self, y3):
        """Invert z(t) = y3 on one period (vectorized, spline-based)."""
        if self._t_of_z is None:
            self._t_of_z = CubicSpline(self.z, self.tgrid)
        y3 = np.asarray(y3, dtype=float)
        half = np.abs(self.z[-1])
        u = np.mod(y3 + half, 2.0 * half) - half
        return self._t_of_z(u)

    def x_of_t(self, t):
        """(x, x') at arbitrary t in [-tau, tau] (spline-based)."""
        if self._x_of_t is None:
            self._x_of_t = (CubicSpline(self.tgrid, self.x), CubicSpline(self.tgrid, self.xp))
        return self._x_of_t[0](t), self._x_of_t[1](t)

    def isothermal_residual(self) -> float:
        return float(np.max(np.abs(self.x**2 - self.xp**2 - self.zp**2)))

    def to_dict(self) -> dict:
        return {
            "kind": "conformal-chart",
            "a": self.a,
            "tau": self.tau,
            "tol": self.tol,
            "tgrid": self.tgrid.tolist(),
            "x": self.x.tolist(),
            "xp": self.xp.tolist(),
            "z": self.z.tolist(),
            "zp": self.zp.tolist(),
            "p": self.p.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ConformalChart":
        return cls(
            a=d["a"],
            tgrid=np.asarray(d["tgrid"]),
            x=np.asarray(d["x"]),
            xp=np.asarray(d["xp"]),
            z=np.asarray(d["z"]),
            zp=np.asarray(d["zp"]),
            tau=d["tau"],
            p=np.asarray(d["p"]),
            tol=d.get("tol", DEFAULT_TOL),
        )

    @classmethod
    def from_json(cls, text: str) -> "ConformalChart":
        return cls.from_dict(json.loads(text))


def _cylinder_profile(grid_size: int, tol: float) -> DelaunayProfile:
    s = np.linspace(0.0, CYLINDER_PERIOD / 2.0, grid_size + 1)
    f = np.full_like(s, 0.5)
    zero = np.zeros_like(s)
    return DelaunayProfile(
        a=CYLINDER_NECK, grid=s, f=f, fp=zero, fpp=zero,
        T=CYLINDER_PERIOD, V=CYLINDER_VOLUME, Ia=CYLINDER_IA, tol=tol,
    )


def solve_profile(a: float, tol: float = DEFAULT_TOL, grid_size: int = DEFAULT_GRID) -> DelaunayProfile:
    """Integrate the profile Cauchy problem up to the first neck.

    The half-period T/2 is located by event detection on the sign change of
    f' (refined by the integrator's root finder); V and Ia are then filled by
    composite Simpson quadrature on a uniform event-aligned grid.
    """
    a = check_neck(a)
    if a == CYLINDER_NECK:
        return _cylinder_profile(grid_size, tol)

    def rhs(s, y):
        f, fp = y
        one = 1.0 + fp * fp
        return (fp, one / f - 2.0 * one**1.5)

    def neck(s, y):
        return y[1]

    neck.terminal = True
    neck.direction = 1.0  # f' rises back through zero only at the neck

    horizon = 20.0
    sol = solve_ivp(rhs, (0.0, horizon), (1.0 - a, 0.0), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, events=neck, dense_output=True)
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise NonConvergence(f"neck event not found for a={a} within horizon {horizon}")
    half = float(sol.t_events[0][0])

    s = np.linspace(0.0, half, grid_size + 1)
    f, fp = sol.sol(s)
    fp[0] = 0.0
    fp[-1] = 0.0  # event point: f' = 0 exactly
    fpp = _fpp_from(f, fp)

    T = 2.0 * half
    V = 2.0 * np.pi * simpson(f * f, x=s)

    # the (slow) dense output is kept for the fast spline of the first evaluation
    prof = DelaunayProfile(a=a, grid=s, f=f, fp=fp, fpp=fpp, T=T, V=V, Ia=np.nan,
                           tol=tol, _dense=sol.sol)
    prof.Ia = compute_Ia(prof)
    return prof


def compute_Ia(profile: DelaunayProfile) -> float:
    """Stability integral by composite quadrature on the profile grid:

    I_a = int_0^{T/2} f/(1+f'^2)^{5/2} [ f f'' (2 - f'^2) + (1+3f'^2)(1+f'^2) ] ds
    """
    f, fp, fpp = profile.f, profile.fp, profile.fpp
    one = 1.0 + fp * fp
    integrand = f / one**2.5 * (f * fpp * (2.0 - fp * fp) + (1.0 + 3.0 * fp * fp) * one)
    return float(simpson(integrand, x=profile.grid))


def compute_Ia_conformal(chart: ConformalChart) -> float:
    """I_a from the isothermal chart, as an independent cross-check:

    I_a = int_0^tau A B dt,  A = a(1-a) + x^2,
    B = -(z')^2 + 4(x')^2 + a(1-a)/x^2 (3(z')^2 + 2(x')^2).
    """
    t, x, xp, _, zp, _ = chart.half_view()
    q = chart.a * (1.0 - chart.a)
    A = q + x * x
    B = -zp * zp + 4.0 * xp * xp + (q / (x * x)) * (3.0 * zp * zp + 2.0 * xp * xp)
    return float(simpson(A * B, x=t))


def _chart_potential(a, x):
    q = a * (1.0 - a)
    return 2.0 * x * x + 2.0 * q * q / (x * x)


def _cylinder_chart(grid_size: int, tol: float) -> ConformalChart:
    tau = np.pi
    t = np.linspace(-tau, tau, 2 * grid_size + 1)
    x = np.full_like(t, 0.5)
    return ConformalChart(
        a=CYLINDER_NECK, tgrid=t, x=x, xp=np.zeros_like(t), z=0.5 * t,
        zp=np.full_like(t, 0.5), tau=tau, p=np.full_like(t, 1.0), tol=tol,
    )


def build_chart(a: float, tol: float = DEFAULT_TOL, grid_size: int = 1024) -> ConformalChart:
    """Integrate the conformal system up to the neck time tau and sample it.

    ``grid_size`` is the number of uniform panels on [0, tau]; the stored grid
    covers [-tau, tau] by the even/odd symmetries of x and z.
    """
    a = check_neck(a)
    if a == CYLINDER_NECK:
        return _cylinder_chart(grid_size, tol)
    q = a * (1.0 - a)

    def rhs(t, y):
        x, xp, z = y
        return (xp, (1.0 - 2.0 * q) * x - 2.0 * x**3, q + x * x)

    def neck(t, y):
        return y[1]

    neck.terminal = True
    neck.direction = 1.0

    horizon = max(60.0, -4.0 * np.log(a))
    sol = solve_ivp(rhs, (0.0, horizon), (1.0 - a, 0.0, 0.0), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, events=neck, dense_output=True)
    if sol.status != 1 or len(sol.t_events[0]) == 0:
        raise NonConvergence(f"conformal neck event not found for a={a}")
    tau = float(sol.t_events[0][0])

    th = np.linspace(0.0, tau, grid_size + 1)
    x, xp, z = sol.sol(th)
    xp[0] = 0.0
    xp[-1] = 0.0
    # extend to [-tau, tau]: x even, x' odd, z odd
    t = np.concatenate((-th[::-1][:-1], th))
    x = np.concatenate((x[::-1][:-1], x))
    xp = np.concatenate((-xp[::-1][:-1], xp))
    z = np.concatenate((-z[::-1][:-1], z))
    zp = q + x * x
    return ConformalChart(a=a, tgrid=t, x=x, xp=xp, z=z, zp=zp, tau=tau,
                          p=_chart_potential(a, x), tol=tol)


def profile_scan(a_values, tol: float = DEFAULT_TOL, grid_size: int = DEFAULT_GRID):
    """Rows (a, T, V, Ia) for a list of neck parameters."""
    rows = []
    for a in a_values:
        p = solve_profile(a, tol=tol, grid_size=grid_size)
        rows.append((p.a, p.T, p.V, p.Ia))
    return rows
