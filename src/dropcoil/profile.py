"""Delaunay unduloid profiles, conformal charts, and the stability integral.

The unduloid with neck radius ``a`` (0 < a <= 1/2, mean curvature 2) is the
even, T-periodic profile f with -f''/(1+f'^2)^{3/2} + 1/(f sqrt(1+f'^2)) = 2,
f(0) = 1-a, f'(0) = 0 and first integral f^2 - f/sqrt(1+f'^2) = -q, q = a(1-a).
Isothermally it is (x(t) cos th, x(t) sin th, z(t)) with x'' = (1 - 2q) x - 2x^3,
z' = q + x^2 and x^2 = x'^2 + z'^2.  a = 1/2 is the cylinder (f = 1/2, T = pi).

Both come in closed form from Delaunay's roulette angle phi (J. Math. Pures
Appl. 6, 1841), 0 at the bulge and pi at the neck.  With b = 1/2 - a,
f = x = 1/2 + b cos phi gives f - f^2 - q = b^2 sin^2 phi, so by the first integral

    ds/dphi = (f^2 + q) / sqrt(f^2 + f + q),   dt/dphi = 1 / sqrt(f^2 + f + q),
    x' = -b sin phi sqrt(f^2 + f + q),   f' = x' / (f^2 + q).

One DCT-I on phi_j = j pi / M gives both as series sum'' A_k cos k phi, hence
T = 2 pi C_0, tau = pi C_0 (C_0 = A_0 / 2) and s, t = C_0 phi + sum (A_k / k) sin k phi.
V = 2 pi int f^2 ds and I_a are trapezoid sums on the same nodes.  The
arclength I_a integrand (``compute_Ia``) cancels from O(1) to I_a ~ 2a at
small a.  Subtracting d/dt (x^3 x') (integral 0: x' = 0 at t = 0, tau) from its
isothermal form z' (4x^2 + 2q - 5z'^2 + q z'^2 / x^2) leaves

    I_a = q int_0^tau [6x^2 (1 - x^2) - 9q x^2 + 2q (1 - q) + q^3 / x^2] dt.

Node count M: the trapezoid rule on a periodic analytic integrand converges
geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014), here at the rate of
the zero f = -a of f^2 + f + q = (f + a)(f + 1 - a), at cos phi = -1 - 2a/b:
A_k ~ exp(-k eta), cosh eta = 1 + 2a/b.  M is the least power of two (>= 8)
with M eta >= 53 ln 2, so every dropped or aliased coefficient is below double
rounding, the sine series give s and t between nodes to rounding, and the sums
(error ~ exp(-2 M eta)) are exact: 32 nodes at a = 0.3, 512 at a = 0.002, and
8 at the cylinder b = 0 (f = 1/2, eta = inf), which takes this path too.
The profile grid is uniform in phi, with s from one DST-I; the chart keeps a
uniform t grid by Newton inversion of t(phi).  Both transforms are numpy real
FFTs (``fields.dct1``, ``fields.dst1``).  Between nodes, f(s), x(t), x'(t) and
t(z) are piecewise cubic Hermite interpolants (``CubicHermite``) on the exact
slopes f', x', x'' = (1 - 2q) x - 2x^3 and 1/z', so none needs a linear solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, NonConvergence
from .fields import dct1, dst1

DEFAULT_GRID = 2048  # samples per half-period (panel count; +1 nodes)

MAX_MODES = 1 << 14
"""Largest roulette node count M (``_modes``) a neck may need, which sets the
floor a = 6.3e-7 (M doubles for each quartering of a).  The chart's dense
(M, grid_size + 1) sine matrix is 134 MB there at its 1024 panels; at
a = 1e-8 it would be 1.07 GB, and below a = 2.8e-17 eta rounds to 0."""

NEWTON_MAX = 8
NEWTON_STOP = 1e-8  # then the next error is below 1e-14 (quadratic factor <= 80 at a >= 1e-4)


def check_neck(a: float) -> float:
    """Validate the neck parameter and return it as a float: 0 < a <= 1/2,
    and the neck needs at most ``MAX_MODES`` roulette nodes."""
    a = float(a)
    if not (0.0 < a <= 0.5):
        raise DomainError(f"neck parameter a={a} outside (0, 1/2]")
    if not MAX_MODES * _eta(a) >= 53.0 * np.log(2.0):
        raise DomainError(f"neck parameter a={a} needs more than {MAX_MODES} roulette nodes "
                          "(the floor is a = 6.3e-7)")
    return a


def _fpp_from(f, fp):
    """f'' from the profile ODE (exact given f, f')."""
    one = 1.0 + fp * fp
    return one / f - 2.0 * one**1.5


def _fppp_from(f, fp, fpp):
    """f''' by differentiating the profile ODE."""
    one = 1.0 + fp * fp
    return 2.0 * fp * fpp / f - one * fp / f**2 - 6.0 * fp * fpp * np.sqrt(one)


def _eta(a: float) -> float:
    """The decay rate eta of the roulette series, cosh eta = 1 + 2a/b; inf at the
    cylinder b = 0, whose series is its constant term."""
    b = 0.5 - a
    return np.inf if b == 0.0 else np.arccosh(1.0 + 2.0 * a / b)


def _modes(a: float) -> int:
    """Roulette node count M: least power of two (>= 8) with M eta >= 53 ln 2."""
    return 1 << int(np.ceil(np.log2(max(8.0, 53.0 * np.log(2.0) / _eta(a)))))


def _radius(a, phi):
    return 0.5 + (0.5 - a) * np.cos(phi)


def _radicand(a, f):
    return f * f + f + a * (1.0 - a)


def _xprime(a, phi, f):
    """x' = -b sin phi sqrt(f^2 + f + q), exactly 0 at the bulge and neck."""
    xp = (a - 0.5) * np.sin(phi) * np.sqrt(_radicand(a, f))
    xp[0] = xp[-1] = 0.0
    return xp


def _antiderivative(anti, n: int):
    """(phi, G) at phi_j = j pi / n for G = anti[0] phi + sum_k anti[k] sin k phi: one
    DST-I of anti[1:] zero-padded onto the r-fold finer grid (r n >= M), every r-th node."""
    r = -(-(anti.shape[-1] - 1) // n)
    x = np.zeros(anti.shape[:-1] + (n * r - 1,))
    keep = min(anti.shape[-1] - 1, n * r - 1)
    x[..., :keep] = anti[..., 1:keep + 1]
    phi = np.linspace(0.0, np.pi, n * r + 1)
    G = anti[..., :1] * phi
    G[..., 1:-1] += 0.5 * dst1(x)
    return phi[::r], G[..., ::r]


def _samples(a, anti, n: int):
    """(s, f, f') at phi_j = j pi / n, from the coefficients ``anti`` of s(phi)."""
    phi, s = _antiderivative(anti, n)
    f = _radius(a, phi)
    return s, f, _xprime(a, phi, f) / (f * f + a * (1.0 - a))


class CubicHermite:
    """Piecewise cubic Hermite interpolant through nodal values y and slopes dy.

    With exact slopes its error is at most h^4 max|y''''| / 384 a panel, and it
    needs no linear solve.  Panel i holds y_i + dy_i u + c2_i u^2 + c3_i u^3,
    u = x - x_i; points outside the knots extend the end panels.  ``y`` and
    ``dy`` may stack several curves on leading axes, which share the panel
    search.  Uniform knots find the panel arithmetically, others by bisection
    on the interior knots.
    """

    def __init__(self, x, y, dy, uniform: bool = False):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dy = np.asarray(dy, dtype=float)
        h = np.diff(x)
        chord = np.diff(y, axis=-1) / h
        d0, d1 = dy[..., :-1], dy[..., 1:]
        self.x = x
        self.coef = (y[..., :-1], d0, (3.0 * chord - 2.0 * d0 - d1) / h,
                     (d0 + d1 - 2.0 * chord) / (h * h))
        self._inv_step = (len(x) - 1) / (x[-1] - x[0]) if uniform else None

    def __call__(self, u, slope: bool = False):
        """y at u, or (y, y') with ``slope``; curves stacked in y lead the shape."""
        u = np.asarray(u, dtype=float)
        if self._inv_step is None:
            i = np.searchsorted(self.x[1:-1], u)
        else:
            i = np.clip(((u - self.x[0]) * self._inv_step).astype(np.intp), 0, len(self.x) - 2)
        dx = u - self.x[i]
        c0, c1, c2, c3 = (c[..., i] for c in self.coef)
        y = c0 + dx * (c1 + dx * (c2 + dx * c3))
        if not slope:
            return y
        return y, c1 + dx * (2.0 * c2 + 3.0 * dx * c3)


class _Record:
    """to_dict over the public dataclass fields, arrays as lists."""

    KIND = ""

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("_")}
        d = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()}
        return dict(d, kind=self.KIND)


@dataclass
class DelaunayProfile(_Record):
    """One solved unduloid profile on [0, T/2] plus derived block data.

    ``grid`` holds the arclength s_j in [0, T/2] at uniform roulette angle
    phi_j = j pi / (len(grid) - 1); f/fp/fpp are the profile and its
    derivatives there.  V is the block volume |Omega_0| and Ia the stability
    integral, both trapezoid sums in phi.  ``_anti`` holds the coefficients of
    s(phi) (``_antiderivative``).
    """

    KIND = "delaunay-profile"
    a: float
    grid: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    T: float
    V: float
    Ia: float
    _anti: np.ndarray = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def _interp(self):
        """The Hermite interpolant of f on its exact slopes f' (0 at both ends),
        on samples at uniform phi 4x finer than the grid (non-uniform knots s
        from ``_anti``, f and f' in closed form); built on first use."""
        return CubicHermite(*_samples(self.a, self._anti, 4 * (len(self.grid) - 1)))

    def _half_eval(self, u, order):
        """f, and f' when ``order`` >= 1, on the folded coordinate u in [0, T/2]."""
        if order == 0:
            return (self._interp(u),)
        return self._interp(u, slope=True)

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


@dataclass
class ConformalChart(_Record):
    """Isothermal parametrization of one unduloid period.

    tgrid is a uniform symmetric grid on [-tau, tau] (odd length); x is even,
    z odd, and p(t) = x^2 |A|^2 = 2 x^2 + 2 a^2 (1-a)^2 / x^2 is the potential
    of the Jacobi operator J[h] = x^{-2}(h_thth + h_tt + p h).
    """

    KIND = "conformal-chart"
    a: float
    tgrid: np.ndarray
    x: np.ndarray
    xp: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    tau: float
    p: np.ndarray

    @property
    def half_size(self) -> int:
        """Number of uniform panels on [0, tau]."""
        return (len(self.tgrid) - 1) // 2

    def half_view(self):
        """(t, x, xp, z, zp, p) restricted to [0, tau]."""
        m = self.half_size
        return (self.tgrid[m:], self.x[m:], self.xp[m:], self.z[m:], self.zp[m:], self.p[m:])

    @functools.cached_property
    def _t_of_z(self):
        return CubicHermite(self.z, self.tgrid, 1.0 / self.zp)

    @functools.cached_property
    def _x_of_t(self):
        q = self.a * (1.0 - self.a)
        xpp = (1.0 - 2.0 * q) * self.x - 2.0 * self.x**3
        return CubicHermite(self.tgrid, np.stack((self.x, self.xp)),
                            np.stack((self.xp, xpp)), uniform=True)

    def t_of_y3(self, y3):
        """Invert z(t) = y3 on one period: Hermite interpolant of t(z) with slope 1/z'."""
        y3 = np.asarray(y3, dtype=float)
        half = np.abs(self.z[-1])
        u = np.mod(y3 + half, 2.0 * half) - half
        return self._t_of_z(u)

    def x_of_t(self, t):
        """(x, x') at arbitrary t in [-tau, tau]: Hermite interpolants on the uniform
        t grid with slopes x' and x'' = (1 - 2q) x - 2 x^3."""
        return tuple(self._x_of_t(t))

    def isothermal_residual(self) -> float:
        return float(np.max(np.abs(self.x**2 - self.xp**2 - self.zp**2)))


def _block_sums(a: float, m: int):
    """(anti, V, Ia) on m + 1 nodes; ``anti`` holds C_0 and the sine coefficients of s
    and t (rows), V and Ia are trapezoid sums, Ia by the reduced integrand."""
    phi = np.linspace(0.0, np.pi, m + 1)
    q = a * (1.0 - a)
    f = _radius(a, phi)
    f2 = f * f
    dt = 1.0 / np.sqrt(_radicand(a, f))
    ds = (f2 + q) * dt
    anti = dct1(np.stack((ds, dt))) / m / np.r_[2.0, np.arange(1, m), 2.0 * m]
    w = np.full(m + 1, np.pi / m)
    w[[0, -1]] *= 0.5
    V = 2.0 * np.pi * float(w @ (f2 * ds))
    Ia = q * float(w @ ((6.0 * f2 * (1.0 - f2) - 9.0 * q * f2 + 2.0 * q * (1.0 - q)
                         + q**3 / f2) * dt))
    return anti, V, Ia


def _period(anti) -> float:
    """T = 2 s(pi) = 2 pi C_0: the DST-I leaves the end node alone, and phi ends on pi."""
    return float(2.0 * (anti[0, 0] * np.pi))


def solve_profile(a: float, grid_size: int = DEFAULT_GRID) -> DelaunayProfile:
    """The profile on [0, T/2] from the roulette quadratures (module docstring).

    T, V and Ia come from the roulette series on ``_modes(a)`` + 1 nodes; the
    stored grid is ``grid_size`` + 1 samples at uniform phi.
    """
    a = check_neck(a)
    anti, V, Ia = _block_sums(a, _modes(a))
    s, f, fp = _samples(a, anti[0], grid_size)
    return DelaunayProfile(a=a, grid=s, f=f, fp=fp, fpp=_fpp_from(f, fp), T=_period(anti),
                           V=V, Ia=Ia, _anti=anti[0])


def compute_Ia(profile: DelaunayProfile) -> float:
    """Stability integral by composite Simpson quadrature on the profile grid:

    I_a = int_0^{T/2} f/(1+f'^2)^{5/2} [ f f'' (2 - f'^2) + (1+3f'^2)(1+f'^2) ] ds
    """
    f, fp, fpp = profile.f, profile.fp, profile.fpp
    one = 1.0 + fp * fp
    from scipy.integrate import simpson

    integrand = f / one**2.5 * (f * fpp * (2.0 - fp * fp) + (1.0 + 3.0 * fp * fp) * one)
    return float(simpson(integrand, x=profile.grid))


def compute_Ia_conformal(chart: ConformalChart) -> float:
    """I_a from the isothermal chart, as an independent cross-check:

    I_a = int_0^tau A B dt,  A = a(1-a) + x^2,
    B = -(z')^2 + 4(x')^2 + a(1-a)/x^2 (3(z')^2 + 2(x')^2).
    """
    from scipy.integrate import simpson

    t, x, xp, _, zp, _ = chart.half_view()
    q = chart.a * (1.0 - chart.a)
    A = q + x * x
    B = -zp * zp + 4.0 * xp * xp + (q / (x * x)) * (3.0 * zp * zp + 2.0 * xp * xp)
    return float(simpson(A * B, x=t))


def _chart_potential(a, x):
    q = a * (1.0 - a)
    return 2.0 * x * x + 2.0 * q * q / (x * x)


def build_chart(a: float, grid_size: int = 1024) -> ConformalChart:
    """The conformal chart on a uniform t grid from the roulette (module docstring).

    ``grid_size`` is the number of uniform panels on [0, tau]; the stored grid
    covers [-tau, tau] by the even/odd symmetries of x and z.  phi(t_i) is the
    Newton root of t(phi) = t_i, started from linear interpolation of t at
    uniform phi; x and x' are closed forms in phi, and z = s(phi).
    """
    a = check_neck(a)
    anti = _block_sums(a, _modes(a))[0]
    phi, G = _antiderivative(anti, grid_size)
    tau = float(G[1, -1])
    th = np.linspace(0.0, tau, grid_size + 1)
    phi = np.interp(th, G[1], phi)
    k = np.arange(1, anti.shape[1])

    def s_and_t(phi):
        return anti[:, :1] * phi + anti[:, 1:] @ np.sin(np.outer(k, phi))

    for _ in range(NEWTON_MAX):
        step = (s_and_t(phi)[1] - th) * np.sqrt(_radicand(a, _radius(a, phi)))
        phi = phi - step
        if np.max(np.abs(step)) < NEWTON_STOP:
            break
    else:
        raise NonConvergence(f"t(phi) = t_i for a={a}: no convergence in {NEWTON_MAX} steps")
    phi[0], phi[-1] = 0.0, np.pi
    z = s_and_t(phi)[0]
    x = _radius(a, phi)
    xp = _xprime(a, phi, x)
    # extend to [-tau, tau]: x even, x' odd, z odd
    t = np.concatenate((-th[::-1][:-1], th))
    x = np.concatenate((x[::-1][:-1], x))
    xp = np.concatenate((-xp[::-1][:-1], xp))
    z = np.concatenate((-z[::-1][:-1], z))
    return ConformalChart(a=a, tgrid=t, x=x, xp=xp, z=z, zp=a * (1.0 - a) + x * x, tau=tau,
                          p=_chart_potential(a, x))


def profile_scan(a_values):
    """Rows (a, T, V, Ia) for a list of neck parameters, as ``solve_profile`` gives
    them, from the roulette sums alone: no profile grid is sampled."""
    rows = []
    for a in map(check_neck, a_values):
        anti, V, Ia = _block_sums(a, _modes(a))
        rows.append((a, _period(anti), V, Ia))
    return rows
