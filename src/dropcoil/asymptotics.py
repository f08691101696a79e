"""Small-neck machinery: the sech profile, its corrections, and I_a ~ 2a.

At a = 0 the conformal profile is x0(t) = sech(t) (x'' = x - 2x^3); the
linearization L0(v) = v'' - v + 6 x0^2 v has the bounded kernel element
k0 = sech tanh, and the first-order profile correction is

    phi(t) = sech(t) (-1 + t tanh t),   L0(phi) = -2 x0.

The particular solution with zero initial conditions of L0(psi) = h is the
variation-of-parameters operator

    Theta(h)(t) = k0(t) int_0^t k0(s)^{-2} int_0^s h k0,

and the full remainder phi_a of x = sech(1 + a(-1 + t tanh t)) + phi_a solves
a fixed-point problem driven by Theta.  The sech-moment table assembles the
slope I_a = 2a + O(a^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NoContraction

DEFAULT_HORIZON = 40.0


def sech(t):
    return 1.0 / np.cosh(t)


def x0(t):
    return sech(t)


def x0_kernel(t):
    """Bounded kernel element of L0 (the derivative of sech up to sign)."""
    return np.tanh(t) * sech(t)


def phi_first_order(t):
    return sech(t) * (-1.0 + t * np.tanh(t))


def even_homogeneous(tgrid: np.ndarray) -> np.ndarray:
    """The even homogeneous solution of L0 (psi(0) = 1, psi'(0) = 0).

    Bridges the zero-initial-condition output of Theta and closed forms with
    other normalizations (e.g. phi with phi(0) = -1).
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return (y[1], y[0] - 6.0 * sech(t) ** 2 * y[0])

    sol = solve_ivp(rhs, (0.0, float(tgrid[-1])), (1.0, 0.0), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return sol.sol(tgrid)[0]


def l0_apply(tgrid: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Discrete L0 v = v'' - v + 6 sech^2 v (4th-order interior differences)."""
    h = tgrid[1] - tgrid[0]
    d2 = np.empty_like(v)
    d2[2:-2] = (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]) / (12.0 * h * h)
    d2[:2] = d2[2]
    d2[-2:] = d2[-3]
    return d2 - v + 6.0 * sech(tgrid) ** 2 * v


def variation_of_parameters(t, f, kernel) -> np.ndarray:
    """psi = k(t) int_0^t k(s)^{-2} int_0^s f k on the grid t, t[0] = 0: the zero-initial-
    condition solution of psi'' + c psi = f, k(0) = 0 a kernel element (f, k callables).

    Nested 8-node Gauss-Legendre panels on the grid intervals; the inner integral at an
    outer node is its panel's prefix plus the rule on the partial panel.  No node sits at
    t = 0, so the removable 0/0 of k^{-2} there is never formed.
    """
    t = np.asarray(t, dtype=float)
    if t[0] != 0.0:
        raise DomainError("variation of parameters needs a grid starting at t = 0")
    xg, wg = leggauss(8)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    lo = t[:-1, None]
    width = np.diff(t)
    sub = lo + width[:, None] * xg                       # (N-1, 8)
    inner = np.concatenate(([0.0], np.cumsum((f(sub) * kernel(sub) * wg).sum(axis=1) * width)))
    part = sub - lo                                      # upper limit - lo
    nodes = lo[..., None] + part[..., None] * xg
    partial = (f(nodes) * kernel(nodes) * wg).sum(axis=-1) * part
    outer_per = ((inner[:-1, None] + partial) / kernel(sub) ** 2 * wg).sum(axis=1) * width
    return kernel(t) * np.concatenate(([0.0], np.cumsum(outer_per)))


def theta_apply(h: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
    """Theta(h) on the grid: the zero-initial-condition solution of L0 psi = h,
    by ``variation_of_parameters`` on a cubic-spline model of h."""
    from scipy.interpolate import CubicSpline

    return variation_of_parameters(tgrid, CubicSpline(tgrid, h), x0_kernel)


@dataclass
class SmallAExpansion:
    a: float
    tgrid: np.ndarray
    x0: np.ndarray
    phia: np.ndarray         # computed remainder, O(a^2)
    sup_window: float        # sup |phia| on the window [0, min(4, horizon)]
    ratio_history: list = field(default_factory=list)

    @property
    def bound_constant(self) -> float:
        """C with sup_{[0, window]} |phi_a| <= C a^2."""
        return self.sup_window / self.a**2

    def reconstruct_x(self) -> np.ndarray:
        """x(t) = sech(t)(1 + a(-1 + t tanh t)) + phi_a(t)."""
        return self.x0 * (1.0 + self.a * (-1.0 + self.tgrid * np.tanh(self.tgrid))) + self.phia


def phi_correction(a: float) -> SmallAExpansion:
    """Picard iteration phi <- Theta(rhs(phi)) for the remainder of Eq-(xa) form.

    rhs(phi) = 2 a^2 x0 - 2 a (1-a)(a phi_cf + phi) - 6 x0 (a phi_cf + phi)^2
               - 2 (a phi_cf + phi)^3,
    whose phi = 0 part reproduces the printed inhomogeneity.  The expansion is
    local: it holds on compacts below the half-period tau(a) ~ -log a + log 4,
    and beyond tau the cubic terms defeat the contraction, so the grid runs
    over [0, -log a + 1.15] (just under tau), 4001 points.  The iteration
    stops once a sweep moves phi by less than 1e-12 max(1, sup |phi|), and
    raises NoContraction after 80 sweeps.  Norms and the contraction ratios
    are reported on the window [0, 4].
    """
    if not (0.0 < a <= 0.05):
        raise DomainError("phi_correction is for 0 < a <= 0.05")
    horizon = -np.log(a) + 1.15
    window = min(4.0, horizon)
    t = np.linspace(0.0, horizon, 4001)
    xx0 = x0(t)
    pcf = phi_first_order(t)

    def rhs(psi):
        u = a * pcf + psi
        return 2.0 * a * a * xx0 - 2.0 * a * (1.0 - a) * u - 6.0 * xx0 * u * u - 2.0 * u**3

    psi = np.zeros_like(t)
    ratios = []
    prev_delta = None
    for _ in range(80):
        new = theta_apply(rhs(psi), t)
        delta = float(np.max(np.abs(new - psi)))
        if prev_delta is not None and prev_delta > 0.0:
            ratios.append(delta / prev_delta)
        psi = new
        if delta < 1e-12 * max(1.0, float(np.max(np.abs(psi)))):
            break
        prev_delta = delta
    else:
        raise NoContraction("phi correction did not settle within 80 sweeps")
    keep = t <= window
    sup_w = float(np.max(np.abs(psi[keep])))
    return SmallAExpansion(a=a, tgrid=t, x0=xx0, phia=psi, sup_window=sup_w,
                           ratio_history=ratios)


SECH_MOMENT_EXACT = {
    "sech2": 1.0,
    "sech4": 2.0 / 3.0,
    "sech6": 8.0 / 15.0,
    "sech4_t_tanh": 1.0 / 6.0,
    "sech6_t_tanh": 4.0 / 45.0,
}
GRAND_COMBINATION_EXACT = 2.0


@dataclass
class MomentTable:
    values: dict
    exact: dict
    grand_combination: float
    grand_exact: float = GRAND_COMBINATION_EXACT

    def max_error(self) -> float:
        return max(abs(self.values[k] - self.exact[k]) for k in self.exact)


def sech_moments() -> MomentTable:
    """The five appendix moments and the grand slope combination, by quadrature.

    One composite Gauss-Legendre rule, 40 panels of 16 nodes on
    [0, DEFAULT_HORIZON], serves all six integrands; it matches the closed
    forms to rounding.  The sech-power tails beyond the horizon are below
    4^m exp(-2 m horizon), utterly negligible at horizon = 40.
    """
    x, w = leggauss(16)
    half = 0.5 * DEFAULT_HORIZON / 40
    t = (half * (2 * np.arange(40)[:, None] + 1.0 + x)).ravel()
    wt = np.tile(half * w, 40)
    s2, tt = sech(t) ** 2, t * np.tanh(t)

    def q(f):
        return float(wt @ f)

    vals = {
        "sech2": q(s2),
        "sech4": q(s2**2),
        "sech6": q(s2**3),
        "sech4_t_tanh": q(s2**2 * tt),
        "sech6_t_tanh": q(s2**3 * tt),
    }
    grand = q(-30.0 * s2**2 + 6.0 * s2 + 30.0 * s2**3 + 16.0 * s2**2 * tt - 30.0 * s2**3 * tt)
    return MomentTable(values=vals, exact=dict(SECH_MOMENT_EXACT), grand_combination=grand)


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    curvature: float  # second-difference estimate of d^2 I / da^2


def ia_slope_check(scan_rows) -> SlopeFit:
    """Least-squares line through small-a (a, I_a) pairs; slope should be ~2.

    ``scan_rows`` are (a, T, V, Ia) rows or (a, Ia) pairs with a <= 0.01.
    """
    pts = []
    for row in scan_rows:
        a, Ia = (row[0], row[-1]) if len(row) >= 2 else row
        if a <= 0.0102:
            pts.append((float(a), float(Ia)))
    if len(pts) < 3:
        raise DomainError("slope check needs at least three points with a <= 0.01")
    pts.sort()
    av = np.array([p[0] for p in pts])
    iv = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(av, iv, 1)
    fwd = np.diff(iv) / np.diff(av)
    mids = 0.5 * (av[1:] + av[:-1])
    curvature = float(np.max(np.abs(np.diff(fwd) / np.diff(mids)))) if len(fwd) > 1 else 0.0
    return SlopeFit(slope=float(slope), intercept=float(intercept), curvature=curvature)
