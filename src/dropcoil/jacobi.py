"""Projected solves for the Jacobi operator of the unduloid.

In isothermal coordinates the operator is

    J[h] = x(t)^{-2} ( h_thth + h_tt + p(t) h ),   p = 2 x^2 + 2 a^2(1-a)^2 / x^2,

and the T-periodic kernel is spanned by the normal components
nu_1 = cos th z'/x, nu_2 = sin th z'/x, nu_3 = -x'/x.  Within the symmetry
class only nu_2 survives; the projected problem

    J[h] = E - c nu_2 - d,    int h = int h nu_2 = 0   (over Sigma_0)

is solved mode by mode on the cosine grid, with bordered systems deflating
the k = 1 kernel (coefficient c) and pinning the k = 0 mean (coefficient d).
Surface integrals use the conformal measure dsigma = x(t)^2 dtheta dt.
d^2/dt^2 is DCT-I collocation (``fields.dct1``).  The solver keeps each mode's
matrix, (m+2)^2 at most, and solves it with ``np.linalg.solve`` (LAPACK getrf
and getrs) on every call: at the reduction's m = 24 and 48 a whole projected
solve takes 0.08 and 0.3 ms, so no factorization is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, IllConditioned, SingularSystem
from .fields import SymmetricField, dct1, dst1
from .profile import ConformalChart

DEFAULT_KMAX = 16
DEFAULT_M = 256  # panels on [0, tau]; 512 per full period
# Smallest ratio of the least to the largest singular value a mode's system
# may have; below it the system has a numerical kernel (SingularSystem for
# the k = 0 operator, IllConditioned for a bordered or k >= 2 system).
DEFLATION_RTOL = 1e-10


def _second_derivative_matrix(m: int, tau: float) -> np.ndarray:
    """Spectral d^2/dt^2 on the cosine grid t_j = j tau / m (DCT-I collocation)."""
    eye = np.eye(m + 1)
    coef = dct1(eye, axis=0)
    lam = -(np.arange(m + 1) * np.pi / tau) ** 2
    return dct1(lam[:, None] * coef, axis=0) * (1.0 / (2 * m))


@dataclass
class KernelFields:
    """Radial profiles of the translation Jacobi fields on the solver grid."""

    nu2: np.ndarray  # pairs with sin(theta), nu1 with cos(theta); the symmetric-class kernel
    nu3: np.ndarray  # theta-independent, odd in t


class JacobiSolver:
    """Chart-bound spectral solver for the projected Jacobi problem."""

    def __init__(self, chart: ConformalChart, kmax: int = DEFAULT_KMAX, m: int = DEFAULT_M):
        half = chart.half_size
        if half % m != 0:
            raise GridMismatch(f"chart half grid ({half}) not divisible by solver size {m}")
        stride = half // m
        t, x, xp, z, zp, p = chart.half_view()
        self.chart = chart
        self.kmax = kmax
        self.m = m
        self.tau = chart.tau
        self.t = t[::stride]
        self.x = x[::stride]
        self.xp = xp[::stride]
        self.z = z[::stride]
        self.zp = zp[::stride]
        self.p = p[::stride]
        self.x2 = self.x**2

        # full-period trapezoid in t (spectrally accurate for periodic data)
        w = np.full(m + 1, 2.0 * self.tau / m)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.w = w

        self.D2 = _second_derivative_matrix(m, self.tau)
        self.kernel = KernelFields(nu2=self.zp / self.x, nu3=-self.xp / self.x)

        self._systems = []  # per mode k; k = 0 and 1 bordered, (m+2)^2
        for k in range(kmax + 1):
            A = self.D2 + np.diag(self.p - float(k * k))
            if k == 0:
                # invertible on the even subspace for a < 1/2; at the cylinder
                # the marginal cos(t) mode makes it genuinely singular
                sv = np.linalg.svd(A, compute_uv=False)
                if sv[-1] < DEFLATION_RTOL * sv[0]:
                    raise SingularSystem(
                        "theta-independent operator numerically singular "
                        "(cylinder-degenerate chart?)")
                self.hbar = np.linalg.solve(A, self.x2)
            if k < 2:  # border with the mean (k = 0) or the nu_2 kernel (k = 1)
                g = self.x2 if k == 0 else self.x2 * self.kernel.nu2
                A = self._bordered(A, g, self.w * g)
            self._check(A, k)
            self._systems.append(A)

        self.int_hbar = 2.0 * np.pi * float(np.sum(self.w * self.hbar * self.x2))
        if self.int_hbar <= 0.0:
            raise SingularSystem("int hbar <= 0; k=0 solve is inconsistent")
        self.int_nu2_sq = np.pi * float(np.sum(self.w * self.kernel.nu2**2 * self.x2))

    @staticmethod
    def _bordered(A, col, row):
        n = A.shape[0]
        B = np.zeros((n + 1, n + 1))
        B[:n, :n] = A
        B[:n, n] = col
        B[n, :n] = row
        return B

    @staticmethod
    def _check(A, k):
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] < DEFLATION_RTOL * sv[0]:
            # a k >= 2 mode has no periodic Jacobi field; near-singularity is a bug upstream
            raise IllConditioned(f"unexpected near-kernel in mode k={k}", mode=k)

    # ---- field plumbing -------------------------------------------------

    def _require(self, h: SymmetricField):
        if h.m != self.m or abs(h.tau - self.tau) > 1e-12 * max(1.0, self.tau):
            raise GridMismatch("field is not on the solver grid")
        if h.kmax > self.kmax:
            raise GridMismatch(f"field kmax {h.kmax} exceeds solver kmax {self.kmax}")

    def zero_field(self, kmax=None) -> SymmetricField:
        return SymmetricField.zero(self.kmax if kmax is None else kmax, self.tau, self.m)

    def nu2_field(self) -> SymmetricField:
        f = self.zero_field(kmax=max(self.kmax, 1))
        f.modes[1] = self.kernel.nu2
        return f

    # ---- surface integrals (measure x^2 dtheta dt) ----------------------

    def integral(self, h: SymmetricField) -> float:
        """int_{Sigma_0} h dsigma (only the k = 0 mode contributes)."""
        self._require(h)
        return 2.0 * np.pi * float(np.sum(self.w * h.modes[0] * self.x2))

    def integral_nu2(self, h: SymmetricField) -> float:
        """int_{Sigma_0} h nu_2 dsigma (only the k = 1 mode contributes)."""
        self._require(h)
        if h.kmax < 1:
            return 0.0
        return np.pi * float(np.sum(self.w * h.modes[1] * self.kernel.nu2 * self.x2))

    def inner(self, u: SymmetricField, v: SymmetricField) -> float:
        """int_{Sigma_0} u v dsigma by angular orthogonality."""
        self._require(u)
        self._require(v)
        kk = min(u.kmax, v.kmax)
        fac = np.where(np.arange(kk + 1) == 0, 2.0 * np.pi, np.pi)
        return float(np.sum(fac[:, None] * u.modes[: kk + 1] * v.modes[: kk + 1]
                            * self.w * self.x2))

    # ---- operator and solves --------------------------------------------

    def apply(self, h: SymmetricField) -> SymmetricField:
        self._require(h)
        out = np.empty_like(h.modes)
        for k in range(h.kmax + 1):
            out[k] = self.apply_mode(k, h.modes[k])
        return SymmetricField(h.kmax, self.tau, out)

    def apply_mode(self, k: int, prof: np.ndarray) -> np.ndarray:
        return (self.D2 @ prof + (self.p - k * k) * prof) / self.x2

    def solve_projected(self, E: SymmetricField):
        """Unique (h, c, d) with J[h] = E - c nu_2 - d, int h = int h nu_2 = 0."""
        self._require(E)
        h = np.zeros_like(E.modes)
        border = [0.0, 0.0]  # the bordered k = 0 and k = 1 systems' last unknowns, d and c
        for k in range(E.kmax + 1):
            rhs = self.x2 * E.modes[k]
            if k < 2:
                sol = np.linalg.solve(self._systems[k], np.append(rhs, 0.0))
                h[k], border[k] = sol[:-1], float(sol[-1])
            else:
                h[k] = np.linalg.solve(self._systems[k], rhs)
        d, c = border
        return SymmetricField(E.kmax, self.tau, h), c, d

    def project_coeffs(self, E: SymmetricField):
        """(c, d) = (int E nu_2 / int nu_2^2, int E hbar / int hbar)."""
        self._require(E)
        c = self.integral_nu2(E) / self.int_nu2_sq
        d = 2.0 * np.pi * float(np.sum(self.w * E.modes[0] * self.hbar * self.x2)) / self.int_hbar
        return c, d

    # ---- diagnostics ----------------------------------------------------

    def kernel_residuals(self) -> dict:
        """sup |J[nu_j]| relative to sup |nu_j| for nu2 and nu3 (nu1 has nu2's radial profile)."""
        out = {}
        r2 = self.apply_mode(1, self.kernel.nu2)
        out["nu2"] = float(np.max(np.abs(r2)) / np.max(np.abs(self.kernel.nu2)))
        # nu3 is odd in t: differentiate in the sine basis
        interior = self.kernel.nu3[1:-1]
        coef = dst1(interior) / self.m
        lam = -((np.arange(1, self.m) * np.pi / self.tau) ** 2)
        d2 = dst1(lam * coef) / 2.0
        r3 = (d2 + self.p[1:-1] * interior) / self.x2[1:-1]
        out["nu3"] = float(np.max(np.abs(r3)) / np.max(np.abs(self.kernel.nu3)))
        return out

    def hbar_variation_of_parameters(self):
        """The zero-initial-condition solution via variation of parameters:

            h(t) = nu3(t) int_0^t nu3(s)^{-2} int_0^s x^2 nu3  ds.

        This is the object carrying the pointwise properties h(0) = 0,
        h > 0 on (0, tau); it differs from the even *periodic* solution
        held in ``hbar`` by an even homogeneous solution (the
        periodic one is what the projection duality needs).  Returns
        (t, values) on t <= 0.9 tau, away from the nu3 zero at tau.
        """
        from scipy.integrate import cumulative_simpson

        n_fine = 16 * self.m
        tf = np.linspace(0.0, 0.9 * self.tau, n_fine + 1)
        x, xp = self.chart.x_of_t(tf)
        nu3 = -xp / x
        inner = cumulative_simpson(x * x * nu3, x=tf, initial=0.0)
        integrand = np.zeros_like(tf)
        nz = nu3 != 0.0
        integrand[nz] = inner[nz] / nu3[nz] ** 2
        # removable limit at t = 0: x^2 nu3 = -(x^2/2)' gives inner ~ -x0 x0'' t^2/2
        x0 = x[0]
        q = self.chart.a * (1.0 - self.chart.a)
        xpp0 = (1.0 - 2.0 * q) * x0 - 2.0 * x0**3
        integrand[0] = -x0**3 / (2.0 * xpp0)
        outer = cumulative_simpson(integrand, x=tf, initial=0.0)
        return tf, nu3 * outer

