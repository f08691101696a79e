"""Scalar fields on one Delaunay period restricted to the reflection class.

A field h(theta, t) is admissible when h(pi - theta, t) = h(theta, t),
h(theta, -t) = h(theta, t) and h is 2*tau-periodic in t.  The theta basis
compatible with the first symmetry is cos(k theta) for even k and
sin(k theta) for odd k; evenness and periodicity in t make each mode profile
a cosine series on the uniform grid t_j = j tau / m, j = 0..m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .errors import GridMismatch


def theta_basis(k: int, theta):
    """Admissible angular basis function for mode k."""
    theta = np.asarray(theta, dtype=float)
    return np.cos(k * theta) if k % 2 == 0 else np.sin(k * theta)


def cos_coeffs(values: np.ndarray) -> np.ndarray:
    """Cosine-series coefficients a_m with v_j = sum_m a_m cos(pi m j / M)."""
    v = np.asarray(values, dtype=float)
    m = v.shape[-1] - 1
    A = dct(v, type=1, axis=-1)
    A = A / (2.0 * m)
    if v.ndim == 1:
        A[1:m] *= 2.0
    else:
        A[..., 1:m] *= 2.0
    return A


def cos_eval(coeffs: np.ndarray, t, tau: float, deriv: int = 0) -> np.ndarray:
    """Evaluate a cosine series (or its t-derivatives) at arbitrary t.

    Returns an array with shape coeffs.shape[:-1] + t.shape.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = coeffs.shape[-1] - 1
    freq = np.arange(m + 1) * (np.pi / tau)
    phase = np.outer(freq, t.ravel())  # (m+1, nt)
    if deriv == 0:
        basis = np.cos(phase)
    elif deriv == 1:
        basis = -freq[:, None] * np.sin(phase)
    elif deriv == 2:
        basis = -(freq**2)[:, None] * np.cos(phase)
    else:
        raise ValueError("deriv must be 0, 1 or 2")
    out = coeffs @ basis
    return out.reshape(coeffs.shape[:-1] + t.shape)


@dataclass
class SymmetricField:
    """Fourier-in-theta x cosine-in-t representation of an admissible field.

    ``modes[k]`` holds the t-profile of the k-th angular mode on the uniform
    grid [0, tau]; the angular factor is theta_basis(k, .).  With
    ``even_y2`` set, only even-k (cosine) modes may be populated.
    """

    kmax: int
    tau: float
    modes: np.ndarray  # (kmax+1, m+1)
    even_y2: bool = False

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=float)
        if self.modes.shape[0] != self.kmax + 1:
            raise GridMismatch("modes row count does not match kmax")
        if self.even_y2:
            self.modes[1::2] = 0.0

    @classmethod
    def zero(cls, kmax: int, tau: float, m: int, even_y2: bool = False) -> "SymmetricField":
        return cls(kmax=kmax, tau=tau, modes=np.zeros((kmax + 1, m + 1)), even_y2=even_y2)

    @classmethod
    def from_samples(cls, samples: np.ndarray, tau: float, kmax: int,
                     even_y2: bool = False):
        """Project grid samples (ntheta, m+1) at theta_i = 2 pi i / ntheta.

        Returns (field, symmetry_residual): the residual is the sup of the
        angular components outside the admissible class.
        """
        samples = np.asarray(samples, dtype=float)
        ntheta = samples.shape[0]
        if ntheta < 2 * (kmax + 1):
            raise GridMismatch(f"need at least {2*(kmax+1)} theta samples for kmax={kmax}")
        spec = np.fft.rfft(samples, axis=0)
        ncoef = spec.shape[0]
        modes = np.zeros((kmax + 1, samples.shape[1]))
        drop = 0.0
        for k in range(ncoef):
            scale = 1.0 / ntheta if k == 0 else 2.0 / ntheta
            ck = spec[k].real * scale          # cos(k theta) component
            sk = -spec[k].imag * scale         # sin(k theta) component
            if k == ntheta // 2 and ntheta % 2 == 0:
                ck = spec[k].real / ntheta
                sk = 0.0
            admissible = ck if k % 2 == 0 else sk
            inadmissible = sk if k % 2 == 0 else ck
            drop = max(drop, float(np.max(np.abs(inadmissible))))
            if k <= kmax:
                wanted = admissible
                if even_y2 and k % 2 == 1:
                    drop = max(drop, float(np.max(np.abs(wanted))))
                else:
                    modes[k] = wanted
            else:
                drop = max(drop, float(np.max(np.abs(admissible))))
        f = cls(kmax=kmax, tau=tau, modes=modes, even_y2=even_y2)
        return f, drop

    @property
    def m(self) -> int:
        return self.modes.shape[1] - 1

    def coeffs(self) -> np.ndarray:
        # recomputed on demand: modes may be mutated in place by callers
        return cos_coeffs(self.modes)

    def _fold_t(self, t):
        """Fold arbitrary t to [0, tau] using evenness and 2*tau periodicity."""
        t = np.asarray(t, dtype=float)
        u = np.mod(t, 2.0 * self.tau)
        return np.where(u > self.tau, 2.0 * self.tau - u, u)

    def profiles_at(self, t, deriv: int = 0) -> np.ndarray:
        """All mode profiles (and derivatives) at arbitrary t; (kmax+1, nt)."""
        tf = self._fold_t(np.atleast_1d(t))
        vals = cos_eval(self.coeffs(), tf, self.tau, deriv=deriv)
        if deriv == 1:
            # odd derivative flips sign on the reflected half
            u = np.mod(np.atleast_1d(t), 2.0 * self.tau)
            sign = np.where(u > self.tau, -1.0, 1.0)
            vals = vals * sign
        return vals

    def evaluate(self, theta, t) -> np.ndarray:
        """Pointwise values at broadcast (theta, t)."""
        theta = np.asarray(theta, dtype=float)
        t = np.asarray(t, dtype=float)
        theta_b, t_b = np.broadcast_arrays(theta, t)
        profs = self.profiles_at(t_b.ravel())  # (k+1, N)
        out = np.zeros(t_b.size)
        for k in range(self.kmax + 1):
            out += profs[k] * theta_basis(k, theta_b.ravel())
        return out.reshape(t_b.shape)

    def grid_values(self, ntheta: int = 64) -> np.ndarray:
        """Values on the tensor grid theta_i = 2 pi i/ntheta x stored t grid."""
        th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
        out = np.zeros((ntheta, self.m + 1))
        for k in range(self.kmax + 1):
            out += np.outer(theta_basis(k, th), self.modes[k])
        return out

    def norm_sup(self, ntheta: int = 64) -> float:
        return float(np.max(np.abs(self.grid_values(ntheta))))

    def even_part(self) -> "SymmetricField":
        modes = self.modes.copy()
        modes[1::2] = 0.0
        return SymmetricField(self.kmax, self.tau, modes, even_y2=True)

    def odd_part(self) -> "SymmetricField":
        modes = self.modes.copy()
        modes[0::2] = 0.0
        return SymmetricField(self.kmax, self.tau, modes)

    def copy(self) -> "SymmetricField":
        return SymmetricField(self.kmax, self.tau, self.modes.copy(), self.even_y2)

    def _binary(self, other, op):
        if not isinstance(other, SymmetricField):
            return NotImplemented
        if other.modes.shape != self.modes.shape or other.tau != self.tau:
            raise GridMismatch("field grids differ")
        return SymmetricField(self.kmax, self.tau, op(self.modes, other.modes),
                              self.even_y2 and other.even_y2)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return SymmetricField(self.kmax, self.tau, self.modes * float(scalar), self.even_y2)

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {
            "kind": "symmetric-field",
            "kmax": self.kmax,
            "tau": self.tau,
            "even_y2": self.even_y2,
            "modes": self.modes.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SymmetricField":
        return cls(kmax=d["kmax"], tau=d["tau"], modes=np.asarray(d["modes"]),
                   even_y2=d.get("even_y2", False))

    @classmethod
    def from_json(cls, text: str) -> "SymmetricField":
        return cls.from_dict(json.loads(text))


def on_axis_derivatives(h: SymmetricField, chart, theta, y3, order: int = 2):
    """Evaluate h and its (theta, y3) derivatives through the chart.

    The field is stored against the isothermal parameter t; y3-derivatives
    follow from t'(y3) = 1/z'(t) and t''(y3) = -2 x x' / (z')^3.
    Returns (h, h_th, h_3[, h_thth, h_th3, h_33]) broadcast over (theta, y3).
    """
    theta = np.asarray(theta, dtype=float)
    y3 = np.asarray(y3, dtype=float)
    theta_b, y3_b = np.broadcast_arrays(theta, y3)
    shape = y3_b.shape
    t = np.asarray(chart.t_of_y3(y3_b.ravel()))
    x, xp = chart.x_of_t(t)
    q = chart.a * (1.0 - chart.a)
    zp = q + x * x
    tp = 1.0 / zp
    tpp = -2.0 * x * xp / zp**3

    tf = h._fold_t(t)
    sign = np.where(np.mod(t, 2.0 * h.tau) > h.tau, -1.0, 1.0)
    c = h.coeffs()
    p0 = cos_eval(c, tf, h.tau, 0)
    p1 = cos_eval(c, tf, h.tau, 1) * sign
    p2 = cos_eval(c, tf, h.tau, 2) if order >= 2 else None

    ks = np.arange(h.kmax + 1)
    thr = theta_b.ravel()
    bas = np.stack([theta_basis(k, thr) for k in ks])        # (k+1, N)
    dbas = np.stack([
        -k * np.sin(k * thr) if k % 2 == 0 else k * np.cos(k * thr) for k in ks
    ])
    h0 = np.sum(p0 * bas, axis=0)
    h_th = np.sum(p0 * dbas, axis=0)
    h_t = np.sum(p1 * bas, axis=0)
    h_3 = h_t * tp
    out = [h0.reshape(shape), h_th.reshape(shape), h_3.reshape(shape)]
    if order >= 2:
        d2bas = -(ks**2)[:, None] * bas
        h_thth = np.sum(p0 * d2bas, axis=0)
        h_tht = np.sum(p1 * dbas, axis=0)
        h_tt = np.sum(p2 * bas, axis=0)
        h_th3 = h_tht * tp
        h_33 = h_tt * tp * tp + h_t * tpp
        out += [h_thth.reshape(shape), h_th3.reshape(shape), h_33.reshape(shape)]
    return tuple(out)
