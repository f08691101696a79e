"""Scalar fields on one Delaunay period restricted to the reflection class.

A field h(theta, t) is admissible when h(pi - theta, t) = h(theta, t),
h(theta, -t) = h(theta, t) and h is 2*tau-periodic in t.  The theta basis
compatible with the first symmetry is cos(k theta) for even k and
sin(k theta) for odd k; evenness and periodicity in t make each mode profile
a cosine series on the uniform grid t_j = j tau / m, j = 0..m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


def dct1(x, axis: int = -1) -> np.ndarray:
    """Unnormalized DCT-I along ``axis``: y_k = x_0 + (-1)^k x_m + 2 sum_j x_j cos(pi j k / m).

    One real FFT of the even extension (x_0, .., x_m, x_{m-1}, .., x_1), which
    is how pocketfft forms its DCT-I, so the bits are those of
    ``scipy.fft.dct(x, type=1)``.  Its inverse is ``dct1(y) * (1 / (2 m))``.
    """
    x = np.swapaxes(np.asarray(x, dtype=float), axis, -1)
    m = x.shape[-1] - 1
    ext = np.empty(x.shape[:-1] + (2 * m,))
    ext[..., :m + 1] = x
    ext[..., m + 1:] = x[..., m - 1:0:-1]
    return np.swapaxes(np.fft.rfft(ext).real, axis, -1)


def dst1(x, axis: int = -1) -> np.ndarray:
    """Unnormalized DST-I along ``axis``: y_k = 2 sum_j x_j sin(pi (j+1)(k+1) / (n+1)).

    One real FFT of the odd extension (0, x_0, .., x_{n-1}, 0, -x_{n-1}, .., -x_0),
    as pocketfft forms its DST-I, so the bits are those of
    ``scipy.fft.dst(x, type=1)``.
    """
    x = np.swapaxes(np.asarray(x, dtype=float), axis, -1)
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * n + 2,))
    ext[..., 1:n + 1] = x
    ext[..., n + 2:] = -x[..., ::-1]
    return np.swapaxes(-np.fft.rfft(ext)[..., 1:n + 1].imag, axis, -1)


def cos_coeffs(values: np.ndarray) -> np.ndarray:
    """Cosine-series coefficients a_m with v_j = sum_m a_m cos(pi m j / M)."""
    v = np.asarray(values, dtype=float)
    m = v.shape[-1] - 1
    A = dct1(v) / (2.0 * m)
    A[..., 1:m] *= 2.0
    return A


def _powers(x: np.ndarray, m: int) -> np.ndarray:
    """exp(i k x) for k = 0..m by angle addition; shape x.shape + (m+1,).

    One exp per element of x; each further multiply fills the next block of
    powers, exp(i (k-1+j) x) = exp(i j x) exp(i (k-1) x), so about log2(m)
    blocked multiplies fill the table.  The table is held k-major, each power
    a contiguous slab over x, so every multiply runs along whole slabs; the
    result is its view with k moved last.  Every series evaluator here takes
    its cos and sin of multiples of an angle from it; ``profile.build_chart``
    forms its own, by ``np.sin(np.outer(k, phi))``.
    """
    out = np.empty((m + 1,) + x.shape, dtype=complex)
    out[0] = 1.0
    if m:
        out[1] = np.exp(1j * x)
    k = 2  # powers 0..k-1 are filled
    while k <= m:
        n = min(k - 1, m + 1 - k)
        np.multiply(out[1:n + 1], out[k - 1], out=out[k:k + n])
        k += n
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


def _quarter_turn(E: np.ndarray, j: int, out=None) -> np.ndarray:
    """Re(i^j E) for E = exp(i a): cos(a + j pi/2) = (cos, -sin, -cos, sin)[j mod 4] of a."""
    part = E.imag if j % 2 else E.real
    return np.negative(part, out=out) if j % 4 in (1, 2) else np.positive(part, out=out)


def _cos_factor(E: np.ndarray, tau: float, j: int) -> np.ndarray:
    """d^j/dt^j cos(freq t) = freq^j cos(freq t + j pi/2), freq = 0, pi/tau, .., m pi/tau.

    E = _powers(t pi / tau, m) is the table of exp(i freq t); the result
    has its shape t.shape + (m+1,).
    """
    out = _quarter_turn(E, j)
    if j:
        out *= (np.arange(E.shape[-1]) * (np.pi / tau)) ** j
    return out


def _theta_factor(E: np.ndarray, i: int) -> np.ndarray:
    """d^i/dtheta^i of the angular basis, k = 0..kmax, from E = _powers(theta, kmax).

    sin(a + i pi/2) = cos(a + (i-1) pi/2), so odd k take the turn i - 1.
    """
    out = np.empty(E.shape)
    _quarter_turn(E[..., 0::2], i, out[..., 0::2])
    _quarter_turn(E[..., 1::2], i + 3, out[..., 1::2])
    if i:
        out *= np.arange(E.shape[-1]) ** i
    return out


def cos_eval(coeffs: np.ndarray, t, tau: float) -> np.ndarray:
    """Evaluate a cosine series at arbitrary t (``series_eval`` takes its
    t-derivatives).

    Returns an array with shape coeffs.shape[:-1] + t.shape.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    basis = _cos_factor(_powers(t * (np.pi / tau), coeffs.shape[-1] - 1), tau, 0)
    return np.tensordot(coeffs, basis, axes=(-1, -1))


def series_eval(coef: np.ndarray, tau: float, theta, t, derivs=((0, 0),)) -> list:
    """Partials d^i/dtheta^i d^j/dt^j of sum_k b_k(theta) p_k(t).

    b_k is cos(k theta) for even k and sin(k theta) for odd k, and p_k is
    the cosine series (half-period tau) with coefficients ``coef[k]``; one
    array of shape broadcast(theta, t) is returned per (i, j) in ``derivs``.
    One exp(i k theta) table on theta's own shape and one exp(i freq t)
    table on t's serve every partial; the cosine factors are contracted with
    the coefficients, then with the angular factors over k, so open grids
    (``x[:, None]``, ``p[None, :]``) pay for their distinct values only;
    ``_sum_over_k`` takes an open grid by one matmul.
    """
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    kmax, m = coef.shape[0] - 1, coef.shape[1] - 1
    E_theta = _powers(theta, kmax)
    E_t = _powers(t * (np.pi / tau), m).reshape(-1, m + 1)
    coef_t = np.ascontiguousarray(coef.T)  # (m+1, kmax+1)
    ang = {i: _theta_factor(E_theta, i) for i in {i for i, _ in derivs}}
    prof = {j: (_cos_factor(E_t, tau, j) @ coef_t).reshape(t.shape + (kmax + 1,))
            for j in {j for _, j in derivs}}
    return [_sum_over_k(ang[i], prof[j]) for i, j in derivs]


def shifted_series(coef: np.ndarray, tau: float, offsets, centre):
    """``series_eval`` at t = centre + o for each array o of ``offsets``.

    Returns ``evaluate(theta, j=0, p=None)``, the series at t = centre[p]
    + offsets[j] (p indexes centre's first axis).  By angle addition, p_k(c + o) = sum_j a_kj
    [cos(j w c) cos(j w o) - sin(j w c) sin(j w o)], w = pi/tau, from one
    table over all the offsets and one row a centre, both formed once: no
    table grows with centres times offsets, and a centre's values do not
    depend on the others.
    """
    offsets = [np.asarray(o, dtype=float) for o in offsets]
    centre = np.asarray(centre, dtype=float)
    kmax, m = coef.shape[0] - 1, coef.shape[1] - 1
    E_o = _powers(np.concatenate([o.ravel() for o in offsets]) * (np.pi / tau), m)
    ends = np.cumsum([0] + [o.size for o in offsets])
    tables = []  # one contiguous block of columns an array, as numpy's stacked matmul wants
    for a, b in zip(ends[:-1], ends[1:]):
        table = np.empty((2, m + 1, b - a, kmax + 1))
        np.multiply(E_o.real.T[:, a:b, None], coef.T[:, None, :], out=table[0])
        np.multiply(E_o.imag.T[:, a:b, None], -coef.T[:, None, :], out=table[1])
        tables.append(table.reshape(2 * (m + 1), -1))
    # a padding value keeps the powers off a length-1 axis (numpy's complex
    # multiply rounds differently there)
    E_c = _powers(np.append(centre.ravel(), 0.0) * (np.pi / tau), m)[:-1]
    # contiguous rows: numpy takes a stack of them one centre at a time (a
    # strided stack it took as one matrix, whose rows rounded by batch)
    rows = np.empty((len(E_c), 1, 2 * (m + 1)))
    rows[:, 0, :m + 1], rows[:, 0, m + 1:] = E_c.real, E_c.imag

    def evaluate(theta, j=0, p=None):
        lead = centre.shape if p is None else np.shape(centre[p])
        prof = np.matmul(rows if p is None else rows[p], tables[j])
        prof = prof.reshape(lead + offsets[j].shape + (kmax + 1,))
        return _sum_over_k(_theta_factor(_powers(np.asarray(theta, dtype=float), kmax), 0), prof)
    return evaluate


def _sum_over_k(ang: np.ndarray, prof: np.ndarray) -> np.ndarray:
    """sum_k ang[..., k] prof[..., k] over the broadcast of their leading shapes.

    ``ang`` holds the angular factors on theta's shape and ``prof`` the
    axial ones on t's.  An open grid with t on axis -2 and theta on axis -1
    (t.shape[-1] = 1, theta.shape[-2] = 1; the leading axes broadcast) is
    contracted by one matmul, (..., n_t, k) @ (..., k, n_theta); other
    shapes by an elementwise product summed over k.
    """
    th, t = ang.shape[:-1], prof.shape[:-1]
    if t[-1:] == (1,) and th and th[-2:-1] in ((), (1,)):
        a = np.swapaxes(ang.reshape(th[:-2] + ang.shape[-2:]), -1, -2)
        return (prof.reshape(t[:-1] + prof.shape[-1:]) @ a).reshape(np.broadcast_shapes(th, t))
    return np.einsum("...k,...k->...", ang, prof)


def theta_grid(ntheta: int) -> np.ndarray:
    """The angular sample grid theta_i = 2 pi i / ntheta, i = 0..ntheta-1."""
    return 2.0 * np.pi * np.arange(ntheta) / ntheta


def theta_mirror(ntheta: int):
    """(own, mirror) for the angular grid ``theta_grid(ntheta)``.

    theta -> pi - theta maps column i to mirror[i] = (ntheta/2 - i) mod
    ntheta when ntheta is even; ``own`` lists one column of each mirror pair
    (and the columns the map fixes), so a field even under the map is known
    on the grid from its ``own`` columns.  For odd ntheta no column maps onto
    another, and every column is its own.
    """
    cols = np.arange(ntheta)
    mirror = cols if ntheta % 2 else (ntheta // 2 - cols) % ntheta
    return cols[mirror >= cols], mirror


@dataclass
class SymmetricField:
    """Fourier-in-theta x cosine-in-t representation of an admissible field.

    ``modes[k]`` holds the t-profile of the k-th angular mode on the uniform
    grid [0, tau]; its angular factor is cos(k theta) for even k and
    sin(k theta) for odd k.
    """

    kmax: int
    tau: float
    modes: np.ndarray  # (kmax+1, m+1)

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=float)
        if self.modes.shape[0] != self.kmax + 1:
            raise GridMismatch("modes row count does not match kmax")

    @classmethod
    def zero(cls, kmax: int, tau: float, m: int) -> "SymmetricField":
        return cls(kmax=kmax, tau=tau, modes=np.zeros((kmax + 1, m + 1)))

    @classmethod
    def from_samples(cls, samples: np.ndarray, tau: float, kmax: int):
        """Project grid samples (ntheta, m+1) on ``theta_grid(ntheta)``.

        Returns (field, symmetry_residual): the residual is the sup of the
        angular components outside the admissible class.
        """
        samples = np.asarray(samples, dtype=float)
        ntheta = samples.shape[0]
        if ntheta < 2 * (kmax + 1):
            raise GridMismatch(f"need at least {2*(kmax+1)} theta samples for kmax={kmax}")
        spec = np.fft.rfft(samples, axis=0)
        k = np.arange(spec.shape[0])[:, None]
        w = np.where(k == 0, 1.0 / ntheta, 2.0 / ntheta)
        cos_k, sin_k = spec.real * w, -spec.imag * w  # the cos(k theta), sin(k theta) parts
        if ntheta % 2 == 0:  # the Nyquist row holds a cosine only
            cos_k[-1], sin_k[-1] = spec[-1].real / ntheta, 0.0
        odd = k % 2 == 1  # the admissible part, as in ``_theta_factor``
        admissible, other = np.where(odd, sin_k, cos_k), np.where(odd, cos_k, sin_k)
        drop = float(np.max(np.abs(np.concatenate((other, admissible[kmax + 1:])))))
        return cls(kmax=kmax, tau=tau, modes=admissible[:kmax + 1]), drop

    @property
    def m(self) -> int:
        return self.modes.shape[1] - 1

    def coeffs(self) -> np.ndarray:
        # recomputed on demand: modes may be mutated in place by callers
        return cos_coeffs(self.modes)

    def evaluate(self, theta, t) -> np.ndarray:
        """Pointwise values at broadcast (theta, t)."""
        return series_eval(self.coeffs(), self.tau, theta, t)[0]

    def grid_values(self, ntheta: int = 64) -> np.ndarray:
        """Values on the tensor grid ``theta_grid(ntheta)`` x stored t grid."""
        return _theta_factor(_powers(theta_grid(ntheta), self.kmax), 0) @ self.modes

    def norm_sup(self, ntheta: int = 64) -> float:
        return float(np.max(np.abs(self.grid_values(ntheta))))

    def odd_part(self) -> "SymmetricField":
        modes = self.modes.copy()
        modes[0::2] = 0.0
        return SymmetricField(self.kmax, self.tau, modes)

    def copy(self) -> "SymmetricField":
        return SymmetricField(self.kmax, self.tau, self.modes.copy())

    def _binary(self, other, op):
        if not isinstance(other, SymmetricField):
            return NotImplemented
        if other.modes.shape != self.modes.shape or other.tau != self.tau:
            raise GridMismatch("field grids differ")
        return SymmetricField(self.kmax, self.tau, op(self.modes, other.modes))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __mul__(self, scalar):
        return SymmetricField(self.kmax, self.tau, self.modes * float(scalar))

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {
            "kind": "symmetric-field",
            "kmax": self.kmax,
            "tau": self.tau,
            "modes": self.modes.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SymmetricField":
        """The field written by ``to_dict``; other keys (an ``even_y2`` flag
        written by earlier versions, always false) are ignored."""
        return cls(kmax=d["kmax"], tau=d["tau"], modes=np.asarray(d["modes"]))


def is_zero_field(h: SymmetricField) -> bool:
    """True when h is absent or has no nonzero mode: the unperturbed surface."""
    return h is None or not np.any(h.modes)


def on_axis_derivatives(coef: np.ndarray, tau: float, chart, theta, y3, derivs) -> list:
    """Partials d^i/dtheta^i d^j/dy3^j, j <= 2, of h through the chart.

    ``coef`` and ``tau`` are h's ``coeffs()`` and half-period, so a caller that
    evaluates one field many times forms the coefficients once.  The field is
    stored against the isothermal parameter t; y3-derivatives follow from
    t'(y3) = 1/z'(t) and t''(y3) = -2 x x' / (z')^3.  One array, broadcast
    over (theta, y3), is returned per (i, j) in ``derivs``.
    """
    t = chart.t_of_y3(np.asarray(y3, dtype=float))
    x, xp = chart.x_of_t(t)
    zp = chart.a * (1.0 - chart.a) + x * x
    tp = 1.0 / zp
    need = list(dict.fromkeys([*derivs, *((i, 1) for i, j in derivs if j == 2)]))
    h = dict(zip(need, series_eval(coef, tau, theta, t, need)))
    chain = (lambda i: h[i, 0], lambda i: h[i, 1] * tp,
             lambda i: h[i, 2] * tp * tp + h[i, 1] * (-2.0 * x * xp / zp**3))
    return [chain[j](i) for i, j in derivs]
