import numpy as np
import pytest

from dropcoil.fields import _cos_factor, _powers, _theta_factor, dct1, dst1, series_eval

# every (i, j) partial that on_axis_derivatives asks for
PARTIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@pytest.mark.parametrize("m", [0, 1, 2, 7, 48])
def test_powers_match_exp(m):
    # m = 0, 1 fill no block, 2 one block of one column, 7 ends on a short block
    x = np.linspace(-40.0, 40.0, 37).reshape(37, 1)
    E = _powers(x, m)
    assert E.shape == (37, 1, m + 1)
    direct = np.exp(1j * x[..., None] * np.arange(m + 1))
    assert np.max(np.abs(E - direct)) < 1e-12


@pytest.mark.parametrize("j", range(4))
def test_cos_factor_matches_direct(j):
    tau, m = 1.7, 48
    freq = np.arange(m + 1) * (np.pi / tau)
    # arguments freq * t up to 500 rad
    t = np.random.default_rng(3).uniform(-1.0, 1.0, 400) * 500.0 / freq[-1]
    got = _cos_factor(_powers(t * (np.pi / tau), m), tau, j)
    direct = freq**j * np.cos(t[:, None] * freq + j * (np.pi / 2.0))
    assert got.shape == (400, m + 1)
    assert np.all(np.abs(got - direct) <= 1e-12 * freq**j)


@pytest.mark.parametrize("i", range(4))
def test_theta_factor_matches_direct(i):
    kmax = 12
    ks = np.arange(kmax + 1)
    theta = np.random.default_rng(4).uniform(-1.0, 1.0, 400) * 500.0 / kmax
    got = _theta_factor(_powers(theta, kmax), i)
    arg = theta[:, None] * ks + i * (np.pi / 2.0)
    direct = ks**i * np.where(ks % 2 == 0, np.cos(arg), np.sin(arg))
    assert np.all(np.abs(got - direct) <= 1e-12 * ks**i)


def test_series_eval_partials_match_single_calls_and_double_sum():
    rng = np.random.default_rng(5)
    kmax, m, tau = 5, 16, 2.3
    coef = rng.standard_normal((kmax + 1, m + 1)) * np.exp(-0.3 * np.arange(m + 1))
    theta = rng.uniform(0.0, 2.0 * np.pi, 7)[:, None]
    t = rng.uniform(-2.0 * tau, 2.0 * tau, 9)[None, :]
    together = series_eval(coef, tau, theta, t, PARTIALS)
    ks, freq = np.arange(kmax + 1), np.arange(m + 1) * (np.pi / tau)
    for (i, j), got in zip(PARTIALS, together):
        alone = series_eval(coef, tau, theta, t, ((i, j),))[0]
        scale = np.max(np.abs(alone))
        assert got.shape == (7, 9)
        assert np.max(np.abs(got - alone)) <= 1e-14 * scale
        a = theta[..., None] * ks + i * (np.pi / 2.0)
        ang = ks**i * np.where(ks % 2 == 0, np.cos(a), np.sin(a))
        cos = freq**j * np.cos(t[..., None] * freq + j * (np.pi / 2.0))
        direct = np.einsum("...k,km,...m->...", ang, coef, cos)
        assert np.max(np.abs(got - direct)) <= 1e-12 * scale


@pytest.mark.parametrize("t_shape, theta_shape", [
    ((5, 1), (1, 7)),          # nodes2d at one centre
    ((3, 5, 1), (1, 7)),       # nodes2d at three centres
    ((3, 5, 1), (3, 1, 7)),    # self-block columns: a point axis on both
    ((5, 1), (7,)),            # a 1-D theta
    ((1,), (2, 1, 7)),         # one t value under a deeper theta
])
def test_series_eval_open_grid_matmul_matches_dense(t_shape, theta_shape):
    # t on axis -2 and theta on axis -1 take the matmul contraction; the
    # same points broadcast to full arrays take the elementwise one
    rng = np.random.default_rng(6)
    kmax, m, tau = 5, 16, 2.3
    coef = rng.standard_normal((kmax + 1, m + 1)) * np.exp(-0.3 * np.arange(m + 1))
    t = rng.uniform(-2.0 * tau, 2.0 * tau, t_shape)
    theta = rng.uniform(0.0, 2.0 * np.pi, theta_shape)
    T, TH = np.broadcast_arrays(t, theta)
    for got, dense in zip(series_eval(coef, tau, theta, t, PARTIALS),
                          series_eval(coef, tau, TH.copy(), T.copy(), PARTIALS)):
        assert got.shape == dense.shape == T.shape
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))


# sizes the package transforms (m + 1 = 25, 49; roulette nodes 9..2049; the
# profile's DST-I at 2047 and 8191) and the sizes around them
TRANSFORM_SIZES = list(range(9, 70)) + [127, 128, 129, 255, 256, 257, 1025, 2047, 2049,
                                        4097, 8191, 8193]


@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_type1_transforms_match_scipy_bitwise(n):
    # one rfft of the even/odd extension is pocketfft's own DCT-I/DST-I, so
    # the bits agree; the inverse DCT-I multiplies by the reciprocal of 2m
    from scipy.fft import dct, dst, idct

    rng = np.random.default_rng(n)
    m = n - 1
    for x, axes in ((rng.standard_normal(n), (-1,)),
                    (rng.standard_normal((3, n)), (-1, 1)),
                    (rng.standard_normal((n, 4)), (0,))):
        for axis in axes:
            assert np.array_equal(dct1(x, axis=axis), dct(x, type=1, axis=axis))
            assert np.array_equal(dst1(x, axis=axis), dst(x, type=1, axis=axis))
            assert np.array_equal(dct1(x, axis=axis) * (1.0 / (2 * m)),
                                  idct(x, type=1, axis=axis))

