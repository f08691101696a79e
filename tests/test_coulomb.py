import json
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import dropcoil.coulomb as coulomb
from dropcoil.coulomb import (BALL_UNIT_COULOMB, ENERGY_GRID, NEWTON_TOL, TILE,
                              AxisymBoundary, BlockQuadrature, CRITICAL_MASS_CLOSED_FORM,
                              NormalGraphBoundary, SelfBlockSettings,
                              _graded_edges, _panel_rule, _regular_blocks, _self_block,
                              _separated_factors, _separated_values, _sym_graded_rules,
                              ball_coulomb_energy, ball_energy,
                              ball_potential_exact, ball_potential_radial,
                              coil_volume, coulomb_energy, critical_mass,
                              potential_coil, potential_perturbed,
                              solid_boundary, surface_potentials,
                              toroidal_potential_reference)
from dropcoil.errors import (DomainError, EmbeddingViolation, NonConvergence,
                             QuadratureDivergence)
from dropcoil import fields
from dropcoil.fields import SymmetricField
from dropcoil.geometry import build_coil, evaluate_forms
from dropcoil.profile import solve_profile
from dropcoil.reduction import ReductionContext, ReductionSettings, evaluate_equation


@pytest.fixture(scope="module")
def quad03(prof03):
    return BlockQuadrature(prof03)


def test_block_quadrature_volume(prof03, quad03):
    # r in closed form: the block volume is the (phi, x3) sum of rho_b^2 / 2
    _, _, rho, w = quad03.nodes2d(0.0, AxisymBoundary(prof03))
    assert np.sum(w * rho**2 / 2.0) == pytest.approx(prof03.V, rel=1e-10)
    with pytest.raises(DomainError):
        BlockQuadrature(prof03, (1, 2, 2))


@pytest.mark.parametrize("n_phi, n_z", [(6, 7), (10, 7), (14, 9), (18, 21)])
def test_block_rule_with_node_on_column_line_raises(prof03, n_phi, n_z):
    # n_phi = 2 (mod 4) with n_z odd puts a node of block n/2 on the column
    # line of a point at theta = pi/2 or 3pi/2 (n even); one more z node, or
    # two more phi nodes, clear it
    with pytest.raises(DomainError):
        BlockQuadrature(prof03, (2, n_phi, n_z))
    BlockQuadrature(prof03, (2, n_phi, n_z + 1))
    BlockQuadrature(prof03, (2, n_phi + 2, n_z))


def test_error_estimate_at_quarter_turn(prof03):
    # the 1.5x refinement of (12, 14) would be (18, 21); it takes (18, 22)
    # instead, so the estimate at (pi/2, 0) and (3pi/2, 0) is as small as at
    # a generic point, and the value agrees with a (48, 72) rule at q = 9
    quad = BlockQuadrature(prof03, (6, 12, 14))
    ref_quad = BlockQuadrature(prof03, (2, 48, 72))
    ref_cfg = SelfBlockSettings(panel_q=9, core_q=9, column_q=10)
    for theta in (np.pi / 2, 3 * np.pi / 2, 1.0):
        res = potential_coil(prof03, 32, (theta, 0.0), quad=quad)
        ref = surface_potentials(prof03, 32, AxisymBoundary(prof03), theta, 0.0, ref_quad,
                                 ref_cfg).sum()
        assert res.err_est < 1e-7 * res.value
        assert abs(res.value / ref - 1.0) < 1e-10


def test_breakdown_positive_and_symmetric(prof03):
    res = potential_coil(prof03, 8, (np.pi / 2, 0.0), error_estimate=False)
    assert np.all(res.breakdown > 0)
    # I_k = I_{n-k} at y3 = 0, exactly by the paired nodes
    inner = res.breakdown[1:]
    assert np.max(np.abs(inner - inner[::-1])) < 1e-13
    # monotone decay in min(k, n-k)
    half = inner[: len(inner) // 2 + 1]
    assert np.all(np.diff(half) < 0)


def test_potential_symmetries(prof03):
    v0 = potential_coil(prof03, 8, (0.7, 0.4), error_estimate=False).value
    v1 = potential_coil(prof03, 8, (np.pi - 0.7, 0.4), error_estimate=False).value
    v2 = potential_coil(prof03, 8, (0.7, -0.4), error_estimate=False).value
    assert v1 == pytest.approx(v0, abs=1e-12)
    assert v2 == pytest.approx(v0, abs=1e-12)


def test_small_n_brute_force_oracle(prof03):
    # full-domain R^3 quadrature with no block decomposition
    res = potential_coil(prof03, 4, (np.pi / 2, 0.0))
    ref = toroidal_potential_reference(prof03, 4, (np.pi / 2, 0.0))
    assert abs(res.value - ref) / ref < 1e-2
    # off-symmetry point too
    res2 = potential_coil(prof03, 6, (0.7, 0.4))
    ref2 = toroidal_potential_reference(prof03, 6, (0.7, 0.4), q=6)
    assert abs(res2.value - ref2) / ref2 < 1e-2


@pytest.mark.parametrize("n, want", [(4, "0x1.64ec37db4ed4cp+2"), (8, "0x1.be85a9599ce64p+2")])
def test_brute_force_oracle_bits(prof03, n, want):
    # the radial sweep's invariants are formed once, in the same operations and
    # order as at each node: the oracle keeps the bits it had with them inside
    assert float(toroidal_potential_reference(prof03, n, (np.pi / 2, 0.0))).hex() == want


def _oracle_field(solver03, amp):
    """The brute-force oracle's field: a mean bump and four modes, sup |h| = amp."""
    h = solver03.zero_field(kmax=4)
    c = np.cos(np.pi * solver03.t / solver03.tau)
    h.modes[0] = 1.0 + 0.5 * c
    h.modes[1] = 0.5 * solver03.kernel.nu2
    h.modes[2] = 0.5 * np.cos(2 * np.pi * solver03.t / solver03.tau)
    h.modes[3] = 0.3 * c
    h.modes[4] = 0.3
    return h * (amp / h.norm_sup())


@pytest.mark.parametrize("amp", [0.03, 0.08])
@pytest.mark.parametrize("n", [4, 8])
def test_perturbed_brute_force_oracle(prof03, chart03, solver03, amp, n):
    # the oracle integrates the normal-graph solid through rho_h alone; the
    # mean bump keeps the shell correction at 4-12% of the potential
    h = _oracle_field(solver03, amp)
    bnd = NormalGraphBoundary(prof03, chart03, h)
    for y in ((np.pi / 2, 0.0), (0.7, 0.4)):
        val = potential_perturbed(prof03, n, h, y, chart=chart03).value
        ref = toroidal_potential_reference(prof03, n, y, q=6, boundary=bnd)
        assert abs(val - ref) / ref < 1e-2
        # the change the graph layer makes, against the unperturbed solid
        shell = val - potential_coil(prof03, n, y).value
        shell_ref = ref - toroidal_potential_reference(prof03, n, y, q=6)
        assert abs(shell - shell_ref) / abs(shell_ref) < 5e-2


def test_n_validation(prof03):
    with pytest.raises(DomainError):
        potential_coil(prof03, 3, (0.0, 0.0))


def test_refinement_within_error_estimate(prof03):
    res = potential_coil(prof03, 8, (1.1, 0.2))  # refined value + estimate
    n_r, n_phi, n_z = BlockQuadrature(prof03).resolution
    dbl = BlockQuadrature(prof03, (n_r, 2 * n_phi, 2 * n_z))
    res_dbl = potential_coil(prof03, 8, (1.1, 0.2), quad=dbl,
                             self_cfg=SelfBlockSettings(panel_q=9, core_q=9, column_q=10),
                             error_estimate=False)
    assert abs(res_dbl.value - res.value) <= max(res.err_est, 1e-9) * 3


def test_quadrature_divergence_guard(prof03, monkeypatch):
    monkeypatch.setattr(coulomb, "DIVERGENCE_RTOL", 1e-14)
    with pytest.raises(QuadratureDivergence):
        potential_coil(prof03, 8, (np.pi / 2, 0.0))


def test_log_slope_matches_volume_over_period(prof03):
    ns = [16, 32, 64, 128]
    vals = [potential_coil(prof03, n, (np.pi / 2, 0.0), error_estimate=False).value
            for n in ns]
    slope = np.polyfit(np.log(ns), vals, 1)[0]
    target = 2.0 * prof03.V / prof03.T
    assert abs(slope / target - 1.0) < 0.05


def test_y2_coefficient_log_law(prof03):
    f0 = prof03.evaluate(0.0, order=0)[0]
    coefs = {}
    for n in (64, 128):
        vp = potential_coil(prof03, n, (np.pi / 2, 0.0), error_estimate=False).value
        vm = potential_coil(prof03, n, (3 * np.pi / 2, 0.0), error_estimate=False).value
        coefs[n] = (vp - vm) / (2 * f0)
        pred = -2 * np.pi * prof03.V / prof03.T**2 * np.log(n) / n
        assert coefs[n] < 0  # negative coefficient
        assert coefs[n] / pred == pytest.approx(1.0, abs=0.3)
    assert abs(coefs[128]) < abs(coefs[64])


# ---------------------------------------------------------------------------
# the guarded column kernel the self block took before its fused one, in the
# allocating form its buffered version reproduced bit for bit: the accuracy
# baseline of the column tests
# ---------------------------------------------------------------------------

def _radial_moments_ref(P, r_eval, vers_chi, sin_chi, blin, cadd_pos):
    b = -2.0 * r_eval * (1.0 - vers_chi) + blin
    c = r_eval * r_eval + cadd_pos
    QP = (P - r_eval) ** 2 + 2.0 * P * r_eval * vers_chi + blin * P + cadd_pos
    QP = np.maximum(QP, 0.0)
    sQP = np.sqrt(QP)
    sc = np.sqrt(c)
    up = 2.0 * sQP + 2.0 * (P - r_eval + r_eval * vers_chi) + blin
    lo_direct = 2.0 * sc + b
    disc = (4.0 * (r_eval * sin_chi) ** 2
            + 4.0 * cadd_pos + 4.0 * r_eval * (1.0 - vers_chi) * blin - blin * blin)
    disc = np.maximum(disc, 1e-300)
    M0 = np.log(np.where(b >= 0.0,
                         np.maximum(up, 1e-300) / np.maximum(lo_direct, 1e-300),
                         np.maximum(up * (2.0 * sc - b), 1e-300) / disc))
    M1 = sQP - sc - 0.5 * b * M0
    M2 = ((2.0 * P - 3.0 * b) * sQP + 3.0 * b * sc) / 4.0 - ((4.0 * c - 3.0 * b * b) / 8.0) * M0
    return M0, M1, M2


def _node_factors(P, r_eval, chi, phi):
    """The guarded kernel's node inputs; its allocating form precomputes nothing."""
    return P, r_eval, chi, phi


def _scratch(shape):
    """The guarded kernel's work arrays; its allocating form takes none."""
    return None


def _column_values(g, ak, kap, R, s):
    """Guarded columns int_0^P (1 + r sin(phi)/R) r / sqrt(Q) dr, kap = 1 + y2/R."""
    P, r_eval, chi, phi = g
    sin_phi = np.sin(phi)
    blin = ak * ak * sin_phi * kap / R
    _, M1, M2 = _radial_moments_ref(P, r_eval, 2.0 * np.sin(0.5 * chi) ** 2, np.sin(chi), blin,
                                    ak * ak * kap)
    return M1 + sin_phi * M2 / R


# ---------------------------------------------------------------------------
# frozen reference: allocating transcriptions of the separated-column kernel
# with its tiled k-sweep and of the self block's columns and Duffy faces,
# taken point by point; the buffered kernels must reproduce every bit of them
# ---------------------------------------------------------------------------

def _separated_values_ref(P, r_eval, chi, phi, w, y2, R, ak):
    s = np.sin(phi) / R
    cadd = ak * ak * (1.0 + y2 / R)
    c = r_eval * r_eval + cadd
    sc = np.sqrt(c)
    sQP = np.sqrt(cadd * (1.0 + P * s) + ((P - r_eval) ** 2
                                          + 4.0 * P * r_eval * np.sin(0.5 * chi) ** 2))
    h = cadd * (0.5 * s) + -r_eval * np.cos(chi)
    M0 = np.log((h + P + sQP) / (h + sc))
    M1 = sQP - sc - h * M0
    return (M1 * (w - h * (1.5 * w * s)) + sQP * (0.5 * w * P * s)
            - M0 * c * (0.5 * w * s))


def _regular_blocks_ref(nodes, ks, R, T, theta, y3c, r_eval):
    x3, phi, rho_b, w = nodes
    chi = phi - theta
    y2 = r_eval * np.sin(theta)
    dx3 = x3 - y3c
    rows = max(1, TILE // len(w))
    Ik = np.empty(len(ks))
    ks = np.asarray(ks)[:, None]
    for lo in range(0, len(ks), rows):
        ak = 2.0 * R * np.sin((ks[lo:lo + rows] * T + dx3[None, :]) / (2.0 * R))
        vals = _separated_values_ref(rho_b[None, :], r_eval, chi[None, :], phi[None, :],
                                     w[None, :], y2, R, ak)
        Ik[lo:lo + rows] = vals.sum(axis=1)
    return Ik


def _self_columns_ref(P, r, cadd, chi, phi, wchi, R, guarded):
    """One point's self-block columns summed on chi: (1, xi, 1), as ``_self_columns`` forms them."""
    c = r * r + cadd
    sc = np.sqrt(c)
    lat = np.stack((c, sc, cadd, np.ones_like(c), cadd * cadd, -sc, cadd, np.ones_like(c)),
                   axis=-1)[None, :, 0, :]
    sr = np.sin(phi) / R
    v = np.sin(0.5 * chi) ** 2 * (4.0 * r)
    hb = np.cos(chi) * -r
    one, zero = np.ones_like(sr), np.zeros_like(sr)
    rows = [sr, v, sr * r + 1.0, v * r, one, 0.5 * sr, hb, -0.75 * sr * sr,
            1.0 - 1.5 * sr * hb, one, zero]
    if guarded:
        rows += [sr * hb - 1.0, -(np.sin(chi) * r) ** 2, 0.25 * sr * sr]
    row = np.stack(rows)[None]
    W = P - r
    T = lat[..., 2:4] @ row[:, 0:2]
    num = T * 0.5 + W
    Q = (T + W) * W + lat[..., 2:4] @ row[:, 2:4]
    if guarded:
        Q = np.maximum(Q, 0.0)
    sQ = np.sqrt(Q)
    num = num + sQ
    h = lat[..., 2:4] @ row[:, 5:7]
    den = lat[..., 1:4] @ row[:, 4:7]
    if guarded:
        den = np.divide(lat[..., 2:5] @ row[:, 11:14], lat[..., 5:8] @ row[:, 4:7],
                        out=den, where=h < 0.0)
        den, num = np.maximum(den, 1e-300), np.maximum(num, 1e-300)
    M0 = np.log(num / den)
    M1 = (lat[..., 5:7] @ row[:, 9:11] + sQ) - h * M0
    V1 = M1 * (lat[..., 2:4] @ row[:, 7:9])
    V2 = P * sQ - M0 * (lat[..., 0:2] @ row[:, 9:11])
    return V1 @ wchi[None, :, None] + V2 @ (wchi * (0.5 * sr))[None, :, None]


def _columns_ref(radius, R, theta, r_eval, xi, wxi, chi, wchi, lengths, guarded=True,
                 window=None):
    """The self block's columns point by point, each on its own rule length."""
    ak = 2.0 * R * np.sin(xi / (2.0 * R))
    out, d_eta = np.empty(len(chi)), np.empty(len(chi))
    for p, L in enumerate(lengths):
        th, r = theta[p:p + 1], r_eval[p:p + 1]                   # one-element arrays
        phi = th + chi[p, :L]
        P = radius(phi[None, None, :], 0, np.array([p]))[0]
        if window is not None:
            d_eta[p] = np.minimum(window[0], 0.45 * P[:, :window[1]].min())
            P[:, :window[1]] = np.maximum(P[:, :window[1]] - d_eta[p], 0.0)
        cadd = (1.0 + r * np.sin(th) / R) * (ak * ak)[:, None]
        sums = _self_columns_ref(P, r, cadd, chi[p, :L], phi, wchi[p, :L], R, guarded)
        out[p] = (wxi @ sums)[0, 0]
    return out if window is None else (out, d_eta)


def _duffy_core_ref(radius, xis, R, theta, r_eval, d_xi, d_chi, d_eta, q):
    """The Duffy faces point by point, as ``_duffy_core`` lays them out."""
    u, wu = coulomb._gl(q)
    U = u[:, None, None]
    W = (wu[:, None, None] * wu[None, :, None] * wu[None, None, :] * U * U).ravel()
    pair, grid = ((2.0 * R * np.sin(x / (2.0 * R))) ** 2 for x in xis)
    out = np.empty(len(theta))
    for p in range(len(theta)):
        th, re, dc, de = (v[p:p + 1] for v in (theta, r_eval, d_chi, d_eta))
        ky = 1.0 + re * np.sin(th) / R

        def face(rb, eta, phi, chi, a2):
            s, v = np.sin(phi) / R, (4.0 * re) * np.sin(0.5 * chi) ** 2
            r = rb - eta
            g = r * s + 1.0
            d = np.sqrt(np.maximum((r - re) * (r - re) + r * v + g * (a2 * ky), 1e-300))
            return (np.reshape(g * r / d, (1, 1, -1)) @ W[:, None])[0, 0]

        one = np.array([p])
        eta = U * (0.0 + (de - 0.0) * u)
        chi = U * (-dc + (dc - -dc) * u)
        phi = th + chi
        span = (dc - -dc) * (de - 0.0)
        rb = radius(phi[None], 0, one)[0]
        cT, pT = chi.swapaxes(-1, -2), phi.swapaxes(-1, -2)
        total = face(rb[:, 0, :, None], eta, pT, cT, pair[:, 0:1]) * (d_xi * span)
        total += face(rb[:, 1, :, None], eta, pT, cT, pair[:, 1:2]) * (d_xi * span)
        chi2 = U * np.concatenate((-dc, dc))
        rb = radius((th + chi2)[None], 1, one)[0]
        for k in (0, 1):
            total += face(rb[..., k:k + 1], eta, th + chi2[..., k:k + 1], chi2[..., k:k + 1],
                          grid) * (dc * (d_xi - -d_xi) * (de - 0.0))
        top = face(radius(phi[None], 1, one)[0], U * de, phi, chi, grid)
        top = top * (de * (d_xi - -d_xi) * (dc - -dc))
        out[p] = (total + np.where(de > 1e-14 * np.maximum(d_xi, de), top, 0.0))[0]
    return out


def _sym_graded_rule(delta, outer, h0, q, ratio=2.0):
    """One point's graded rule, as the self block built it point by point."""
    e = _graded_edges(delta, outer, h0, ratio)
    n, w = _panel_rule(e, q)
    return np.concatenate((-n[::-1], n)), np.concatenate((w[::-1], w))


def _stack_rules(rules):
    """(P, L) rows of P rules, shorter rows padded with zero-weight copies of their last node."""
    L = max(len(x) for x, _ in rules)
    nodes = np.empty((len(rules), L))
    weights = np.zeros((len(rules), L))
    for i, (x, w) in enumerate(rules):
        nodes[i, :len(x)] = x
        nodes[i, len(x):] = x[-1]
        weights[i, :len(w)] = w
    return nodes, weights


@pytest.mark.parametrize("ratio", [2.0, 1.7])
def test_sym_graded_rules_match_per_point_rules(prof03, ratio):
    # the self block's chi rules (from 0 and from d_chi, up to pi) and its xi
    # rule, over the d_chi of a neck-to-bulge batch and the extremes pi/2 and 1e-9
    cfg = SelfBlockSettings()
    rho = cfg.core_size(prof03.a, prof03.T)
    r_eval = np.linspace(0.29, 0.71, 23)
    d_chi = np.r_[np.minimum(rho / np.maximum(r_eval, rho), np.pi / 2.0), np.pi / 2.0, 1e-9]
    for q in (4, 7):
        for delta in (0.0, d_chi):
            rules = [_sym_graded_rule(dl, np.pi, d, q, ratio)
                     for dl, d in zip(np.broadcast_to(delta, d_chi.shape), d_chi)]
            got = _sym_graded_rules(delta, np.pi, d_chi, q, ratio)
            want = _stack_rules(rules)
            assert got[0].shape == want[0].shape
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], [len(x) for x, _ in rules])
        d_xi = min(rho, prof03.T / 4.0)
        got = _sym_graded_rules(d_xi, prof03.T / 2.0, d_xi, q, ratio)
        want = _sym_graded_rule(d_xi, prof03.T / 2.0, d_xi, q, ratio)
        assert np.array_equal(got[0][0], want[0]) and np.array_equal(got[1][0], want[1])


def test_self_block_integrates_each_points_own_rule(prof03, monkeypatch):
    # each column set integrates, at every point, exactly that point's rule:
    # the kernel sees its xi and chi nodes and no others, and the weights
    # are its own.  The stacked chi rules pad shorter rows with zero-weight
    # nodes; at the desk loop batch 496,332 column nodes were evaluated, of
    # which 466,612 carry weight
    T = prof03.T
    R = 32 * T / (2.0 * np.pi)
    cfg = SelfBlockSettings(5, 5, 6)
    boundary = AxisymBoundary(prof03)
    r_eval, y3c = boundary.surface_point(BATCH_THETA, BATCH_Y3_OVER_T * T)
    rho = cfg.core_size(prof03.a, T)
    d_xi = min(rho, T / 4.0)
    d_chi = np.minimum(rho / np.maximum(r_eval, rho), np.pi / 2.0)
    sets = []
    real = {name: getattr(coulomb, name) for name in ("_columns", "_chi_factors", "_self_columns")}

    def point(r):
        return int(np.flatnonzero(r_eval == r)[0])

    def columns(radius, R, theta, r_eval, xi, wxi, *args, **kw):
        sets.append({"xi": (xi, wxi), "nodes": {}, "weights": {}})
        return real["_columns"](radius, R, theta, r_eval, xi, wxi, *args, **kw)

    def chi_factors(phi, r, chi, *args):
        sets[-1]["nodes"].update((point(rp), c.copy()) for rp, c in zip(r[:, 0, 0], chi[:, 0]))
        return real["_chi_factors"](phi, r, chi, *args)

    def kernel(P, r, cadd, row, wchi, *args):
        assert P.shape[1:] == (len(sets[-1]["xi"][0]), wchi.shape[-1])
        sets[-1]["weights"].update((point(rp), w.copy()) for rp, w in zip(r[:, 0, 0], wchi))
        return real["_self_columns"](P, r, cadd, row, wchi, *args)

    for name, spy in (("_columns", columns), ("_chi_factors", chi_factors),
                      ("_self_columns", kernel)):
        monkeypatch.setattr(coulomb, name, spy)
    _self_block(boundary, R, T, BATCH_THETA, y3c, r_eval, cfg, prof03.a)
    # the inner set and the footprint share a rule: footprint nodes first
    near = [[np.concatenate(v) for v in zip(_panel_rule(np.array([-d, 0.0, d]), cfg.column_q),
                                             _sym_graded_rule(d, np.pi, d, cfg.panel_q))]
            for d in d_chi]
    want = [(_sym_graded_rule(d_xi, T / 2.0, d_xi, cfg.panel_q),
             [_sym_graded_rule(0.0, np.pi, d, cfg.panel_q, cfg.grade_ratio) for d in d_chi]),
            (_panel_rule(np.array([-d_xi, 0.0, d_xi]), cfg.column_q), near)]
    assert len(sets) == len(want)
    assert len({len(x) for x, _ in want[0][1]}) > 1  # rows of two lengths
    for got, (xi_rule, chi_rules) in zip(sets, want):
        assert all(np.array_equal(g, w) for g, w in zip(got["xi"], xi_rule))
        assert sorted(got["nodes"]) == sorted(got["weights"]) == list(range(len(BATCH_THETA)))
        for p, (nodes, weights) in enumerate(chi_rules):
            assert np.array_equal(got["nodes"][p], nodes)
            assert np.array_equal(got["weights"][p], weights)


def _flat_rule(x3, phi, rho_b, w):
    """One centre's lattice rule from ``nodes2d`` as the flat rule the references take."""
    return (np.repeat(x3, len(phi)), np.tile(phi, len(x3)), rho_b.ravel(), w.ravel())


def _regular_blocks_ref_batch(nodes, ks, R, T, theta, y3c, r_eval):
    """The frozen sweep point by point, on each point's flattened lattice."""
    x3, phi, rho_b, w = nodes
    return np.array([_regular_blocks_ref(_flat_rule(x3[p], phi, rho_b[p], w), ks, R, T,
                                         theta[p], y3c[p], r_eval[p])
                     for p in range(len(theta))])


FROZEN = {"_regular_blocks": _regular_blocks_ref_batch, "_columns": _columns_ref,
          "_duffy_core": _duffy_core_ref}


@pytest.fixture
def frozen_kernel(monkeypatch):
    """Swap the frozen references in for the buffered kernels; ``use()`` returns those that ran."""
    ran = set()

    def use():
        for name, ref in FROZEN.items():
            monkeypatch.setattr(coulomb, name, lambda *a, _name=name, _ref=ref, **k:
                                ran.add(_name) or _ref(*a, **k))
        return ran
    return use


def _one_shot_regular_blocks(boundary, quad, n, R, T, theta, y3c, r_eval):
    """Untiled reference sweep: all n - 1 values of k in one array."""
    x3, phi, rho_b, w = _flat_rule(*quad.nodes2d(y3c, boundary))
    k = np.arange(1, n)[:, None]
    ak = 2.0 * R * np.sin((k * T + (x3 - y3c)[None, :]) / (2.0 * R))
    vals = _separated_values_ref(rho_b[None, :], r_eval, (phi - theta)[None, :], phi[None, :],
                                 w[None, :], r_eval * np.sin(theta), R, ak)
    return vals.sum(axis=1)


@pytest.mark.parametrize("resolution, n, rows", [
    ((24, 32, 48), 30, 8),   # 1536 nodes: k = 1..29 in 3 full tiles and one of 5
    ((4, 128, 100), 6, 1),   # 12800 nodes > TILE: one row a tile
])
def test_regular_blocks_tiles_match_one_shot_sweep(prof03, resolution, n, rows):
    quad = BlockQuadrature(prof03, resolution)
    assert max(1, TILE // (resolution[1] * resolution[2])) == rows
    boundary = AxisymBoundary(prof03)
    T = prof03.T
    R = n * T / (2.0 * np.pi)
    theta, y3 = 0.7, 0.4
    r_eval, y3c = boundary.surface_point(theta, y3)
    tiled = _regular_blocks(quad.nodes2d(np.array([y3c]), boundary), np.arange(1, n), R, T,
                            np.array([theta]), np.array([y3c]), np.array([r_eval]))[0]
    ref = _one_shot_regular_blocks(boundary, quad, n, R, T, theta, y3c, r_eval)
    assert np.array_equal(tiled, ref)


@pytest.mark.parametrize("resolution, n, count, pts, tiles", [
    # the desk loop rule, 153 points: tiles of 38 points (38 x 320 nodes),
    # the last of 1, each swept in 31 rows of one k
    ((8, 16, 20), 32, 153, 38, 5 * 31),
    # one point: 29 x 1536 > TILE, so its k sweep spans 4 tiles of 8 rows
    ((24, 32, 48), 30, 1, 1, 4),
], ids=["desk_loop_153_points", "one_point_4_k_tiles"])
def test_regular_blocks_batch_matches_single_points(prof03, chart03, solver03, resolution,
                                                    n, count, pts, tiles):
    quad = BlockQuadrature(prof03, resolution)
    nodes = resolution[1] * resolution[2]
    rows = min(n - 1, TILE // (pts * nodes))
    assert min(count, TILE // nodes) == pts
    assert -(-count // pts) * -(-(n - 1) // rows) == tiles
    T = prof03.T
    R = n * T / (2.0 * np.pi)
    # neck-to-bulge points, all distinct
    theta = np.resize(BATCH_THETA, count)
    y3 = np.resize(BATCH_Y3_OVER_T, count) * T * np.linspace(1.0, 0.9, count)
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        r_eval, y3c = boundary.surface_point(theta, y3)
        ks = np.arange(1, n)
        batch = _regular_blocks(quad.nodes2d(y3c, boundary), ks, R, T, theta, y3c, r_eval)
        assert batch.shape == (len(theta), n - 1)
        for p in range(len(theta)):
            one = slice(p, p + 1)
            single = _regular_blocks(quad.nodes2d(y3c[one], boundary), ks, R, T,
                                     theta[one], y3c[one], r_eval[one])
            x3, phi, rho_b, w = quad.nodes2d(y3c[p], boundary)
            ref = _regular_blocks_ref(_flat_rule(x3, phi, rho_b, w), ks, R, T,
                                      theta[p], y3c[p], r_eval[p])
            assert np.array_equal(batch[p], single[0])
            assert np.array_equal(batch[p], ref)


def test_radial_moments_match_frozen_reference():
    # the fused self-block kernel on a (point, xi, chi) tile against its
    # allocating transcription, both forms, bit for bit: chi around the
    # circle gives h < 0 and h >= 0 columns, and P within 1e-9 of r_eval at
    # chi down to 1e-7 with cadd down to 0 gives near-singular ones
    rng = np.random.default_rng(7)
    R = 5.0
    r_eval = np.array([0.3, 0.55, 0.8])[:, None, None]
    chi = np.r_[-np.pi + 0.1 * rng.random(2), np.linspace(-2.5, 2.5, 8),
                -1e-7, 1e-7, 1e-5, -1e-3, 3.0, np.pi - 1e-3]
    phi = rng.uniform(0.0, 2.0 * np.pi, (3, 1, 1)) + chi
    P = r_eval * (1.0 + rng.choice([-1.0, 1.0], (3, 20, 16))
                  * 10.0 ** rng.uniform(-9.0, -0.3, (3, 20, 16)))
    cadd = np.repeat([0.0, 1e-14, 1e-3, 0.05], 5)[None, :, None] * rng.random((3, 20, 1))
    wchi = rng.random((3, 16))
    h = cadd * np.sin(phi) / (2.0 * R) - r_eval * np.cos(chi)
    assert (h < 0.0).any() and (h >= 0.0).any()
    for guarded in (True, False):
        row = coulomb._chi_factors(phi, r_eval, np.broadcast_to(chi, phi.shape), R, guarded)
        got = coulomb._self_columns(P.copy(), r_eval, cadd, row, wchi,
                                    [np.empty(P.shape) for _ in range(6)], guarded)
        for p in range(3):
            want = _self_columns_ref(P[p], r_eval[p, 0], cadd[p], chi, phi[p, 0], wchi[p], R,
                                     guarded)
            assert np.all(np.isfinite(want)) and np.array_equal(got[p], want[0])


def test_self_block_matches_frozen_kernel(prof03, chart03, solver03, frozen_kernel):
    # neck and bulge points on both boundaries, at the orders the pipeline
    # runs: the coarse tier, the FAST and desk loops, the final and refined rules
    T = prof03.T
    R = 16 * T / (2.0 * np.pi)
    theta, y3 = np.array([1.2, 0.3, 2.0]), np.array([0.5, 0.0, 0.2]) * T
    cfgs = [SelfBlockSettings(3, 3, 4), SelfBlockSettings(4, 4, 5), SelfBlockSettings(5, 5, 6),
            SelfBlockSettings(7, 7, 8), SelfBlockSettings().refined()]
    boundaries = _batch_boundaries(prof03, chart03, solver03)
    points = [b.surface_point(theta, y3) for b in boundaries]
    assert points[0][0][0] < 0.31 < 0.69 < points[0][0][1]
    got = [_self_block(b, R, T, theta, y3c, r, c, prof03.a)
           for b, (r, y3c) in zip(boundaries, points) for c in cfgs]
    ran = frozen_kernel()
    want = [_self_block(b, R, T, theta, y3c, r, c, prof03.a)
            for b, (r, y3c) in zip(boundaries, points) for c in cfgs]
    assert ran == {"_columns", "_duffy_core"}
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_potential_coil_matches_frozen_kernel(prof03, frozen_kernel):
    ns = [16, 32, 64, 128, 256, 512, 1024]
    y = (0.7, 0.4)

    def hexes():
        res = [potential_coil(prof03, n, y) for n in ns]
        return [[float(v).hex() for v in (r.err_est, *r.breakdown)] for r in res]

    got = hexes()
    ran = frozen_kernel()
    assert got == hexes()
    assert ran == set(FROZEN)


@pytest.mark.parametrize("resolution, self_cfg", [
    ((8, 16, 20), SelfBlockSettings(panel_q=5, core_q=5, column_q=6)),  # desk loop rule
    ((6, 12, 14), SelfBlockSettings(panel_q=4, core_q=4, column_q=5)),  # FAST loop rule
    ((2, 3, 5), SelfBlockSettings()),  # n_phi != n_z: a z/phi mix-up changes the bits
])
def test_potential_perturbed_matches_frozen_kernel(prof03, chart03, solver03, frozen_kernel,
                                                   monkeypatch, resolution, self_cfg):
    # both boundaries at the reduction loop's rules; the error estimate adds
    # the 1.5x refined rule of each, and its divergence guard is not under test
    monkeypatch.setattr(coulomb, "DIVERGENCE_RTOL", np.inf)
    quad = BlockQuadrature(prof03, resolution)
    h = solver03.zero_field(kmax=4)
    c = np.cos(np.pi * solver03.t / solver03.tau)
    h.modes[0] = 0.02 * c + 0.01
    h.modes[1] = 0.004 * solver03.kernel.nu2
    h.modes[3] = 0.003 * c
    h.modes[4] = 0.002
    fields = (solver03.zero_field(kmax=4), h)

    def hexes():
        res = [potential_perturbed(prof03, n, f, y, chart=chart03, quad=quad, self_cfg=self_cfg)
               for n in (16, 32, 128) for f in fields for y in ((0.7, 0.4), (np.pi / 2, 0.0))]
        return [[float(v).hex() for v in (r.err_est, *r.breakdown)] for r in res]

    got = hexes()
    ran = frozen_kernel()
    assert got == hexes()
    assert ran == set(FROZEN)


# potential_coil (value, err_est) at a = 0.3, each taken in a fresh interpreter
POINT_PINS = {
    (np.pi / 2, 0.0): {4: ("0x1.64f0f8cfedfffp+2", "0x1.357f142000000p-22"),
                       8: ("0x1.be11a3c1b9eddp+2", "0x1.501c8e0000000p-24"),
                       16: ("0x1.0b81861b4c84ep+3", "0x1.4fcb140000000p-25"),
                       32: ("0x1.3710922d48c96p+3", "0x1.ea8b3a0000000p-26"),
                       64: ("0x1.61ac0df7b69e8p+3", "0x1.ad1a740000000p-26"),
                       1024: ("0x1.03761da2a677fp+4", "0x1.82d0c40000000p-26")},
    (0.7, 0.4): {4: ("0x1.6dee1a19fc0b1p+2", "0x1.d2b7198000000p-25"),
                 8: ("0x1.c629782c98802p+2", "0x1.540af60000000p-26"),
                 16: ("0x1.0e8c21ee406c4p+3", "0x1.d1ba880000000p-27"),
                 32: ("0x1.392a8d397c86ap+3", "0x1.a41eb80000000p-27"),
                 64: ("0x1.6315f0ea895c7p+3", "0x1.9a2fa80000000p-27"),
                 1024: ("0x1.03adee9486afbp+4", "0x1.9815280000000p-27")},
}


@pytest.mark.parametrize("y", list(POINT_PINS))
def test_repeated_point_keeps_fresh_bits(prof03, y):
    # the log law's order: every n twice in one process, so later calls find
    # the point's self-block rules built; each keeps a fresh interpreter's bits
    for _ in range(2):
        for n, want in POINT_PINS[y].items():
            res = potential_coil(prof03, n, y)
            assert (float(res.value).hex(), float(res.err_est).hex()) == want


def test_memoized_chi_rules_match_fresh_builds(prof03, chart03, solver03):
    # the cached rules are fresh builds' own, element for element, and no
    # caller can write them
    T = prof03.T
    cfg = SelfBlockSettings(5, 5, 6)
    rho = cfg.core_size(prof03.a, T)
    r_eval = AxisymBoundary(prof03).surface_point(BATCH_THETA, BATCH_Y3_OVER_T * T)[0]
    d_chi = np.minimum(rho / np.maximum(r_eval, rho), np.pi / 2.0)
    for c in (cfg, cfg.refined()):
        outer = coulomb._outer_chi_rule(d_chi.tobytes(), c.panel_q, c.grade_ratio)
        near = coulomb._near_rule(d_chi.tobytes(), c.column_q, c.panel_q)
        fp = _panel_rule(np.stack((-d_chi, np.zeros_like(d_chi), d_chi), axis=-1), c.column_q)
        inner = _sym_graded_rules(d_chi, np.pi, d_chi, c.panel_q)
        want = (_sym_graded_rules(0.0, np.pi, d_chi, c.panel_q, c.grade_ratio),
                (np.concatenate((fp[0], inner[0]), axis=1),
                 np.concatenate((fp[1], inner[1]), axis=1), inner[2] + 2 * c.column_q))
        for got, ref in zip((outer, near), want):
            assert len(got) == len(ref) == 3
            for g, w in zip(got, ref):
                assert g.dtype == w.dtype and np.array_equal(g, w)
                assert not g.flags.writeable
                with pytest.raises(ValueError):
                    g[0] = 0
    # a reduction batch at several rules keeps no more than the bound
    boundary = _batch_boundaries(prof03, chart03, solver03)[1]
    for c in (SelfBlockSettings(4, 4, 5), SelfBlockSettings(5, 5, 6), SelfBlockSettings()):
        surface_potentials(prof03, 32, boundary, BATCH_THETA, BATCH_Y3_OVER_T * T,
                           BlockQuadrature(prof03, (6, 12, 14)), c)
    for rule in (coulomb._outer_chi_rule, coulomb._near_rule):
        info = rule.cache_info()
        assert info.maxsize == 2 and info.currsize == 2


def _blocks_by_gauss_in_r(nodes, p, ks, R, T, theta, y3c, r_eval, q=8):
    """Blocks ks at point p on its own (x3, phi) lattice, r by q-node Gauss, 1/|x - y| summed.

    Independent of the column kernel and of the expansion.  A far block's
    r-integrand is analytic with its singularities 19 or more away from
    r in [0, 0.75], so 8 nodes agree with 30 to 1.1e-15 on every block here.
    """
    x3, phi, rho_b, w = nodes
    t, g = coulomb._gl(q)
    r = rho_b[p][..., None] * t
    u = r * np.sin(phi)[:, None]
    xp = ((x3[p] - y3c) / R)[:, None, None]
    wt = (w[..., None] * rho_b[p][..., None] * g * r * (1.0 + u / R)).ravel()
    # source and evaluation points relative to X(0, 0, y3c), turned by -y3c/R
    Z = np.stack([r * np.cos(phi)[:, None], u * np.cos(xp) - 2.0 * R * np.sin(0.5 * xp) ** 2,
                  (R + u) * np.sin(xp)], axis=-1).reshape(-1, 3)
    a = np.asarray(ks) * T / R
    y2 = r_eval * np.sin(theta)
    P = np.stack([np.full(a.shape, r_eval * np.cos(theta)),
                  y2 * np.cos(a) - 2.0 * R * np.sin(0.5 * a) ** 2, -(R + y2) * np.sin(a)], axis=-1)
    out = np.empty(len(ks))
    step = max(1, 2**18 // len(wt))
    for lo in range(0, len(ks), step):
        Pk = P[lo:lo + step]
        d2 = np.sum(Pk * Pk, axis=1)[:, None] + np.sum(Z * Z, axis=1) - 2.0 * (Pk @ Z.T)
        out[lo:lo + step] = (1.0 / np.sqrt(d2)) @ wt
    return out


def _window_moments_gauss_in_r(nodes, R, y3c):
    """The window moments of ``coulomb._window_moments`` with r by a Gauss rule, one node a term.

    The route the closed-form rows replaced, kept as their oracle.

    M[p, l, m] = sum_nodes wt conj(R_l^m(d)) for m <= l <= L = coulomb.FAR_ORDER,
    d = X(x) - X(0, 0, y3c) in the frame turned by -y3c/R about the coil
    axis, so that d = (r cos phi, (R + r sin phi) e^{i x3'/R} - R) with
    x3' = x3 - y3c, written (zeta, xi): the coil axis is the polar axis.
    R_l^m(d) = |d|^l P_l^m(cos) e^{i m azimuth} / (l + m)! is the regular
    solid harmonic, (-xi / 2)^m / m! times a real polynomial of zeta and
    |d|^2 taken here as s_l^m Q_l^m, with Q_m^m = 1, Q_{m+1}^m = zeta,
    Q_l^m = zeta Q_{l-1}^m - c_l^m |d|^2 Q_{l-2}^m,
    c_l^m = (l - 1 + m)(l - 1 - m) / ((2l - 1)(2l - 3)) and
    s_l^m = prod_{j = m+2..l} (2j - 1) / ((j + m)(j - m)): the Legendre
    recurrence with its factors moved into one scale a moment.  The nodes
    are the window's (x3, phi) lattice from ``nodes2d`` times a Gauss rule
    in r on [0, rho_b] with FAR_ORDER // 2 + 2 nodes and weight
    r (1 + r sin(phi)/R): exact for these polynomials of degree l + 2 in r.
    A point's nodes are taken in tiles of z rows of at most TILE / 2 nodes
    (complex temporaries), several points a tile when a whole lattice
    fits, with one scratch set a call.
    """
    x3, phi, rho_b, w = nodes
    L = coulomb.FAR_ORDER
    t, g = coulomb._gl(L // 2 + 2)
    n_z, n_phi = w.shape
    row = n_phi * len(t)
    rows = min(n_z, max(1, TILE // (2 * row)))
    pts = min(len(y3c), max(1, TILE // (2 * n_z * row)) if rows == n_z else 1)
    c, scale = np.zeros((L + 1, L + 1)), np.zeros((L + 1, L + 1))
    s_mm = 1.0
    for m in range(L + 1):
        s_mm *= -0.5 / m if m else 1.0
        s = s_mm
        for l in range(m, L + 1):
            if l > m + 1:
                s *= (2 * l - 1) / ((l + m) * (l - m))
                c[l, m] = (l - 1 + m) * (l - 1 - m) / ((2 * l - 1) * (2 * l - 3))
            scale[l, m] = s
    sin_phi, cos_phi = np.sin(phi)[:, None], np.cos(phi)[:, None]
    shape = (pts, rows, n_phi, len(t))
    real = [np.empty(shape) for _ in range(8)]
    ones = np.ones(shape)
    W, xib = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    part = np.zeros((pts, L + 1, L + 1, 1, 2))
    S = np.zeros((len(y3c), L + 1, L + 1, 2))
    for p0 in range(0, len(y3c), pts):
        for z0 in range(0, n_z, rows):
            P, Z = slice(p0, p0 + pts), slice(z0, z0 + rows)
            ti = (slice(0, len(y3c[P])), slice(0, len(w[Z])))
            r, u, zeta, rho2, a, *pool = (v[ti] for v in real)
            W_, xib_ = W[ti], xib[ti]
            xp = ((x3[P, Z] - y3c[P, None]) / R)[..., None, None]
            rb = rho_b[P, Z, :, None]
            np.multiply(rb, t, out=r)
            np.multiply(r, sin_phi, out=u)
            np.multiply(r, cos_phi, out=zeta)
            # xi = d2 + i d3: d2 = u cos(x3'/R) - 2R sin^2(x3'/2R), d3 = (R + u) sin(x3'/R)
            d2, d3 = pool[0], pool[1]
            np.multiply(u, np.cos(xp), out=d2)
            np.subtract(d2, 2.0 * R * np.sin(0.5 * xp) ** 2, out=d2)
            np.add(u, R, out=d3)
            np.multiply(d3, np.sin(xp), out=d3)
            xib_.real = d2
            np.negative(d3, out=xib_.imag)                          # conj(xi)
            np.multiply(d2, d2, out=rho2)
            np.multiply(d3, d3, out=d3)
            np.add(rho2, d3, out=rho2)
            np.multiply(zeta, zeta, out=a)
            np.add(rho2, a, out=rho2)                               # |d|^2
            # W = wt = w rho_b g r (1 + u / R), times conj(xi)^m below
            np.divide(u, R, out=a)
            np.add(a, 1.0, out=a)
            np.multiply(a, r, out=a)
            np.multiply(a, rb * g, out=a)
            np.multiply(a, w[Z, :, None], out=a)
            W_.real, W_.imag = a, 0.0
            # every real factor as (points, 1, nodes), so q @ W sums a point's nodes
            flat = (len(r), 1, -1)
            Wv = W_.view(float).reshape(len(r), -1, 2)
            one, zeta, rho2, a = (v.reshape(flat) for v in (ones[ti], zeta, rho2, a))
            pool = [v.reshape(flat) for v in pool]
            out = part[:len(r)]
            for m in range(L + 1):
                if m:
                    np.multiply(W_, xib_, out=W_)
                q_prev, q = None, one
                for l in range(m, L + 1):
                    if l == m + 1:
                        q_prev, q = q, zeta
                    elif l > m + 1:
                        nxt = pool[l % 3]
                        np.multiply(q, zeta, out=a)
                        np.multiply(q_prev, rho2, out=nxt)
                        np.multiply(nxt, c[l, m], out=nxt)
                        np.subtract(a, nxt, out=nxt)
                        q_prev, q = q, nxt
                    np.matmul(q, Wv, out=out[:, l, m])
            S[P] += out[..., 0, :]
    return scale * (S[..., 0] + 1j * S[..., 1])


def test_far_blocks_match_gauss_in_r_reference(prof03, chart03, solver03):
    # the log law's two rules, a point whose window is cut near the period's end
    T = prof03.T
    theta, y3 = np.array([0.7, 4.0]), np.array([0.4, -0.45 * T])
    for resolution in ((24, 32, 48), (24, 48, 72)):
        quad = BlockQuadrature(prof03, resolution)
        for boundary in _batch_boundaries(prof03, chart03, solver03):
            r_eval, y3c = boundary.surface_point(theta, y3)
            nodes = quad.nodes2d(y3c, boundary)
            for n in (32, coulomb.FAR_MIN_N, 128, 1024):
                R = n * T / (2.0 * np.pi)
                ks = np.arange(coulomb.FAR_K0, n - coulomb.FAR_K0 + 1)
                far = coulomb._far_blocks(nodes, ks, R, T, theta, y3c, r_eval)
                for p in range(len(theta)):
                    ref = _blocks_by_gauss_in_r(nodes, p, ks, R, T, theta[p], y3c[p], r_eval[p])
                    err = np.abs(far[p] / ref - 1.0)
                    assert err.max() < 1e-12
                    if n == 1024:
                        # the blocks a quarter coil or more away, where the
                        # column kernel's M1/M2 cancellation is largest
                        sel = np.minimum(ks, n - ks) >= n // 4
                        one = (nodes[0][p:p + 1], nodes[1], nodes[2][p:p + 1], nodes[3])
                        direct = _regular_blocks(one, ks[sel], R, T, theta[p:p + 1],
                                                 y3c[p:p + 1], r_eval[p:p + 1])[0]
                        assert np.all(err[sel] < np.abs(direct / ref[sel] - 1.0))


def test_far_blocks_match_gauss_in_r_moments(prof03, chart03, solver03, monkeypatch):
    # the far blocks from the closed-form row moments against those from
    # the Gauss-in-r moments they replaced, on the loop and log-law rules
    # and both boundaries (largest relative difference measured: 4e-15)
    T = prof03.T
    theta, y3 = np.array([0.7, 4.0]), np.array([0.4, -0.45 * T])
    for resolution in ((6, 12, 14), (8, 16, 20), (24, 32, 48), (24, 48, 72)):
        quad = BlockQuadrature(prof03, resolution)
        for boundary in _batch_boundaries(prof03, chart03, solver03):
            r_eval, y3c = boundary.surface_point(theta, y3)
            nodes = quad.nodes2d(y3c, boundary)
            for n in (coulomb.FAR_MIN_N, 128, 1024):
                R = n * T / (2.0 * np.pi)
                ks = np.arange(coulomb.FAR_K0, n - coulomb.FAR_K0 + 1)
                far = coulomb._far_blocks(nodes, ks, R, T, theta, y3c, r_eval)
                with monkeypatch.context() as m:
                    m.setattr(coulomb, "_window_moments", _window_moments_gauss_in_r)
                    ref = coulomb._far_blocks(nodes, ks, R, T, theta, y3c, r_eval)
                assert np.max(np.abs(far / ref - 1.0)) < 1e-14


def _columns_by_gauss_in_r(P, r_eval, chi, phi, cadd, R, q=64):
    """Columns int_0^P (1 + r sin(phi)/R) r / |x - y| dr by q-node Gauss in r.

    |x - y|^2 = (r - r_eval)^2 + 4 r r_eval sin^2(chi/2) + cadd (1 + r sin(phi)/R)
    is the chordal identity with cadd = a_k^2 kap; P is (n_z, n_phi) and cadd
    (k, n_z, 1), one row of k at a time.  Independent of both closed forms.
    """
    t, g = coulomb._gl(q)
    r = P[..., None] * t
    one = 1.0 + r * (np.sin(phi) / R)[:, None]
    near = (r - r_eval) ** 2 + (4.0 * r_eval * np.sin(0.5 * chi) ** 2)[:, None] * r
    num = r * one
    Q = np.empty(r.shape)
    out = np.empty(cadd.shape[:1] + P.shape)
    for row, cols in zip(cadd, out):
        np.multiply(row[..., None], one, out=Q)
        np.add(Q, near, out=Q)
        np.sqrt(Q, out=Q)
        np.divide(num, Q, out=Q)
        np.matmul(Q, g, out=cols)
    return out * P


def test_separated_columns_match_gauss_in_r(prof03):
    # every regular block's columns on five lattice rules, from both closed
    # forms, against 64-node Gauss in r.  Worst relative errors measured, per
    # class min(k, n - k) = 1, 2-3, 4-7, >= 8: guarded 2.2e-13, 1.5e-11,
    # 1.4e-10, 9.2e-9; separated 2.1e-13, 1.2e-11, 1.2e-10, 1.2e-8 (both
    # lose digits to the M1/M2 cancellation on the far columns)
    T = prof03.T
    boundary = AxisymBoundary(prof03)
    theta, y3 = (v.ravel() for v in np.meshgrid([0.3, np.pi / 2, 1.2, 2.0, 1.5 * np.pi],
                                                 np.array([0.0, 0.2, 0.45]) * T,
                                                 indexing="ij"))
    r_eval, y3c = boundary.surface_point(theta, y3)
    worst = np.zeros((2, 4))
    for rule in ((12, 14), (16, 20), (28, 40), (32, 48), (8, 10)):
        x3, phi, rho_b, w = BlockQuadrature(prof03, (2,) + rule).nodes2d(y3c, boundary)
        for n in (8, 16, 32, 33, 64, 127):
            R = n * T / (2.0 * np.pi)
            ks = np.arange(1, n)
            cls = np.searchsorted([2, 4, 8], np.minimum(ks, n - ks), side="right")
            shape = (len(ks),) + w.shape
            for p in range(len(theta)):
                P, r, chi = rho_b[p], r_eval[p], phi - theta[p]
                ak = 2.0 * R * np.sin((ks[:, None, None] * T + (x3[p] - y3c[p])[:, None])
                                      / (2.0 * R))
                kap = 1.0 + r * np.sin(theta[p]) / R
                cadd = ak * ak * kap
                c = r * r + cadd
                guarded = _column_values(_node_factors(P, r, chi, phi), ak, kap, R,
                                         _scratch(shape))
                separated = _separated_values(
                    _separated_factors(P, r, chi, phi, np.ones(w.shape), R,
                                       [np.empty(w.shape) for _ in range(4)]),
                    cadd, c, np.sqrt(c), [np.empty(shape) for _ in range(5)])
                ref = _columns_by_gauss_in_r(P, r, chi, phi, cadd, R)
                for i, cols in enumerate((guarded, separated)):
                    np.maximum.at(worst[i], cls, np.abs(cols / ref - 1.0).max(axis=(1, 2)))
    assert np.all(worst[1] <= 2.0 * worst[0])
    assert np.all(worst[1] < [1e-12, 1e-10, 1e-9, 1e-7])


def test_self_block_outer_columns_match_gauss_in_r(prof03):
    # the self block's two column sets at six points, n = 16, 32, 128 and
    # the desk loop and final orders, from both closed forms, against
    # 256-node Gauss in r (it agreed with 512 nodes to 4.3e-15).  Worst
    # relative errors measured: outer set, guarded 1.8e-14 and separated
    # 2.4e-14, so the outer set takes the separated kernel; inner set,
    # guarded 2.6e-15 and separated 1.3e-14: its lines pass arbitrarily
    # close to the evaluation point, and the separated form loses 5x there,
    # so the inner set (and the footprint) keep the guarded one
    T = prof03.T
    boundary = AxisymBoundary(prof03)
    points = [(0.3, 0.0), (np.pi / 2, 0.0), (1.2, 0.45 * T), (2.0, 0.2 * T),
              (1.5 * np.pi, 0.5 * T), (4.0, 0.3 * T)]
    worst = {}
    for n in (16, 32, 128):
        R = n * T / (2.0 * np.pi)
        for cfg in (SelfBlockSettings(5, 5, 6), SelfBlockSettings(7, 7, 8)):
            rho = cfg.core_size(prof03.a, T)
            d_xi = min(rho, T / 4.0)
            for theta, y3 in points:
                r, y3c = (float(v) for v in boundary.surface_point(theta, y3))
                d_chi = min(rho / max(r, rho), np.pi / 2.0)
                sets = {"outer": (_sym_graded_rules(d_xi, T / 2.0, d_xi, cfg.panel_q),
                                  _sym_graded_rules(0.0, np.pi, d_chi, cfg.panel_q,
                                                    cfg.grade_ratio)),
                        "inner": (_panel_rule(np.array([[-d_xi, 0.0, d_xi]]), cfg.column_q),
                                  _sym_graded_rules(d_chi, np.pi, d_chi, cfg.panel_q))}
                for name, (xi, chi) in sets.items():
                    xi, chi = xi[0][0], chi[0][0]
                    phi = theta + chi
                    P = boundary.radius(phi[None, :], y3c + xi[:, None])
                    ak = 2.0 * R * np.sin(xi / (2.0 * R))[:, None]
                    kap = 1.0 + r * np.sin(theta) / R
                    cadd = ak * ak * kap
                    c = r * r + cadd
                    guarded = _column_values(_node_factors(P, r, chi, phi), ak, kap, R,
                                             _scratch(P.shape))
                    separated = _separated_values(
                        _separated_factors(P, r, chi, phi, 1.0, R,
                                           [np.empty(P.shape) for _ in range(4)]),
                        cadd, c, np.sqrt(c), [np.empty(P.shape) for _ in range(5)])
                    ref = _columns_by_gauss_in_r(P, r, chi, phi, cadd[None], R, q=256)[0]
                    for kernel, cols in (("guarded", guarded), ("separated", separated)):
                        err = np.max(np.abs(cols / ref - 1.0))
                        worst[name, kernel] = max(worst.get((name, kernel), 0.0), err)
    assert worst["outer", "separated"] <= 2.0 * worst["outer", "guarded"]
    assert worst["outer", "separated"] < 5e-14
    assert worst["inner", "separated"] > 2.0 * worst["inner", "guarded"]


def test_self_columns_match_gauss_in_r(prof03):
    # the self block's fused column kernel on the sets of the test above,
    # outer set separated and inner set guarded, against 256-node Gauss in
    # r.  Worst relative errors measured: outer 2.3e-14 (the guarded
    # ``_column_values`` 1.8e-14), inner 2.0e-15 (2.6e-15)
    T = prof03.T
    boundary = AxisymBoundary(prof03)
    points = [(0.3, 0.0), (np.pi / 2, 0.0), (1.2, 0.45 * T), (2.0, 0.2 * T),
              (1.5 * np.pi, 0.5 * T), (4.0, 0.3 * T)]
    worst = {}
    for n in (16, 32, 128):
        R = n * T / (2.0 * np.pi)
        for cfg in (SelfBlockSettings(3, 3, 4), SelfBlockSettings(5, 5, 6),
                    SelfBlockSettings(7, 7, 8)):
            rho = cfg.core_size(prof03.a, T)
            d_xi = min(rho, T / 4.0)
            for theta, y3 in points:
                r, y3c = (float(v) for v in boundary.surface_point(theta, y3))
                d_chi = min(rho / max(r, rho), np.pi / 2.0)
                sets = {"outer": (_sym_graded_rules(d_xi, T / 2.0, d_xi, cfg.panel_q),
                                  _sym_graded_rules(0.0, np.pi, d_chi, cfg.panel_q,
                                                    cfg.grade_ratio)),
                        "inner": (_panel_rule(np.array([[-d_xi, 0.0, d_xi]]), cfg.column_q),
                                  _sym_graded_rules(d_chi, np.pi, d_chi, cfg.panel_q))}
                for name, (xi, chi) in sets.items():
                    xi, chi = xi[0][0], chi[0][0]
                    phi = theta + chi
                    P = boundary.radius(phi[None, :], y3c + xi[:, None])
                    ak = 2.0 * R * np.sin(xi / (2.0 * R))[:, None]
                    kap = 1.0 + r * np.sin(theta) / R
                    cadd = ak * ak * kap
                    ref = _columns_by_gauss_in_r(P, r, chi, phi, cadd[None], R, q=256)[0]
                    old = _column_values(_node_factors(P, r, chi, phi), ak, kap, R,
                                         _scratch(P.shape))
                    # one point a chi node, with one-hot chi weights: its column
                    L, guarded = len(chi), name == "inner"
                    rr = np.full((L, 1, 1), r)
                    row = coulomb._chi_factors(np.tile(phi, (L, 1, 1)), rr,
                                               np.tile(chi, (L, 1, 1)), R, guarded)
                    new = coulomb._self_columns(
                        np.repeat(P[None], L, axis=0), rr, np.repeat(cadd[None], L, axis=0),
                        row, np.eye(L), [np.empty((L,) + P.shape) for _ in range(6)],
                        guarded)[..., 0].T
                    for kernel, cols in (("old", old), ("new", new)):
                        err = np.max(np.abs(cols / ref - 1.0))
                        worst[name, kernel] = max(worst.get((name, kernel), 0.0), err)
    assert worst["outer", "new"] <= 2.0 * worst["outer", "old"] and worst["outer", "new"] < 5e-14
    assert worst["inner", "new"] <= 2.0 * worst["inner", "old"]


def test_window_moments_match_legendre_reference(prof03, chart03, solver03):
    # R_l^m = |d|^l P_l^m(cos) e^{i m az} / (l + m)! from scipy's P_l^m (with
    # the Condon-Shortley phase), r by 12-node Gauss: the moments' own r rule
    # must be exact for every order up to FAR_ORDER
    from scipy.special import factorial, lpmv
    L = coulomb.FAR_ORDER
    T = prof03.T
    n = 256
    R = n * T / (2.0 * np.pi)
    quad = BlockQuadrature(prof03, (6, 12, 14))
    theta, y3 = np.array([0.7, 4.0]), np.array([0.4, -0.45 * T])
    t, g = coulomb._gl(12)
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        r_eval, y3c = boundary.surface_point(theta, y3)
        x3, phi, rho_b, w = nodes = quad.nodes2d(y3c, boundary)
        M = coulomb._window_moments(nodes, R, y3c)
        for p in range(len(theta)):
            r = rho_b[p][..., None] * t
            u = r * np.sin(phi)[:, None]
            ang = ((x3[p] - y3c[p]) / R)[:, None, None]
            wt = w[..., None] * rho_b[p][..., None] * g * r * (1.0 + u / R)
            zeta = r * np.cos(phi)[:, None]
            xi = (R + u) * np.exp(1j * ang) - R
            dist = np.sqrt(zeta**2 + np.abs(xi) ** 2)
            for l in range(L + 1):
                for m in range(l + 1):
                    harm = (dist**l * lpmv(m, l, zeta / dist) * np.exp(1j * m * np.angle(xi))
                            / factorial(l + m))
                    ref = np.sum(wt * np.conj(harm))
                    assert abs(M[p, l, m] - ref) <= 1e-13 * np.sum(wt * np.abs(harm))


@pytest.mark.parametrize("resolution", [(6, 12, 14), (24, 32, 48)])
def test_far_blocks_batch_matches_single_points(prof03, resolution):
    # the moments take 7 points a tile on (12, 14) and 2 on (32, 48), so the
    # 5-point batch is one tile on the first rule and three on the second
    quad = BlockQuadrature(prof03, resolution)
    boundary = AxisymBoundary(prof03)
    T = prof03.T
    n = 256
    R = n * T / (2.0 * np.pi)
    ks = np.arange(coulomb.FAR_K0, n - coulomb.FAR_K0 + 1)
    theta = BATCH_THETA[:5]
    r_eval, y3c = boundary.surface_point(theta, BATCH_Y3_OVER_T[:5] * T)
    batch = coulomb._far_blocks(quad.nodes2d(y3c, boundary), ks, R, T, theta, y3c, r_eval)
    for p in range(len(theta)):
        one = slice(p, p + 1)
        single = coulomb._far_blocks(quad.nodes2d(y3c[one], boundary), ks, R, T, theta[one],
                                     y3c[one], r_eval[one])
        assert np.array_equal(batch[p], single[0])


def test_surface_potentials_far_field_above_crossover(prof03):
    # below FAR_MIN_N every block comes from the column kernel; from it on,
    # blocks FAR_K0..n-FAR_K0 come from the expansion and the rest do not move
    boundary = AxisymBoundary(prof03)
    quad = BlockQuadrature(prof03, (6, 12, 14))
    cfg = SelfBlockSettings(panel_q=4, core_q=4, column_q=5)
    T = prof03.T
    theta, y3 = np.array([0.7, 2.0]), np.array([0.4, -0.3])
    r_eval, y3c = boundary.surface_point(theta, y3)
    nodes = quad.nodes2d(y3c, boundary)
    for n in (coulomb.FAR_MIN_N - 16, coulomb.FAR_MIN_N):
        R = n * T / (2.0 * np.pi)
        Ik = surface_potentials(prof03, n, boundary, theta, y3, quad, cfg)
        direct = _regular_blocks(nodes, np.arange(1, n), R, T, theta, y3c, r_eval)
        far = np.zeros(n - 1, dtype=bool)
        if n >= coulomb.FAR_MIN_N:
            far[coulomb.FAR_K0 - 1:n - coulomb.FAR_K0] = True
            ks = np.arange(coulomb.FAR_K0, n - coulomb.FAR_K0 + 1)
            assert np.array_equal(Ik[:, 1:][:, far],
                                  coulomb._far_blocks(nodes, ks, R, T, theta, y3c, r_eval))
            assert np.max(np.abs(Ik[:, 1:][:, far] / direct[:, far] - 1.0)) < 1e-10
        assert np.array_equal(Ik[:, 1:][:, ~far], direct[:, ~far])


def test_regular_blocks_memory_bounded(prof03):
    y = (np.pi / 2, 0.0)
    potential_coil(prof03, 16, y)  # fill the rule caches first
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        potential_coil(prof03, 1024, y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    # the one-shot sweep peaked at 432 MiB here: 1023 x 3456 doubles a temporary
    assert peak < 16 * 2**20


def _moments_by_quad(P, r_eval, chi, blin, cadd):
    """M_0..M_2 by adaptive quadrature, split geometrically toward r = r_eval."""
    def Q(r):  # 1 - cos(chi) as 2 sin^2(chi/2): no cancellation at small chi
        return (r - r_eval) ** 2 + 4.0 * r * r_eval * np.sin(chi / 2.0) ** 2 + blin * r + cadd
    width = r_eval * abs(np.sin(chi))
    cuts = {r_eval + s * width * 2.0**j for j in range(16) for s in (-1.0, 1.0)}
    edges = sorted({0.0, P, r_eval} | cuts)
    edges = [e for e in edges if 0.0 <= e <= P]
    return [sum(integrate.quad(lambda r: r**m / np.sqrt(Q(r)), lo, hi, epsabs=0.0,
                               epsrel=1e-13, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
            for m in range(3)]


def _moments_mp(P, r_eval, chi, blin, cadd):
    """M_0..M_2 from the antiderivatives at 50 digits (the float inputs taken as exact)."""
    with mpmath.workdps(50):
        P, r, chi, blin, cadd = (mpmath.mpf(v) for v in (P, r_eval, chi, blin, cadd))
        b = -2 * r * mpmath.cos(chi) + blin
        c = r * r + cadd
        sQ, sc = mpmath.sqrt(P * P + b * P + c), mpmath.sqrt(c)
        M0 = mpmath.log((2 * sQ + 2 * P + b) / (2 * sc + b))
        M1 = sQ - sc - b * M0 / 2
        M2 = ((2 * P - 3 * b) * sQ + 3 * b * sc) / 4 - (4 * c - 3 * b * b) / 8 * M0
        return [float(M0), float(M1), float(M2)]


@pytest.mark.parametrize("P, r_eval, chi, blin, cadd, b_nonneg", [
    (1.1, 0.8, 2.5, 0.01, 0.05, True),        # column behind the axis: b >= 0
    (1.2, 0.8, 0.3, -0.02, 0.03, False),      # b < 0, rationalized log argument
    (0.8001, 0.8, 1e-3, 0.0, 0.0, False),     # near-singular k = 0 column
    (0.80001, 0.8, 1e-4, 0.0, 0.0, False),    # 1 - cos(chi) cancels in float
    (0.8000001, 0.8, 1e-6, 0.0, 1e-14, False),
])
def test_radial_moments_match_quadrature(P, r_eval, chi, blin, cadd, b_nonneg):
    # the guarded self-block column M1 + s M2, s = sin(phi)/R, at the set's
    # own s = blin/cadd (0 where cadd = 0) and at s = 0.5 with blin = cadd s:
    # cadd = 0 forces blin = 0 but leaves s free, so the column's
    # (s/2)(P sqrt(Q) - c M0) term is held at the near-singular sets too
    R = 1.0
    r = np.full((1, 1, 1), r_eval)
    for s0 in (blin / cadd if cadd else 0.0, 0.5):
        phi = np.arcsin(s0 * R)
        s = np.sin(phi) / R
        assert (-2.0 * r_eval * np.cos(chi) + cadd * s >= 0.0) == b_nonneg
        row = coulomb._chi_factors(np.full((1, 1, 1), phi), r, np.full((1, 1, 1), chi), R, True)
        col = coulomb._self_columns(np.full((1, 1, 1), P), r, np.full((1, 1, 1), cadd), row,
                                    np.ones((1, 1)), [np.empty((1, 1, 1)) for _ in range(6)],
                                    True)[0, 0, 0]
        refs = [_moments_mp(P, r_eval, chi, cadd * s, cadd)]
        if chi >= 1e-3:  # narrower columns are beyond the adaptive quadrature
            refs.append(_moments_by_quad(P, r_eval, chi, cadd * s, cadd))
        for _, M1, M2 in refs:
            assert abs(col / (M1 + s * M2) - 1.0) < 1e-11


def test_perturbed_reduces_to_coil_at_zero(prof03, chart03, solver03):
    h0 = solver03.zero_field()
    y = (0.9, 0.35)
    a = potential_perturbed(prof03, 8, h0, y, chart=chart03, error_estimate=False)
    b = potential_coil(prof03, 8, y, error_estimate=False)
    assert a.value == b.value  # identical code path


def test_perturbed_linearity_orders(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=4)
    h.modes[0] = 0.02 * np.cos(np.pi * solver03.t / solver03.tau)
    h.modes[2] = 0.01 * np.cos(2 * np.pi * solver03.t / solver03.tau) + 0.005
    y = (0.9, 0.35)

    def parts(field):
        p = potential_perturbed(prof03, 8, field, y, chart=chart03,
                                error_estimate=False).value
        m = potential_perturbed(prof03, 8, -1.0 * field, y, chart=chart03,
                                error_estimate=False).value
        return (p - m) / 2, (p + m) / 2

    base = potential_coil(prof03, 8, y, error_estimate=False).value
    lin1, ev1 = parts(h)
    lin2, ev2 = parts(0.25 * h)
    assert lin1 / lin2 == pytest.approx(4.0, rel=0.02)       # odd part linear
    assert (ev1 - base) / (ev2 - base) == pytest.approx(16.0, rel=0.05)


def test_perturbed_response_grows_like_log_n(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=2)
    h.modes[0] = 0.01
    int_h = solver03.integral(h)
    y = (np.pi / 2, 0.0)
    resp = {}
    for n in (16, 64, 256):
        p = potential_perturbed(prof03, n, h, y, chart=chart03,
                                error_estimate=False).value
        m = potential_perturbed(prof03, n, -1.0 * h, y, chart=chart03,
                                error_estimate=False).value
        resp[n] = (p - m) / 2
    pred = (2.0 / prof03.T) * int_h
    s1 = (resp[64] - resp[16]) / np.log(4)
    s2 = (resp[256] - resp[64]) / np.log(4)
    assert s1 / pred == pytest.approx(1.0, abs=0.15)
    assert abs(s2 / pred - 1.0) < abs(s1 / pred - 1.0)  # approaching the law


def test_normal_graph_boundary_accuracy(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=3)
    h.modes[0] = 0.01
    h.modes[1] = 0.004 * solver03.kernel.nu2
    h.modes[3] = 0.002
    bnd = NormalGraphBoundary(prof03, chart03, h)
    rng = np.random.default_rng(5)
    phi = rng.uniform(0, 2 * np.pi, 200)
    x3 = rng.uniform(-2 * prof03.T, 2 * prof03.T, 200)
    direct = bnd._radius_newton(phi, x3)
    assert np.max(np.abs(bnd.radius(phi, x3) - direct)) < 1e-9
    # T-periodic and reflection symmetric
    assert np.max(np.abs(bnd.radius(phi, x3 + prof03.T) - direct)) < 1e-9
    assert np.max(np.abs(bnd.radius(np.pi - phi, -x3) - direct)) < 1e-9


def test_normal_graph_boundary_keeps_its_h(prof03, chart03, solver03):
    # the boundary copies h: an in-place edit of the caller's field after the
    # build moves neither the interpolated radius nor the graph points
    h = solver03.zero_field(kmax=2)
    h.modes[0] = 0.01
    h.modes[2] = 0.004
    bnd = NormalGraphBoundary(prof03, chart03, h)
    phi = np.linspace(0.1, 2 * np.pi, 9)[:, None]
    x3 = np.linspace(-0.5, 0.5, 7)[None, :] * prof03.T
    before = [bnd.radius(phi, x3), *bnd.surface_point(phi, x3)]
    h.modes *= 3.0
    h.modes[1] = 0.02
    after = [bnd.radius(phi, x3), *bnd.surface_point(phi, x3)]
    for b, a in zip(before, after):
        assert [float(v).hex() for v in a.ravel()] == [float(v).hex() for v in b.ravel()]


def test_normal_graph_newton_residual_checked(prof03, chart03, solver03, monkeypatch):
    h = solver03.zero_field(kmax=1)
    h.modes[0] = 0.02
    NormalGraphBoundary(prof03, chart03, h)  # three steps reach the tolerance
    monkeypatch.setattr(coulomb, "NEWTON_STEPS", 0)
    with pytest.raises(NonConvergence):
        NormalGraphBoundary(prof03, chart03, h)


def test_normal_graph_unresolved_radius_raises(prof03, chart03, solver03):
    # random mode values on the 24-interval t grid of the Tier-1 settings put
    # content at the grid scale: the interpolant was 1e-3 from the Newton
    # inversion, and its series tail stays above NEWTON_TOL after doubling
    rough = SymmetricField.zero(4, solver03.tau, 24)
    rough.modes[:] = np.random.default_rng(1).standard_normal(rough.modes.shape)
    rough = rough * (0.028 / rough.norm_sup())
    with pytest.raises(NonConvergence, match="not resolved"):
        NormalGraphBoundary(prof03, chart03, rough)
    # the stored desk solution and the oracle's fields are resolved; at
    # amp = 0.08 the angular tail needs the doubled phi grid
    with open(Path(__file__).resolve().parents[1] / "results" / "reduce_a0.3_n32.json") as fh:
        desk = SymmetricField.from_dict(json.load(fh)["h"])
    rng = np.random.default_rng(2)
    phi, x3 = rng.uniform(0.0, 2.0 * np.pi, 400), rng.uniform(-prof03.T, prof03.T, 400)
    rows = []
    for h in (desk, _oracle_field(solver03, 0.03), _oracle_field(solver03, 0.08)):
        bnd = NormalGraphBoundary(prof03, chart03, h)
        assert np.max(np.abs(bnd.radius(phi, x3) - bnd._radius_newton(phi, x3))) <= NEWTON_TOL
        rows.append(bnd._coef.shape[0])
    assert rows[1] <= 14 < rows[2] <= 28


def _radius_about_shapes(prof03, centres):
    """(phi, offset) of every Coulomb caller of ``radius_about`` at the batch ``centres``.

    nodes2d (desk loop rule), an outer and an inner column set and the
    footprint (desk self-block orders), the Duffy faces at q = 7 (the xi
    faces, the chi faces and the eta face), and the brute-force oracle's
    (polar angle, ring angle) grid about one centre.
    """
    T = prof03.T
    quad = BlockQuadrature(prof03, (8, 16, 20))
    p = len(centres)
    theta = np.linspace(0.2, 6.0, p)[:, None, None]
    d_xi = SelfBlockSettings().core_size(prof03.a, T)
    xi_out = _sym_graded_rules(d_xi, T / 2.0, d_xi, 5)[0][0]
    xi_in = _panel_rule(np.array([-d_xi, 0.0, d_xi]), 6)[0]
    chi = _sym_graded_rules(0.0, np.pi, 0.1, 5)[0]
    u = coulomb._gl(7)[0]
    U = u[:, None, None]
    pair = np.stack((u * -d_xi, u * d_xi), axis=-1)[..., None]
    grid = U * (-d_xi + 2.0 * d_xi * u[:, None])
    face_phi = theta[..., None] + U * (0.2 * u - 0.1)
    tt = np.linspace(-np.pi, np.pi, 40)
    return [(quad.phi_nodes, quad.z_nodes[:, None]),
            (theta + chi, xi_out[:, None]),
            (theta + chi[:, :12], xi_in[:, None]),
            (theta + np.linspace(-0.1, 0.1, 12), xi_in[:, None]),
            (face_phi, pair),
            (theta[..., None] + U * np.array([-0.1, 0.1]), grid),
            (face_phi, grid),
            (tt[None, :], np.linspace(-2.0, 2.0, 60)[:, None] * T)]


def test_normal_graph_radius_tables_bounded(prof03, chart03, solver03, monkeypatch):
    # radius_about forms its axial exp tables on the centres and on the
    # offsets apart, never on their sums: at the desk batch (153 centres),
    # on every caller's shape, each axial table holds at most centres + 1
    # or offsets values, of axial_modes complex values each, and all of them
    # together stay within 4 TILE doubles
    bnd = _batch_boundaries(prof03, chart03, solver03)[1]
    axial = bnd._coef.shape[1]
    centres = np.linspace(-0.5, 0.5, 153) * prof03.T
    sizes = []
    real = fields._powers
    monkeypatch.setattr(fields, "_powers",
                        lambda x, m: (m == axial - 1 and sizes.append(np.size(x))) or real(x, m))
    for phi, offset in _radius_about_shapes(prof03, centres):
        sizes.clear()
        bnd.radius_about([offset], centres)(phi)
        assert sorted(sizes) == sorted([np.size(offset), len(centres) + 1])
        assert 2 * axial * sum(sizes) <= 4 * TILE
    # the self block forms one coefficient table a column set (outer, inner
    # and footprint, Duffy faces), of (2, axial, offsets, angular) doubles;
    # at the default refined orders (9, 9, 10) each stays within 4 TILE
    # (one table over all three sets' offsets would hold 7.8 TILE)
    T = prof03.T
    theta = np.linspace(0.2, 6.0, len(centres))
    r_eval, y3c = bnd.surface_point(theta, centres)
    calls, about = [], bnd.radius_about
    monkeypatch.setattr(bnd, "radius_about", lambda offsets, centre: (
        calls.append(sum(np.size(o) for o in offsets)) or about(offsets, centre)))
    _self_block(bnd, 32 * T / (2.0 * np.pi), T, theta, y3c, r_eval,
                SelfBlockSettings(9, 9, 10), prof03.a)
    assert len(calls) == 3
    for n in calls:
        assert 2 * axial * n * bnd._coef.shape[0] <= 4 * TILE


def test_radius_about_matches_radius(prof03, chart03, solver03):
    # the angle-addition radius against the series at the summed x3, on
    # every caller's shape and on both boundaries, for a batch, a slice and
    # an index array of it, and one centre; all the offsets in one table
    centres = np.linspace(-0.5, 0.5, 9) * prof03.T
    shapes = _radius_about_shapes(prof03, centres)
    offsets = [offset for _, offset in shapes]
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        radius = boundary.radius_about(offsets, centres)
        for j, (phi, offset) in enumerate(shapes):
            one = phi[3] if phi.ndim > offset.ndim else phi  # phi with a centre axis
            part = phi[2:5] if phi.ndim > offset.ndim else phi
            for c, p, got in ((centres, phi, radius(phi, j)),
                              (centres[2:5], part, radius(part, j, slice(2, 5))),
                              (centres[2:5], part, radius(part, j, np.arange(2, 5))),
                              (centres[3], one, boundary.radius_about([offset], centres[3])(one))):
                x3 = np.reshape(c, np.shape(c) + (1,) * offset.ndim) + offset
                want = boundary.radius(p, x3)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
                if isinstance(boundary, AxisymBoundary):  # the profile's own values
                    assert np.array_equal(got, want)


def test_radius_open_grid_matches_dense(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=3)
    h.modes[0] = 0.01
    h.modes[1] = 0.004 * solver03.kernel.nu2
    h.modes[2] = 0.003
    x3 = np.linspace(-prof03.T, 1.5 * prof03.T, 23)
    phi = np.linspace(0.1, 2 * np.pi, 17)
    u = x3[:7, None, None]
    open_grids = [(phi[None, :], x3[:, None]),        # nodes2d
                  (u * phi[None, :5, None], u),       # a Duffy-core face
                  (np.float64(0.7), x3)]
    for fn in (AxisymBoundary(prof03).radius, NormalGraphBoundary(prof03, chart03, h).radius,
               h.evaluate):
        for p, z in open_grids:
            P, Z = np.broadcast_arrays(p, z)
            dense = fn(P.copy(), Z.copy())
            sparse = fn(p, z)
            assert sparse.shape == dense.shape
            assert np.max(np.abs(sparse - dense)) <= 1e-14 * np.max(np.abs(dense))


def _batch_boundaries(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=3)
    h.modes[0] = 0.01
    h.modes[1] = 0.004 * solver03.kernel.nu2
    h.modes[3] = 0.002
    return AxisymBoundary(prof03), NormalGraphBoundary(prof03, chart03, h)


# neck (r = 0.3 at y3 = T/2) and bulge (r = 0.7 at y3 = 0) points in one batch
BATCH_THETA = np.array([0.3, 1.2, 2.0, 4.0, 5.5, 0.9])
BATCH_Y3_OVER_T = np.array([0.0, 0.5, -0.066, 0.3, 0.033, -0.45])


def test_surface_point_array_matches_scalar(prof03, chart03, solver03):
    theta, y3 = BATCH_THETA, BATCH_Y3_OVER_T * prof03.T
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        r, x3 = boundary.surface_point(theta[:, None], y3[None, :])
        assert r.shape == x3.shape == (len(theta), len(y3))
        for i, th in enumerate(theta):
            for j, z in enumerate(y3):
                rs, x3s = boundary.surface_point(th, z)
                assert np.ndim(rs) == 0
                assert abs(r[i, j] - rs) <= 1e-15 * rs
                assert abs(x3[i, j] - x3s) <= 1e-15 * max(abs(x3s), 1.0)


def test_nodes2d_centres_match_single_calls(prof03, chart03, solver03):
    quad = BlockQuadrature(prof03, (8, 16, 20))
    centres = BATCH_Y3_OVER_T * prof03.T
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        # a scalar centre: the flattened meshgrid rule, as 1-D arrays
        x3 = centres[1] + quad.z_nodes
        X3, PHI = np.meshgrid(x3, quad.phi_nodes, indexing="ij")
        want = (X3.ravel(), PHI.ravel(),
                boundary.radius_about([quad.z_nodes[:, None]], centres[1])(quad.phi_nodes).ravel(),
                np.outer(quad.z_weights, quad.phi_weights).ravel())
        got = _flat_rule(*quad.nodes2d(centres[1], boundary))
        for g, w in zip(got, want):
            assert g.shape == (16 * 20,) and np.array_equal(g, w)
        # a vector of centres: x3 and rho_b gain a leading centre axis
        x3s, phi, rho, w = quad.nodes2d(centres, boundary)
        assert x3s.shape + (16,) == rho.shape == (len(centres), 20, 16)
        for p, c in enumerate(centres):
            one = quad.nodes2d(c, boundary)
            for g, o in zip((x3s[p], phi, rho[p], w), one):
                assert np.array_equal(g, o)


def test_self_block_batch_matches_single_points(prof03, chart03, solver03):
    T = prof03.T
    n = 16
    R = n * T / (2.0 * np.pi)
    cfg = SelfBlockSettings()
    rho = cfg.core_size(prof03.a, T)
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        r_eval, y3c = boundary.surface_point(BATCH_THETA, BATCH_Y3_OVER_T * T)
        # the chi rules scale with r_eval: neck and bulge rows differ in
        # length, so the stacked rule pads the shorter rows
        d_chi = rho / np.maximum(r_eval, rho)
        lengths = {len(_sym_graded_rule(0.0, np.pi, d, cfg.panel_q, cfg.grade_ratio)[0])
                   for d in d_chi}
        assert len(lengths) > 1
        batch = _self_block(boundary, R, T, BATCH_THETA, y3c, r_eval, cfg, prof03.a)
        single = [_self_block(boundary, R, T, BATCH_THETA[p:p + 1], y3c[p:p + 1],
                              r_eval[p:p + 1], cfg, prof03.a)[0]
                  for p in range(len(BATCH_THETA))]
        assert batch.shape == (len(BATCH_THETA),)
        # each point integrates its own rule in tiles of one rule length
        assert np.array_equal(batch, single)


def test_self_block_batch_memory_bounded(prof03):
    # the columns take the points in tiles of TILE elements; one 64-point
    # sweep (a 64 x 70 x 70 grid a temporary) peaked at 31.5 MiB
    T = prof03.T
    R = 16 * T / (2.0 * np.pi)
    boundary = AxisymBoundary(prof03)
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    r_eval, y3c = boundary.surface_point(theta, np.linspace(-T / 2, T / 2, 64))
    cfg = SelfBlockSettings()
    _self_block(boundary, R, T, theta[:2], y3c[:2], r_eval[:2], cfg, prof03.a)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _self_block(boundary, R, T, theta, y3c, r_eval, cfg, prof03.a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 4 * 2**20


def _traced_peak(call):
    """Peak traced memory of one call, in bytes, above what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_self_block_desk_final_batch_memory_bounded(prof03, chart03, solver03):
    # the desk final report's 272 points (16 theta x 17 y3) in one batch at
    # panel/core q = 7; the untiled Duffy core alone peaked at 26 MiB here
    T = prof03.T
    R = 32 * T / (2.0 * np.pi)
    theta = np.repeat(2.0 * np.pi * np.arange(16) / 16, 17)
    y3 = np.tile(np.linspace(-T / 2, T / 2, 17), 16)
    cfg = SelfBlockSettings(panel_q=7, core_q=7, column_q=8)
    for boundary in _batch_boundaries(prof03, chart03, solver03):
        r_eval, y3c = boundary.surface_point(theta, y3)
        _self_block(boundary, R, T, theta[:2], y3c[:2], r_eval[:2], cfg, prof03.a)
        assert _traced_peak(lambda: _self_block(boundary, R, T, theta, y3c, r_eval, cfg,
                                                prof03.a)) < 4 * 2**20


def _desk_evaluation_peak(prof03, final):
    """Traced peak of one `reduce --a 0.3 --n 32` evaluation at its stored solution."""
    with open(Path(__file__).resolve().parents[1] / "results" / "reduce_a0.3_n32.json") as fh:
        stored = json.load(fh)
    ctx = ReductionContext(prof03, 32, ReductionSettings())
    h = SymmetricField.from_dict(stored["h"])
    evaluate_equation(prof03, 32, h, stored["gamma"], ctx=ctx, final=final)
    return _traced_peak(lambda: evaluate_equation(prof03, 32, h, stored["gamma"], ctx=ctx,
                                                  final=final))


def test_desk_evaluation_memory_bounded(prof03):
    # one loop evaluation: 63 points (7 theta columns x 9 y3 rows) in one
    # batch, traced 1.3 MiB at its peak as at 81 points (9 columns); at 153
    # points (17 rows) with the Duffy core untiled it peaked at 9 MiB
    assert _desk_evaluation_peak(prof03, final=False) < 6 * 2**20


def test_desk_final_report_memory_bounded(prof03):
    # the final report: 153 points (9 theta columns x 17 y3 rows) on the
    # (28, 40) lattice, in points-first regular-block tiles of 10 points,
    # traced 3.1 MiB at its peak; untiled, one regular-block temporary alone
    # would hold 153 x 31 x 1120 doubles (41 MiB)
    assert _desk_evaluation_peak(prof03, final=True) < 5 * 2**20


def test_perturbed_potential_mirror_symmetric(prof03, chart03, solver03):
    # the reduction loop copies column theta to pi - theta on this symmetry
    h = solver03.zero_field(kmax=4)
    h.modes[0] = 0.02 * np.cos(np.pi * solver03.t / solver03.tau)
    h.modes[1] = 0.004 * solver03.kernel.nu2
    h.modes[2] = 0.01 * np.cos(2 * np.pi * solver03.t / solver03.tau) + 0.005
    h.modes[3] = 0.002
    for theta, y3 in ((0.3, 0.4), (1.1, -0.25)):
        v = [potential_perturbed(prof03, 8, h, (th, y3), chart=chart03,
                                 error_estimate=False).value
             for th in (theta, np.pi - theta)]
        assert abs(v[1] - v[0]) <= 1e-12 * abs(v[0])


def test_coil_volume_unperturbed(prof03):
    v = coil_volume(prof03, 8)
    assert v == pytest.approx(8 * prof03.V, rel=1e-8)


def test_coil_volume_perturbed_grows(prof03, chart03, solver03):
    h = solver03.zero_field(kmax=0)
    h.modes[0] = 0.01
    v = coil_volume(prof03, 8, h, chart03)
    assert v > 8 * prof03.V  # positive bump adds volume


def _coil_volume_lattice(profile, n, boundary, nphi=64, nz=48):
    """n int (rho^2/2 + sin(phi) rho^3/(3R)) dphi dx3 on the block lattice over the
    solid's boundary: nphi midpoints in phi, nz Gauss nodes in x3."""
    R = n * profile.T / (2.0 * np.pi)
    _, phi, rho, w = BlockQuadrature(profile, (2, nphi, nz)).nodes2d(0.0, boundary)
    return float(n * np.sum(w * (rho**2 / 2.0 + np.sin(phi) * rho**3 / (3.0 * R))))


def test_coil_volume_matches_lattice_rule(prof03, chart03):
    # oracle: the same integral in x3, on the normal-graph boundary's interpolant,
    # for zero, the stored `reduce --a 0.3 --n 32` solution and ten times it;
    # there the (64, 48) lattice is 1e-10 off, and twice and four times its
    # counts agree with each other, and with the trapezoid, to 5e-14 (the
    # interpolant's own error)
    with open(Path(__file__).resolve().parents[1] / "results" / "reduce_a0.3_n32.json") as fh:
        h = SymmetricField.from_dict(json.load(fh)["h"])
    for field, lattice, tol in ((None, (64, 48), 1e-14), (h, (64, 48), 1e-14),
                                (10.0 * h, (128, 96), 1e-13)):
        want = _coil_volume_lattice(prof03, 32, solid_boundary(prof03, field, chart03),
                                    *lattice)
        assert abs(coil_volume(prof03, 32, field, chart03) / want - 1.0) <= tol


def test_coil_volume_folded_graph_raises(prof03, chart03, solver03):
    # an axial ripple steep enough that x3 = y - shift(phi, y) turns back
    h = solver03.zero_field(kmax=0)
    h.modes[0] = 0.3 * np.cos(4.0 * np.pi * solver03.t / solver03.tau)
    with pytest.raises(EmbeddingViolation):
        coil_volume(prof03, 8, h, chart03)


def test_nonzero_h_needs_chart(prof03, solver03):
    h = solver03.zero_field(kmax=0)
    assert isinstance(solid_boundary(prof03, h), AxisymBoundary)  # zero h: no chart read
    h.modes[0] = 0.01
    with pytest.raises(DomainError):
        coil_volume(prof03, 8, h)
    with pytest.raises(DomainError):
        potential_perturbed(prof03, 8, h, (0.3, 0.1), error_estimate=False)


# ---- balls and energies ----------------------------------------------------

def test_newton_potential_center():
    assert ball_potential_radial(0.0) == pytest.approx(2 * np.pi, abs=1e-10)


def test_newton_potential_profile():
    s = np.linspace(0.0, 2.0, 21)
    num = ball_potential_radial(s)
    assert np.max(np.abs(num - ball_potential_exact(s))) < 1e-8


def test_unit_ball_coulomb_energy_from_potential():
    # D = 1/2 int u with u the exact interior potential
    from scipy.integrate import simpson
    s = np.linspace(0.0, 1.0, 4001)
    D = 0.5 * simpson(ball_potential_exact(s) * 4 * np.pi * s * s, x=s)
    assert D == pytest.approx(16 * np.pi**2 / 15, abs=1e-8)
    assert ball_coulomb_energy(1.0) == pytest.approx(BALL_UNIT_COULOMB)


def test_energy_scaling_degree_five():
    assert ball_coulomb_energy(2.0) == pytest.approx(32 * ball_coulomb_energy(1.0))


def test_ball_energy_scaling_identity():
    # E(m) = m^{2/3} (Per(E1) + m D(E1)) with |E1| = 1
    r1 = (3.0 / (4 * np.pi)) ** (1.0 / 3.0)
    per1 = 4 * np.pi * r1 * r1
    d1 = ball_coulomb_energy(r1)
    for m in (0.5, 2.0, 7.0):
        assert ball_energy(m) == pytest.approx(m ** (2 / 3) * (per1 + m * d1), rel=1e-12)
    assert per1 == pytest.approx((36 * np.pi) ** (1 / 3), rel=1e-12)


def test_critical_mass():
    numeric, closed = critical_mass()
    assert closed == pytest.approx(3.51, abs=0.01)
    assert abs(numeric - closed) / closed < 1e-3
    # below the threshold a single ball beats the split pair
    m = closed / 2
    assert ball_energy(m) < 2 * ball_energy(m / 2)


def test_coil_energy_consistency(prof03):
    # the Pohozaev energy at the default quadrature against a refined one
    e1 = coulomb_energy(prof03, 4)
    e2 = coulomb_energy(prof03, 4, quad=BlockQuadrature(prof03, (24, 48, 72)),
                        self_cfg=SelfBlockSettings().refined())
    assert abs(e1 - e2) / e2 <= 1e-7


@pytest.mark.parametrize("n", [4, 8])
def test_coil_energy_quarter_matches_full_grid(prof03, n):
    # the energy folds the ENERGY_GRID rule onto one symmetry quarter (117 of
    # 384 points); the full-period sum of the same rule is the reference
    n_th, n_z = ENERGY_GRID
    T = prof03.T
    theta, y3 = np.meshgrid(2.0 * np.pi * np.arange(n_th) / n_th,
                            T * (np.arange(n_z) / n_z - 0.5), indexing="ij")
    u = surface_potentials(prof03, n, AxisymBoundary(prof03), theta, y3,
                           BlockQuadrature(prof03), SelfBlockSettings()).sum(axis=1)
    patch = build_coil(prof03, n)
    forms = evaluate_forms(patch, theta, y3)
    x_nu = np.sum(patch.position(theta, y3) * forms.normal, axis=-1)
    dsigma = np.sqrt(np.linalg.det(forms.g))
    full = n * 2.0 * np.pi * T / (n_th * n_z) * np.sum(u.reshape(theta.shape) * x_nu * dsigma) / 5.0
    assert abs(coulomb_energy(prof03, n) / full - 1.0) <= 1e-13


def _coil_energy_boundary_integral(prof, n, n_th, n_z):
    """D = -(1/16) int int [(nu_x.d)(nu_y.d)/|d| + |d| nu_x.nu_y] over Sigma x Sigma, d = x - y.

    Trapezoid rule with (n_th, n_z) nodes a period over the whole coil; it
    evaluates no potential.  The integrand is continuous and vanishes at
    d = 0, and every block sees the same coil, so x runs over one period.
    """
    T = prof.T
    theta, y3 = np.meshgrid(2.0 * np.pi * np.arange(n_th) / n_th,
                            T * (np.arange(n * n_z) / n_z - 0.5), indexing="ij")
    patch = build_coil(prof, n)
    forms = evaluate_forms(patch, theta, y3)
    x = patch.position(theta, y3).reshape(-1, 3)
    nu = forms.normal.reshape(-1, 3)
    ds = np.sqrt(np.linalg.det(forms.g)).ravel() * 2.0 * np.pi * T / (n_th * n_z)
    own = np.flatnonzero((y3 < T / 2.0).ravel())
    total = 0.0
    for lo in range(0, len(own), 64):
        i = own[lo:lo + 64]
        d = x[i, None, :] - x[None, :, :]
        r = np.sqrt(np.sum(d * d, axis=-1))
        nud_x = np.sum(nu[i, None, :] * d, axis=-1)
        nud_y = np.sum(nu[None, :, :] * d, axis=-1)
        f = nud_x * nud_y / np.where(r > 0.0, r, 1.0) + r * (nu[i] @ nu.T)
        total += ds[i] @ f @ ds
    return -n * total / 16.0


def test_coil_energy_boundary_oracle(prof03):
    # the integrand is only Lipschitz at d = 0, so the trapezoid error is
    # O(h^3): the differences over the 16 x 24, 24 x 36 and 32 x 48 grids
    # shrink 4.2x (h^3 predicts 4.1x), and one p = 3 Richardson step removes it
    coarse = _coil_energy_boundary_integral(prof03, 4, 16, 24)
    fine = _coil_energy_boundary_integral(prof03, 4, 24, 36)
    oracle = fine + (fine - coarse) / (1.5**3 - 1.0)
    energy = coulomb_energy(prof03, 4)
    assert abs(energy - oracle) / oracle <= 1e-5
