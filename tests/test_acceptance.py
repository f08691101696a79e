"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module runs at the default (desk) resolutions.
"""

import numpy as np
import pytest

from dropcoil.asymptotics import ia_slope_check, sech_moments
from dropcoil.coulomb import (critical_mass, potential_coil,
                              toroidal_potential_reference)
from dropcoil.geometry import (build_coil, build_straight,
                               curvature_expansion_check, evaluate_forms)
from dropcoil.jacobi import JacobiSolver
from dropcoil.profile import (build_chart, compute_Ia, compute_Ia_conformal,
                              profile_scan, solve_profile)
from dropcoil.reduction import (ReductionContext, ReductionSettings,
                                gamma_leading, mass_map, solve_gamma)

from conftest import random_symmetric_modes


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_cylinder_oracle():
    p = solve_profile(0.5)
    c = build_chart(0.5)
    errs = (abs(p.T - np.pi), abs(p.Ia - np.pi / 4), abs(p.V - np.pi**2 / 4),
            abs(compute_Ia(p) - np.pi / 4), abs(compute_Ia_conformal(c) - np.pi / 4))
    ok = max(errs) < 1e-8
    report(1, ok, f"cylinder T, I, V and both quadrature paths; max err {max(errs):.2e}")


def test_criterion_02_cmc_property():
    worst = 0.0
    for a in (0.1, 0.3, 0.45):
        prof = solve_profile(a)
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        y3 = np.linspace(-prof.T / 2, prof.T / 2, 64)
        TH, Y3 = np.meshgrid(th, y3, indexing="ij")
        H = evaluate_forms(build_straight(prof), TH, Y3).H
        worst = max(worst, float(np.max(np.abs(H - 2))))
    ok = worst < 1e-6
    report(2, ok, f"straight Delaunay max |H - 2| = {worst:.2e} on 64x64 grids")


def test_criterion_03_conserved_quantity():
    worst = 0.0
    for a in list(np.arange(0.05, 0.46, 0.05)) + [0.01, 0.002]:
        worst = max(worst, solve_profile(a).conserved_residual())
    ok = worst < 1e-8
    report(3, ok, f"max conserved-quantity residual {worst:.2e} across profiles")


def test_criterion_04_dual_formula_agreement():
    worst = 0.0
    for a in np.arange(0.05, 0.46, 0.05):
        p = solve_profile(a)
        worst = max(worst, abs(compute_Ia_conformal(build_chart(a)) - p.Ia) / p.Ia)
    ok = worst < 1e-6
    report(4, ok, f"|Ia_direct - Ia_conformal|/Ia <= {worst:.2e} on a in [0.05, 0.45]")


def test_criterion_05_appendix_moments_and_slope():
    table = sech_moments()
    fit = ia_slope_check(profile_scan([0.002, 0.005, 0.01]))
    ok = (table.max_error() < 1e-10
          and abs(table.grand_combination - 2.0) < 1e-8
          and 1.9 <= fit.slope <= 2.1)
    report(5, ok, f"moment err {table.max_error():.1e}, grand comb "
                  f"{table.grand_combination:.10f}, Ia slope {fit.slope:.4f}")


def test_criterion_06_positivity_scan():
    rows = profile_scan(np.arange(0.01, 0.495, 0.01))
    min_ia = min(r[3] for r in rows)
    ok = min_ia > 0
    report(6, ok, f"I_a > 0 on the 0.01..0.49 grid; min I_a = {min_ia:.5f}")


def test_criterion_07_critical_mass():
    numeric, closed = critical_mass()
    rel = abs(numeric - closed) / closed
    ok = rel < 1e-3
    report(7, ok, f"ball-energy root {numeric:.6f} vs closed form {closed:.6f} "
                  f"(rel {rel:.1e})")


def test_criterion_08_curvature_expansion(prof03):
    rep = curvature_expansion_check(prof03, [8, 16, 32, 64])
    phi32 = rep.phi_fit_rel_err[rep.n_list.index(32)]
    ok = rep.decay_exponent <= -1.8 and phi32 < 0.05
    report(8, ok, f"remainder decay exponent {rep.decay_exponent:.3f}, "
                  f"Phi recovery error {phi32:.4f} at n = 32")


def test_criterion_09_nonlocal_log_law(prof03):
    ns = [16, 32, 64, 128]
    vals = [potential_coil(prof03, n, (np.pi / 2, 0.0), error_estimate=False).value
            for n in ns]
    slope = float(np.polyfit(np.log(ns), vals, 1)[0])
    target = 2 * prof03.V / prof03.T
    res4 = potential_coil(prof03, 4, (np.pi / 2, 0.0))
    ref4 = toroidal_potential_reference(prof03, 4, (np.pi / 2, 0.0))
    brute_rel = abs(res4.value - ref4) / ref4
    ok = abs(slope / target - 1) < 0.05 and brute_rel < 0.01
    report(9, ok, f"slope/(2V/T) = {slope / target:.4f}, brute-force n=4 "
                  f"agreement {brute_rel:.2e}")


def test_criterion_10_jacobi_solver(chart03, solver03):
    kres = solver03.kernel_residuals()["nu2"]
    E = random_symmetric_modes(solver03, 6, np.random.default_rng(0))
    h, c, d = solver03.solve_projected(E)
    res = solver03.apply(h)
    target = E.modes.copy()
    target[1] -= c * solver03.kernel.nu2
    target[0] -= d
    sol_res = float(np.max(np.abs(res.modes - target)) / np.max(np.abs(E.modes)))
    ok = kres < 1e-6 and sol_res < 1e-8 and solver03.int_hbar > 0
    report(10, ok, f"J[nu2] residual {kres:.1e}, projected-solve residual "
                   f"{sol_res:.1e}, int hbar = {solver03.int_hbar:.4f} > 0")


@pytest.fixture(scope="module")
def reduction_states(prof03):
    settings = ReductionSettings()
    out = {}
    for n in (32, 64, 128):
        ctx = ReductionContext(prof03, n, settings)
        state = solve_gamma(prof03, n, settings, ctx)
        out[n] = (state, mass_map(prof03, n, settings, state=state, ctx=ctx))
    return out


def test_criterion_11_reduction(prof03, reduction_states):
    target = 2 * prof03.Ia * prof03.T / prof03.V
    st32, mm32 = reduction_states[32]
    st64, mm64 = reduction_states[64]
    st128, _ = reduction_states[128]
    converged = st32.converged and st64.converged and st128.converged
    ratio128 = st128.gamma * np.log(128) / target
    consts = [reduction_states[n][0].h_norm * np.log(n) for n in (32, 64, 128)]
    # ||h|| <= C / ln n is one-sided: C may not grow along the sequence
    # (at desk scale it decreases, the O(1/n) odd forcing still dominating)
    c_stable = all(b <= 1.5 * a for a, b in zip(consts, consts[1:]))
    resid_drop = (st64.residual < st32.residual
                  and st64.residual_final < st32.residual_final)
    vol_ok = abs(mm64.volume_ratio - 1.0) < 0.10
    ok = converged and abs(ratio128 - 1.0) < 0.2 and c_stable and resid_drop and vol_ok
    report(11, ok,
           f"solve_gamma converged (32/64/128), gamma ln n / (2IT/V) = {ratio128:.4f} "
           f"at n=128, C = {[round(c, 4) for c in consts]}, residual "
           f"{st32.residual:.2e} -> {st64.residual:.2e} (full-res "
           f"{st32.residual_final:.2e} -> {st64.residual_final:.2e}), |vol|/(nV) - 1 = "
           f"{mm64.volume_ratio - 1:.4f}")


def test_criterion_12_determinism(tmp_path):
    from dropcoil.cli import main

    pairs = []
    for cmd in (["ia-scan", "--a-range", "0.1:0.4:0.1"],
                ["nonlocal-check", "--a", "0.3", "--n-list", "8:16:8"],
                ["appendix"]):
        files = []
        for tag in ("one", "two"):
            out = tmp_path / f"{cmd[0]}-{tag}.csv"
            assert main(cmd + ["--out", str(out)]) == 0
            files.append(out.read_bytes())
        pairs.append(files[0] == files[1])
    ok = all(pairs)
    report(12, ok, f"byte-identical reruns for ia-scan/nonlocal-check/appendix: {pairs}")
