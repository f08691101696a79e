"""The benchmark workloads: inputs made from the seed, operations, checks.

Every operation returns ``(fingerprint, failures)``.  The fingerprint holds
the numbers the operation produced; ``failures`` lists each check it missed.
With the default seed the fingerprint is compared against ``reference.json``
(captured by ``capture_reference.py``) with relative tolerances; with any
seed the checks that need no reference run as well.  dropcoil must already
be importable when this module is imported.  dropcoil functions are looked
up on their modules at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from dropcoil import cli, coulomb, profile, reduction
from dropcoil.fields import SymmetricField
from dropcoil.reduction import ReductionContext, ReductionSettings

DEFAULT_SEED = 0

# The Tier-1 reduction settings; the self-test holds this equal, field by
# field, to FAST in tests/test_reduction.py.
FAST = ReductionSettings(kmax=4, ntheta=12, m_t=24, chart_grid=768,
                         quad_resolution=(6, 12, 14),
                         final_quad_resolution=(6, 16, 20),
                         self_panel_q=4, self_core_q=4, self_column_q=5,
                         final_self_q=5, coulomb_t_stride=3)

DESK_A, DESK_N = 0.3, 32
FAST_A, FAST_N = 0.3, 32
NECK_SHIFT = 0.01              # bound of the seeded neck shift on reduce_fast
LOG_LAW_N = (16, 32, 64, 128, 256, 512, 1024)
ORACLE_N = (4, 8)
TABLES_A = 0.3


def _close(failures, label, value, ref, rtol, atol=0.0):
    if not abs(value - ref) <= atol + rtol * abs(ref):
        failures.append(f"{label} = {value!r}, reference {ref!r}")


def _read_csv(path):
    """(metadata, rows) of a dropcoil CSV: '# key value' lines, then a table."""
    meta, body = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(" ")
                meta[key] = value
            else:
                body.append(line)
    rows = list(csv.reader(body))[1:]
    return meta, rows


class ReduceDesk:
    """One perturbed equation evaluation of `reduce --a 0.3 --n 32`.

    The shipped-settings reduction makes 22 perturbed evaluations of about
    3 s each; an operation replays one of them at the reference solution
    (h*, gamma*), so a run fits in the benchmark's time and the outputs have
    exact reference values.  The seed does not change the inputs: a = 0.3,
    n = 32 is the paper's reference point.
    """

    name = "reduce_desk"

    def __init__(self, seed, reference, workdir):
        self.ref = reference[self.name]

    def setup(self):
        self.settings = ReductionSettings()
        self.prof = profile.solve_profile(DESK_A)
        self.ctx = ReductionContext(self.prof, DESK_N, self.settings)
        state = self.ref["state"]
        self.h = SymmetricField.from_dict(state["h"])
        self.gamma = state["gamma"]

    def ops(self):
        return [("desk_eval", self.desk_eval)]

    def desk_eval(self):
        ev = reduction.evaluate_equation(self.prof, DESK_N, self.h, self.gamma, ctx=self.ctx)
        vol = coulomb.coil_volume(self.prof, DESK_N, self.h, self.ctx.chart)
        fp = {"c": ev.c, "lambda": ev.d, "residual": ev.residual,
              "volume_ratio": vol / (DESK_N * self.prof.V)}
        failures = []
        ref = self.ref.get("desk_eval")
        if ref:
            _close(failures, "lambda", fp["lambda"], ref["lambda"], 1e-9)
            # at a fixed (h, gamma), c moves only with the quadrature sums
            _close(failures, "c", fp["c"], ref["c"], 0.0, 1e-9 * abs(ref["lambda"]))
            _close(failures, "residual", fp["residual"], ref["residual"], 1e-2)
            _close(failures, "volume_ratio", fp["volume_ratio"], ref["volume_ratio"], 1e-9)
        return fp, failures


class ReduceFast:
    """solve_gamma then mass_map at the Tier-1 FAST settings, a = 0.3, n = 32.

    Any seed other than the default shifts the neck by a seeded amount
    within +-NECK_SHIFT.
    """

    name = "reduce_fast"

    def __init__(self, seed, reference, workdir):
        self.a = FAST_A
        self.ref = reference.get(self.name, {}).get("cell")
        if seed != DEFAULT_SEED:
            self.a += float(np.random.default_rng(seed).uniform(-NECK_SHIFT, NECK_SHIFT))
            self.ref = None

    def setup(self):
        self.prof = profile.solve_profile(self.a)
        self.ctx = ReductionContext(self.prof, FAST_N, FAST)

    def ops(self):
        return [("cell", self.cell)]

    def cell(self):
        prof, n, ctx, ref = self.prof, FAST_N, self.ctx, self.ref
        st = reduction.solve_gamma(prof, n, FAST, ctx)
        mm = reduction.mass_map(prof, n, FAST, state=st, ctx=ctx)
        fp = {"a": prof.a, "n": n, "gamma": st.gamma, "lambda": st.lam, "c": st.c,
              "residual": st.residual, "residual_final": st.residual_final,
              "c_final": st.c_final, "volume_ratio": mm.volume_ratio,
              "converged": st.converged, "iterations": st.iterations,
              "h": tuple(float(v) for v in st.h.modes.ravel())}
        failures = []
        tol_c = FAST.tol_c_rel * abs(st.lam)
        if not st.converged:
            failures.append("last fixed-gamma solve did not converge")
        if abs(st.c) > tol_c:
            failures.append(f"|c| = {abs(st.c):.3e} > tol_c_rel |d| = {tol_c:.3e}")
        ratio = st.gamma * math.log(n) / (2.0 * prof.Ia * prof.T / prof.V)
        if abs(ratio - 1.0) >= 0.2:
            failures.append(f"gamma ln n / (2 I T / V) = {ratio:.4f} outside 1 +- 0.2")
        if abs(mm.volume_ratio - 1.0) >= 0.1:
            failures.append(f"volume ratio {mm.volume_ratio:.4f} outside 1 +- 0.1")
        if ref:
            _close(failures, "gamma", fp["gamma"], ref["gamma"], 1e-8)
            _close(failures, "lambda", fp["lambda"], ref["lambda"], 1e-8)
            _close(failures, "residual_final", fp["residual_final"], ref["residual_final"], 0.1)
            # c is driven below tol_c_rel |d|, not to a fixed value
            _close(failures, "c_final", fp["c_final"], ref["c_final"], 0.0, tol_c)
            _close(failures, "volume_ratio", fp["volume_ratio"], ref["volume_ratio"], 1e-6)
            dh = max(abs(x - y) for x, y in zip(fp["h"], ref["h"]))
            h_tol = 10.0 * FAST.tol_h * max(1.0, max(abs(y) for y in ref["h"]))
            if len(fp["h"]) != len(ref["h"]) or dh > h_tol:
                failures.append(f"h modes differ from the reference by {dh:.3e} > {h_tol:.1e}")
        return fp, failures


class Tables:
    """The paper's results outside the reduction.

    ia-scan (the criterion-6 grid), curvature-check and appendix run through
    cli.main with outputs in a scratch directory; the nonlocal log law calls
    potential_coil with error estimates at n = 16..1024 and checks it against
    the toroidal oracle at n <= 8.  The seed picks the surface point; the
    default seed uses the paper's point (pi/2, 0).
    """

    name = "tables"

    def __init__(self, seed, reference, workdir):
        self.workdir = Path(workdir)
        self.ref = reference.get(self.name, {})
        self.seeded = seed != DEFAULT_SEED
        self.u = np.random.default_rng(seed).uniform(size=2)

    def setup(self):
        self.prof = profile.solve_profile(TABLES_A)
        if self.seeded:
            self.point = (2.0 * math.pi * self.u[0], (self.u[1] - 0.5) * self.prof.T)
        else:
            self.point = (math.pi / 2.0, 0.0)

    def ops(self):
        return [("ia_scan", self.ia_scan), ("curvature_check", self.curvature_check),
                ("appendix", self.appendix), ("log_law", self.log_law)]

    def _cli(self, args, out_name):
        out = self.workdir / out_name
        code = cli.main(args + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"dropcoil {args[0]} exited with {code}")
        return _read_csv(out)

    # ia-scan, curvature-check and appendix do not depend on the seed, so
    # they are checked against the reference on every seed.

    def ia_scan(self):
        _, rows = self._cli(["ia-scan", "--a-range", "0.01:0.49:0.01"], "ia_scan.csv")
        fp = {"Ia": tuple(float(r[3]) for r in rows)}
        failures = []
        if len(rows) != 49 or min(fp["Ia"]) <= 0.0:
            failures.append(f"I_a not positive on the 49-point grid ({len(rows)} rows)")
        ref = self.ref.get("ia_scan")
        if ref:
            for a_row, v, r in zip(rows, fp["Ia"], ref["Ia"]):
                _close(failures, f"Ia(a={a_row[0]})", v, r, 1e-8)
        return fp, failures

    def curvature_check(self):
        meta, rows = self._cli(["curvature-check", "--a", str(TABLES_A)], "curvature.csv")
        errs = {int(r[0]): float(r[2]) for r in rows}
        fp = {"decay_exponent": float(meta["decay_exponent"]),
              "max_err": tuple(float(r[1]) for r in rows)}
        failures = []
        if fp["decay_exponent"] > -1.8 or errs.get(32, 1.0) >= 0.05:
            failures.append(f"curvature remainder decay {fp['decay_exponent']:.3f}, "
                            f"Phi error at n=32 {errs.get(32)}")
        ref = self.ref.get("curvature_check")
        if ref:
            _close(failures, "decay_exponent", fp["decay_exponent"], ref["decay_exponent"], 1e-6)
        return fp, failures

    def appendix(self):
        meta, rows = self._cli(["appendix"], "appendix.csv")
        fp = {"ia_slope": float(meta["ia_slope"]),
              "moments": tuple(float(r[1]) for r in rows)}
        failures = []
        moment_err = max(abs(float(r[1]) - float(r[2])) for r in rows[:-1])
        grand = float(rows[-1][1])
        if moment_err >= 1e-10 or abs(grand - 2.0) >= 1e-8 or not 1.9 <= fp["ia_slope"] <= 2.1:
            failures.append(f"appendix: moment err {moment_err:.1e}, grand {grand!r}, "
                            f"I_a slope {fp['ia_slope']:.4f}")
        ref = self.ref.get("appendix")
        if ref:
            _close(failures, "ia_slope", fp["ia_slope"], ref["ia_slope"], 1e-6)
        return fp, failures

    def log_law(self):
        prof, y = self.prof, self.point
        values = [coulomb.potential_coil(prof, n, y).value for n in LOG_LAW_N]
        slope = float(np.polyfit(np.log(LOG_LAW_N), values, 1)[0])
        target = 2.0 * prof.V / prof.T
        oracle = []
        for n in ORACLE_N:
            ref_val = coulomb.toroidal_potential_reference(prof, n, y)
            oracle.append(abs(coulomb.potential_coil(prof, n, y).value - ref_val) / abs(ref_val))
        fp = {"point": y, "values": tuple(values), "slope": slope,
              "slope_rel_err": abs(slope / target - 1.0), "oracle_rel": tuple(oracle)}
        failures = []
        if max(oracle) >= 0.01:
            failures.append(f"block quadrature vs toroidal oracle {max(oracle):.2e} >= 1%")
        if fp["slope_rel_err"] >= 0.05:  # the criterion-9 band
            failures.append(f"log-law slope off 2V/T by {fp['slope_rel_err']:.3f}")
        ref = self.ref.get("log_law") if not self.seeded else None
        if ref:
            for n, v, r in zip(LOG_LAW_N, values, ref["values"]):
                _close(failures, f"potential(n={n})", v, r, 1e-8)
            _close(failures, "slope", slope, ref["slope"], 1e-6)
            for n, v, r in zip(ORACLE_N, oracle, ref["oracle_rel"]):
                _close(failures, f"oracle agreement(n={n})", v, r, 1e-3)
        return fp, failures


WORKLOADS = {w.name: w for w in (ReduceDesk, ReduceFast, Tables)}
