"""The reduction path and the appendix run on numpy alone, the CLI imports no thread
pool, and reduction passes do not fault the heap back in."""

import json
import os
import pathlib
import platform
import subprocess
import sys

import dropcoil

# Imports the package and CLI, then evaluates the equation twice on one
# perturbed field at the FAST test settings; prints the scipy modules loaded
# and the minor page faults of the second evaluation.
GUARD = """
import json, resource, sys
import numpy as np
import dropcoil, dropcoil.cli
from dropcoil.profile import solve_profile
from dropcoil.reduction import ReductionContext, ReductionSettings, evaluate_equation

FAST = ReductionSettings(kmax=4, ntheta=12, m_t=24, chart_grid=768,
                         quad_resolution=(6, 12, 14), final_quad_resolution=(6, 16, 20),
                         self_panel_q=4, self_core_q=4, self_column_q=5,
                         final_self_q=5, coulomb_t_stride=3)
prof = solve_profile(0.3)
ctx = ReductionContext(prof, 32, FAST)
h = ctx.zero_field()
h.modes[0] = 0.01 * np.cos(np.pi * ctx.solver.t / ctx.solver.tau)
h.modes[2] = 0.004
evaluate_equation(prof, 32, h, 0.39, ctx)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate_equation(prof, 32, h, 0.39, ctx)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"scipy": sorted(k for k in sys.modules if k.split(".")[0] == "scipy"),
                  "faults": faults}))
"""

# Runs the appendix through the CLI; prints the scipy modules loaded.
APPENDIX = """
import json, os, sys, tempfile
from dropcoil import cli
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["appendix", "--out", os.path.join(out, "appendix.csv")]) == 0
print(json.dumps({"scipy": sorted(k for k in sys.modules if k.split(".")[0] == "scipy")}))
"""

# Imports the CLI; prints the concurrent modules loaded (the thread pool's
# package; numpy itself loads ``threading``, so that one is not listed).
CLI_IMPORT = """
import json, sys
import dropcoil.cli
print(json.dumps({"concurrent": sorted(k for k in sys.modules
                                       if k.split(".")[0] == "concurrent")}))
"""


def _report(script):
    """The JSON report a script prints last, run in a fresh interpreter on this dropcoil."""
    src = str(pathlib.Path(dropcoil.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_thread_pool():
    # every command runs serially, so the CLI has no pool to import
    assert _report(CLI_IMPORT)["concurrent"] == []


def test_appendix_loads_no_scipy():
    assert _report(APPENDIX)["scipy"] == []


def test_reduce_path_loads_no_scipy_and_keeps_its_heap():
    report = _report(GUARD)
    assert report["scipy"] == []
    if platform.libc_ver()[0] == "glibc":
        # 6006 faults a reduce_fast pass when glibc trims the heap top after
        # each evaluation; at most 2 with the package's trim threshold
        assert report["faults"] < 600
