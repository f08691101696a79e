"""The traced benchmark run wraps dropcoil calls by name; each name must exist."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from dropcoil.coulomb import NormalGraphBoundary
from dropcoil.reduction import ReductionContext, ReductionSettings

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _target_function(modname, path):
    owner = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        raw = getattr(owner, cls_name).__dict__.get(attr)
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(owner, path, None)


def test_benchmark_span_targets_resolve():
    spans = _perfbench_module("spans")
    for name, modname, path, factory in spans.targets():
        fn = _target_function(modname, path)
        assert inspect.isfunction(fn), f"{name}: {modname}.{path} is not a function"
        if factory is not None:
            factory(fn)  # binds the signature the span reads its arguments from


def test_benchmark_span_info_reads_a_representative_call(prof03, chart03, solver03, tmp_path):
    # each info factory reads one call made the way the workloads make it, so
    # a renamed or removed parameter fails here, not only in the traced run;
    # the solvers' calls are bound without running, with a stand-in result
    h = solver03.zero_field(kmax=2)
    h.modes[0] = 0.01
    h.modes[2] = 0.004
    bnd = NormalGraphBoundary(prof03, chart03, h)
    settings = ReductionSettings(kmax=2, ntheta=8, m_t=12, quad_resolution=(4, 8, 8),
                                 final_quad_resolution=(4, 8, 8), self_panel_q=4,
                                 self_core_q=4, self_column_q=5, final_self_q=5)
    ctx = ReductionContext(prof03, 16, settings)
    field = ctx.zero_field()
    field.modes[0] = 0.01
    y = (0.7, 0.4)
    solved = SimpleNamespace(iterations=3)
    calls = {
        "potential_perturbed": ((prof03, 8, h, y), {"chart": chart03, "error_estimate": False}),
        "potential_coil": ((prof03, 8, y), {"error_estimate": False}),
        "NormalGraphBoundary.radius": ((bnd, np.linspace(0.0, 1.0, 5), 0.2), {}),
        "evaluate_equation": ((prof03, 16, field, 0.4), {"ctx": ctx}),
        "fixed_point_solve": ((prof03, 16, settings), {"ctx": ctx}, solved),
        "solve_gamma": ((prof03, 16, settings, ctx), {}, solved),
        "write_csv": ((tmp_path / "t.csv", ["n"], [(1,)]), {}),
        "write_json": ((tmp_path / "t.json", {"n": 1}), {}),
    }
    for name, modname, path, factory in _perfbench_module("spans").targets():
        if factory is None:
            continue
        assert path in calls, f"{name}: no representative call of {modname}.{path}"
        fn = _target_function(modname, path)
        args, kwargs, *stand_in = calls[path]
        result = stand_in[0] if stand_in else fn(*args, **kwargs)
        assert factory(fn)(args, kwargs, result) is not None, f"{name}: {path}"


def test_benchmark_settings_build_contexts(prof03):
    # the benchmark's FAST settings and the desk defaults each build a
    # context, so a settings check that refuses them fails here
    fast = _perfbench_module("workloads").FAST
    for settings in (fast, ReductionSettings()):
        ctx = ReductionContext(prof03, 32, settings)
        assert ctx.settings is settings


def test_benchmark_operations_pass_their_checks(tmp_path):
    # every workload at the default seed, with the committed reference: set
    # up once, each operation run once, and none reports a failed check, so
    # an attribute the checks read that goes away fails here, not only in a
    # benchmark run
    workloads = _perfbench_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        bench = workload(workloads.DEFAULT_SEED, reference, tmp_path)
        bench.setup()
        for op, run in bench.ops():
            _, failures = run()
            assert failures == [], f"{name}.{op}: {failures}"
