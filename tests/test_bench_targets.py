"""The traced benchmark run wraps dropcoil calls by name; each name must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from dropcoil.coulomb import NormalGraphBoundary
from dropcoil.reduction import ReductionContext, ReductionSettings

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
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
    spans = _spans_module()
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
    for name, modname, path, factory in _spans_module().targets():
        if factory is None:
            continue
        assert path in calls, f"{name}: no representative call of {modname}.{path}"
        fn = _target_function(modname, path)
        args, kwargs, *stand_in = calls[path]
        result = stand_in[0] if stand_in else fn(*args, **kwargs)
        assert factory(fn)(args, kwargs, result) is not None, f"{name}: {path}"
