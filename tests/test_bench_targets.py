"""The traced benchmark run wraps dropcoil calls by name; each name must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_span_targets_resolve():
    spans = _spans_module()
    for name, modname, path, factory in spans.targets():
        owner = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            raw = getattr(owner, cls_name).__dict__.get(attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
        else:
            fn = getattr(owner, path, None)
        assert inspect.isfunction(fn), f"{name}: {modname}.{path} is not a function"
        if factory is not None:
            factory(fn)  # binds the signature the span reads its arguments from
