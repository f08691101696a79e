"""In-memory span recorder attached to dropcoil's public calls from outside.

Each traced call records one span: its name, start, end, parent span and the
pass it ran in; all spans of a run share the tracer's run id.  Spans stay in
memory until ``write_csv`` at the end of the run.

dropcoil modules import each other's functions by name (``reduction`` calls
its own ``potential_perturbed`` binding, ``cli`` keeps its commands in the
``COMMANDS`` dict), so ``install`` replaces every binding of a wrapped
function in every loaded ``dropcoil`` module, and ``uninstall`` puts each
original back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time

# The subcommands the ``tables`` workload runs through ``cli.main``.
CLI_COMMANDS = ("ia-scan", "curvature-check", "appendix")

# Metrics computed from the spans beyond <layer>.calls/.s/.self_s: name -> unit.
DERIVED = {
    "coulomb.point.p50_ms": "ms",
    "coulomb.point.tail_ms": "ms",
    "coulomb.radius.points": "count",
    "coulomb.unique_point_frac": "ratio",
    "coulomb.point_fixed_ms": "ms",
    "coulomb.point_per_block_us": "us",
    "coulomb.regular_nodes": "count",
    "reduction.eval_perturbed_ms": "ms",
    "reduction.eval_plain_ms": "ms",
    "reduction.eval_final_ms": "ms",
    "reduction.picard_steps": "count",
    "reduction.useful_step_frac": "ratio",
    "cli.write.bytes": "bytes",
    "trace.spans": "count",
}


def layer_metric_units() -> dict:
    """Every per-layer metric the spans give, name -> unit."""
    units = {}
    for layer in dict.fromkeys(t[0] for t in targets()):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


# ---- what each span records beyond its timing -----------------------------

def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _point_info(fn):
    """(point key, n, regular-block nodes, axisymmetric?) of a potential call.

    The key identifies the surface point modulo theta -> pi - theta, the
    symmetry every admissible field has.
    """
    from dropcoil.coulomb import DEFAULT_RESOLUTION

    bind = _bound(fn)
    axisym = fn.__name__ == "potential_coil"

    def info(args, kwargs, result):
        a = bind(args, kwargs)
        n = int(a["n"])
        theta, y3 = float(a["y"][0]), float(a["y"][1])
        th = theta % (2.0 * math.pi)
        th = min(th, (math.pi - th) % (2.0 * math.pi))
        key = (n, round(th, 9), round(y3, 9))
        quad = a["quad"]
        _, n_phi, n_z = quad.resolution if quad is not None else DEFAULT_RESOLUTION
        nodes = (n - 1) * n_phi * n_z
        if a["error_estimate"]:
            nodes += (n - 1) * int(n_phi * 1.5) * int(n_z * 1.5)
        return key, n, nodes, axisym
    return info


def _eval_kind(fn):
    import numpy as np

    bind = _bound(fn)

    def info(args, kwargs, result):
        a = bind(args, kwargs)
        if a["final"]:
            return "final"
        h = a["h"]
        plain = a["gamma"] == 0.0 or h is None or not np.any(h.modes)
        return "plain" if plain else "perturbed"
    return info


def _radius_points(fn):
    import numpy as np

    return lambda args, kwargs, result: int(np.broadcast(args[1], args[2]).size)


def _iterations(fn):
    return lambda args, kwargs, result: int(result.iterations)


def _file_bytes(fn):
    return lambda args, kwargs, result: os.path.getsize(args[0])


def targets():
    """(span name, module, attribute path, info factory) of every wrapped call."""
    t = [
        ("profile.solve_profile", "dropcoil.profile", "solve_profile", None),
        ("profile.build_chart", "dropcoil.profile", "build_chart", None),
        ("profile.evaluate", "dropcoil.profile", "DelaunayProfile.evaluate", None),
        ("geometry.build_coil", "dropcoil.geometry", "build_coil", None),
        ("geometry.evaluate_forms", "dropcoil.geometry", "evaluate_forms", None),
        ("geometry.curvature_expansion_check", "dropcoil.geometry",
         "curvature_expansion_check", None),
        ("fields.from_samples", "dropcoil.fields", "SymmetricField.from_samples", None),
        ("fields.cos_eval", "dropcoil.fields", "cos_eval", None),
        ("fields.on_axis_derivatives", "dropcoil.fields", "on_axis_derivatives", None),
        ("jacobi.build", "dropcoil.jacobi", "JacobiSolver.__init__", None),
        ("jacobi.solve_projected", "dropcoil.jacobi", "JacobiSolver.solve_projected", None),
        ("jacobi.project_coeffs", "dropcoil.jacobi", "JacobiSolver.project_coeffs", None),
        ("coulomb.point", "dropcoil.coulomb", "potential_perturbed", _point_info),
        ("coulomb.point", "dropcoil.coulomb", "potential_coil", _point_info),
        ("coulomb.radius", "dropcoil.coulomb", "NormalGraphBoundary.radius", _radius_points),
        ("coulomb.boundary_build", "dropcoil.coulomb", "NormalGraphBoundary.__init__", None),
        ("coulomb.coil_volume", "dropcoil.coulomb", "coil_volume", None),
        ("coulomb.oracle", "dropcoil.coulomb", "toroidal_potential_reference", None),
        ("reduction.evaluate_equation", "dropcoil.reduction", "evaluate_equation", _eval_kind),
        ("reduction.fixed_point_solve", "dropcoil.reduction", "fixed_point_solve", _iterations),
        ("reduction.solve_gamma", "dropcoil.reduction", "solve_gamma", _iterations),
        ("reduction.mass_map", "dropcoil.reduction", "mass_map", None),
        ("asymptotics.sech_moments", "dropcoil.asymptotics", "sech_moments", None),
        ("asymptotics.ia_slope_check", "dropcoil.asymptotics", "ia_slope_check", None),
        ("cli.write", "dropcoil.serialize", "write_csv", _file_bytes),
        ("cli.write", "dropcoil.serialize", "write_json", _file_bytes),
    ]
    t += [(f"cli.{c}", "dropcoil.cli", f"cmd_{c.replace('-', '_')}", None)
          for c in CLI_COMMANDS]
    return t


# ---- recorder ---------------------------------------------------------------

class Tracer:
    """Records spans; ``install``/``uninstall`` attach and detach the wrappers.

    A span is (name, start, end, parent index, pass index, nested, info);
    ``nested`` marks a call made inside a span of the same name (potential_coil
    under potential_perturbed), which is not counted again.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.pass_index = -1  # -1 is set-up
        self._stack = []
        self._depth = {}
        self._patches = []

    def _wrap(self, name, fn, info):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth.get(name, 0) > 0
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                extra = info(args, kwargs, result) if ok and info is not None else None
                spans[idx] = (name, start, end, parent, tracer.pass_index, nested, extra)
        return traced

    def install(self):
        """Wrap every target wherever dropcoil binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dropcoil" or n.startswith("dropcoil."))]
        for name, modname, path, factory in targets():
            owner = importlib.import_module(modname)
            if "." in path:  # method or classmethod on a class of that module
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn, factory(fn) if factory else None)
                setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._patches.append((cls, attr, raw))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(name, fn, factory(fn) if factory else None)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, fn))
                    elif isinstance(val, dict):  # cli.COMMANDS
                        for key, entry in list(val.items()):
                            if entry is fn:
                                val[key] = wrapped
                                self._patches.append((val, key, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["run_id", "span", "parent", "pass", "name", "start", "end"])
            for i, (name, start, end, parent, pas, _, _) in enumerate(self.spans):
                out.writerow([self.run_id, i, parent, pas, name, repr(start), repr(end)])


# ---- per-layer figures --------------------------------------------------------

def _tail(durations):
    """The highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it.

    Which one it is follows from the sample count, coulomb.point.calls.
    """
    n = len(durations)
    pct = max(p for p in (50.0, 90.0, 95.0, 99.0, 99.9) if p == 50.0 or n * (1 - p / 100) >= 10)
    return sorted(durations)[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]


def layer_metrics(spans, traced_passes: int) -> dict:
    """Per-layer figures for set-up plus one pass.

    Set-up spans (pass -1) count once; spans of the traced passes are
    averaged over ``traced_passes``.  Counts repeat exactly from run to run.
    """
    scale = [1.0 if s[4] < 0 else 1.0 / traced_passes for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = {k: 0.0 for k in layer_metric_units()}
    for i, (name, start, end, parent, pas, nested, info) in enumerate(spans):
        out[f"{name}.self_s"] += scale[i] * (end - start - child_time[i])
        if not nested:
            out[f"{name}.calls"] += scale[i]
            out[f"{name}.s"] += scale[i] * (end - start)

    # spans of calls that raised carry no info and only count as time
    points = [(i, s) for i, s in enumerate(spans)
              if s[0] == "coulomb.point" and not s[5] and s[6] is not None]
    durs_ms = [1e3 * (s[2] - s[1]) for _, s in points]
    if durs_ms:
        out["coulomb.point.p50_ms"] = statistics.median(durs_ms)
        out["coulomb.point.tail_ms"] = _tail(durs_ms)
    out["coulomb.regular_nodes"] = sum(scale[i] * s[6][2] for i, s in points)

    # distinct points per equation evaluation (or per pass outside one)
    evals = {i for i, s in enumerate(spans) if s[0] == "reduction.evaluate_equation"}
    groups = {}
    for i, s in points:
        p = s[3]
        while p >= 0 and p not in evals:
            p = spans[p][3]
        groups.setdefault((s[4], p), set()).add(s[6][0])
    if points:
        out["coulomb.unique_point_frac"] = sum(len(g) for g in groups.values()) / len(points)

    # potential_coil time against the number of regular blocks
    fit = [(s[6][1] - 1, d) for (_, s), d in zip(points, durs_ms) if s[6][3]]
    if len({k for k, _ in fit}) >= 2:
        import numpy as np

        slope, intercept = np.polyfit([k for k, _ in fit], [d for _, d in fit], 1)
        out["coulomb.point_fixed_ms"] = float(intercept)
        out["coulomb.point_per_block_us"] = 1e3 * float(slope)

    for i, s in enumerate(spans):
        if s[6] is None:
            continue
        if s[0] == "coulomb.radius" and not s[5]:
            out["coulomb.radius.points"] += scale[i] * s[6]
        elif s[0] == "cli.write":
            out["cli.write.bytes"] += scale[i] * s[6]
        elif s[0] == "reduction.fixed_point_solve":
            out["reduction.picard_steps"] += scale[i] * s[6]

    by_kind = {}
    for s in spans:
        if s[0] == "reduction.evaluate_equation" and s[6] is not None:
            by_kind.setdefault(s[6], []).append(1e3 * (s[2] - s[1]))
    for kind in ("perturbed", "plain", "final"):
        if kind in by_kind:
            out[f"reduction.eval_{kind}_ms"] = statistics.median(by_kind[kind])

    returned = sum(s[6] for s in spans if s[0] == "reduction.solve_gamma" and s[6] is not None)
    steps = sum(s[6] for s in spans if s[0] == "reduction.fixed_point_solve" and s[6] is not None)
    if steps:
        out["reduction.useful_step_frac"] = returned / steps
    out["trace.spans"] = sum(scale)
    return out
