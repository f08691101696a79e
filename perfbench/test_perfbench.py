"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

They are not part of the Tier-1 suite (pytest's testpaths is tests/).
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

run.import_dropcoil()

import spans  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every attribute of every dropcoil module and wrapped class, by identity."""
    import dropcoil.cli

    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "dropcoil" or name.startswith("dropcoil."):
            for attr, val in vars(mod).items():
                seen[(name, attr)] = id(val)
                if isinstance(val, type) and val.__module__ == name:
                    for cattr, cval in vars(val).items():
                        seen[(name, attr, cattr)] = id(cval)
    for key, val in dropcoil.cli.COMMANDS.items():
        seen[("COMMANDS", key)] = id(val)
    return seen


def _tree():
    skip = {".git", ".perfbench_out", "__pycache__", ".pytest_cache"}
    return {str(p.relative_to(ROOT)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in ROOT.rglob("*")
            if p.is_file() and not skip.intersection(p.relative_to(ROOT).parts)}


def _run_ops(workload):
    out = []
    for label, op in workload.ops():
        fp, failures = op()
        assert failures == [], (label, failures)
        out.append(fp)
    return out


def test_fast_settings_track_tier1():
    spec = importlib.util.spec_from_file_location("tier1_reduction",
                                                  ROOT / "tests" / "test_reduction.py")
    tier1 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tier1)
    for f in fields(workloads.FAST):
        assert getattr(workloads.FAST, f.name) == getattr(tier1.FAST, f.name), f.name


def test_wrappers_restored_and_results_unchanged(tmp_path):
    import dropcoil.reduction

    ref = run.load_reference()
    desk = workloads.ReduceDesk(0, ref, tmp_path)
    tables = workloads.Tables(0, ref, tmp_path)
    desk.setup()
    tables.setup()
    before = _bindings()
    plain = _run_ops(desk) + _run_ops(tables)

    tracer = spans.Tracer("test")
    original = dropcoil.reduction.potential_perturbed
    tracer.install()
    try:
        assert dropcoil.reduction.potential_perturbed is not original
        tracer.pass_index = 0
        traced = _run_ops(desk) + _run_ops(tables)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert traced == plain

    m = spans.layer_metrics(tracer.spans, 1)
    assert set(m) == set(spans.layer_metric_units())
    # reduction looks potential_perturbed up by name: 16 x 17 points per evaluation
    assert m["reduction.evaluate_equation.calls"] == 1
    assert m["coulomb.point.calls"] == 272 + len(workloads.LOG_LAW_N) + len(workloads.ORACLE_N)
    assert m["coulomb.oracle.calls"] == len(workloads.ORACLE_N)
    assert m["cli.ia-scan.calls"] == 1 and m["cli.write.calls"] == 3
    # ia-scan grid, curvature-check, appendix's three small-a profiles
    assert m["profile.solve_profile.calls"] == 49 + 1 + 3


def test_speed_probes_restore_the_handler_and_rescale():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * speed.PERIOD_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) >= 5
    assert len(sampler.within(t0, t0 + 20 * speed.PERIOD_S)) == len(sampler.durations)
    # probes at the reference speed leave the time less the probes; at half speed, half
    assert speed.quiet_time(1.0, [speed.REF_S] * 10) == 1.0 - 10 * speed.REF_S
    assert speed.quiet_time(1.0, [2 * speed.REF_S] * 10) == (1.0 - 20 * speed.REF_S) / 2


def test_benchmark_json_lists_every_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "quiet_wall_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_run_leaves_tree_unchanged():
    before = _tree()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4
    assert set(result["metrics"]) == {"setup_s", "quiet_wall_s", "peak_rss_mb"}
    assert _tree() == before


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
