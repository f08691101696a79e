#!/usr/bin/env python3
"""dropcoil benchmark.

    python3 perfbench/run.py --workload reduce_desk --seed 0 --seconds 20 --trace 0

Runs one workload from a checkout of the repository, importing dropcoil
from its ``src/``.  It repeats passes over the workload's operations while
the next pass, at the median pass time so far, ends within ``--seconds``
(at least one pass), and prints as its last stdout line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:
  setup_s       median over five fresh processes of the time from process
                start to the first timed operation (imports, profile, chart,
                reduction context), rescaled to an uncontended core
  quiet_wall_s  median wall time of one pass over the workload's
                operations, rescaled to an uncontended core
  peak_rss_mb   peak resident memory of this process

Both times are rescaled by host-speed probes that run during the timing
(speed.py), so that they do not swing with the load other tenants put on a
shared host; the raw pass and set-up times go to stderr.

``--trace 1`` reports the per-layer metrics from spans recorded around the
calls into each dropcoil module (see spans.py), for set-up plus one pass.
Passes alternate untraced and traced; ``trace.overhead_frac`` compares them.

An operation fails when it raises or misses a check of its outputs
(workloads.py); failures are counted, not fatal.  Everything the run writes
goes under ``.perfbench_out/`` in the checkout.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads, in this process and in
# the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (numpy loads here, after the pins)

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("reduce_desk", "reduce_fast", "tables")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Per-layer metrics the workloads report beyond the spans: name -> unit.
CHECK_METRICS = {
    "check.failed_frac": "ratio",
    "check.residual": "1",
    "check.slope_rel_err": "1",
    "trace.overhead_frac": "ratio",
    "host.wall_s": "s",
    "host.slowdown": "ratio",
}


def import_dropcoil():
    """Import dropcoil from this checkout's src/, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "dropcoil" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dropcoil sources under {src}")
    sys.path.insert(0, str(src))
    import dropcoil

    if Path(dropcoil.__file__).resolve().parent != (src / "dropcoil").resolve():
        sys.exit(f"perfbench: imported dropcoil from {dropcoil.__file__}, not {src}")
    return dropcoil


def per_layer_units() -> dict:
    from spans import layer_metric_units

    return {**layer_metric_units(), **CHECK_METRICS}


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(cfg):
        try:
            return cfg["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version(numpy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name, seed, workdir):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, load_reference(), workdir)


def probe_setup(args):
    """Child process: set up the workload; print the time since the parent's
    stamp and the durations of the speed probes that ran meanwhile."""
    with speed.Sampler() as sampler, tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        import_dropcoil()
        make_workload(args.workload, args.seed, workdir).setup()
        elapsed = time.monotonic() - args.setup_probe
    print(json.dumps({"elapsed": elapsed, "probes": sampler.durations}), flush=True)


def measure_setup(args) -> list:
    """Set-up times of fresh processes, from their start, with their probes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.monotonic())]
        # CLOCK_MONOTONIC is shared by all processes of the machine
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs passes over a workload's operations and checks their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = {}   # op label -> fingerprint of its first run
        self.fingerprints = []

    def run_pass(self) -> tuple:
        """Run every operation once; return the pass's start and duration."""
        start = time.perf_counter()
        for label, op in self.workload.ops():
            self.attempted += 1
            try:
                fp, failures = op()
            except Exception:  # an operation's failure is counted, and the run goes on
                self.failed += 1
                sys.stderr.write(f"{label}: raised\n{traceback.format_exc()}")
                continue
            # every pass, traced or not, must reproduce the first one exactly
            if self.first.setdefault(label, fp) != fp:
                failures = failures + ["result differs from the first pass of this run"]
            if failures:
                self.failed += 1
                sys.stderr.write(f"{label}: " + "; ".join(failures) + "\n")
            self.fingerprints.append(fp)
        return start, time.perf_counter() - start

    def check_figures(self) -> dict:
        residuals = [fp.get("residual_final", fp.get("residual")) for fp in self.fingerprints]
        residuals = [r for r in residuals if r is not None]
        slopes = [fp["slope_rel_err"] for fp in self.fingerprints if "slope_rel_err" in fp]
        return {"check.failed_frac": self.failed / self.attempted,
                "check.residual": max(residuals, default=0.0),
                "check.slope_rel_err": max(slopes, default=0.0)}


def fits(start, step_s, seconds) -> bool:
    """Whether one more step of ``step_s`` ends within ``seconds`` of ``start``."""
    return time.perf_counter() - start + step_s <= seconds


def timed_passes(runner, sampler, seconds) -> list:
    """(start, duration) of passes while the next one ends within ``seconds``;
    the probes of ``sampler`` run during each pass."""
    start = time.perf_counter()
    passes = []
    while not passes or fits(start, statistics.median(d for _, d in passes), seconds):
        with sampler:
            passes.append(runner.run_pass())
    return passes


def quiet_passes(passes, sampler) -> list:
    """Each pass's duration rescaled to an uncontended core."""
    return [speed.quiet_time(d, sampler.within(t0, t0 + d)) for t0, d in passes]


def run_untraced(args, workdir):
    setups = measure_setup(args)
    workload = make_workload(args.workload, args.seed, workdir)
    workload.setup()
    runner = Runner(workload)
    sampler = speed.Sampler()
    passes = timed_passes(runner, sampler, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux

    quiet = quiet_passes(passes, sampler)
    quiet_setups = [speed.quiet_time(s["elapsed"], s["probes"]) for s in setups]
    probe_ms = sorted(d * 1e3 for d in sampler.durations)
    sys.stderr.write(f"pass times (s): raw {[d for _, d in passes]}, quiet {quiet}\n"
                     f"set-up times (s): raw {[s['elapsed'] for s in setups]}, "
                     f"quiet {quiet_setups}\n"
                     f"probe kernel (ms): fastest {probe_ms[0]:.4f}, "
                     f"median {statistics.median(probe_ms):.4f} of {len(probe_ms)}; "
                     f"reference {speed.REF_S * 1e3:.4f}\n")
    metrics = {
        "setup_s": {"value": statistics.median(quiet_setups), "unit": "s"},
        "quiet_wall_s": {"value": statistics.median(quiet), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }
    return runner, metrics


def run_traced(args, workdir):
    from spans import Tracer, layer_metrics

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    workload = make_workload(args.workload, args.seed, workdir)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    runner = Runner(workload)
    sampler = speed.Sampler()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or fits(start, statistics.median(d for _, d in plain)
                             + statistics.median(d for _, d in traced), args.seconds):
        with sampler:
            plain.append(runner.run_pass())
        tracer.pass_index = len(traced)
        tracer.install()
        try:
            with sampler:
                traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
    tracer.write_csv(OUT_DIR / f"spans-{run_id}.csv")
    sys.stderr.write(f"pass times (s): untraced {[d for _, d in plain]}, "
                     f"traced {[d for _, d in traced]}\n")
    values = layer_metrics(tracer.spans, len(traced))
    values.update(runner.check_figures())
    quiet = quiet_passes(plain, sampler)
    quiet_traced = quiet_passes(traced, sampler)
    values["trace.overhead_frac"] = statistics.median(quiet_traced) / statistics.median(quiet) - 1.0
    values["host.wall_s"] = statistics.median(d for _, d in plain)
    values["host.slowdown"] = statistics.median(d / q for (_, d), q in zip(plain, quiet))
    units = per_layer_units()
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe is not None:
        probe_setup(args)
        return 0

    import_dropcoil()
    OUT_DIR.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        run = run_traced if args.trace else run_untraced
        runner, metrics = run(args, workdir)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
