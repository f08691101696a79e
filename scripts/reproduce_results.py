#!/usr/bin/env python3
"""Reproduce the headline tables in results/ through the dropcoil CLI.

    python scripts/reproduce_results.py           # rewrite results/
    python scripts/reproduce_results.py --check   # compare with results/

With ``--check`` the runs write into a temporary directory, and every file
they write (the reduction's trace CSV too) is compared byte for byte with
its committed copy; the script lists each file that differs and exits 1.
"""
import argparse
import filecmp
import pathlib
import sys
import tempfile

from dropcoil.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
# (CLI arguments, output file name); ``reduce`` also writes <name>.trace.csv
RUNS = (
    # one full reduction run (gamma solve + mass map) at a = 0.3, n = 32
    (["reduce", "--a", "0.3", "--n", "32"], "reduce_a0.3_n32.json"),
    # the stability integral over the neck parameter
    (["ia-scan", "--a-range", "0.01:0.49:0.02"], "ia_scan.csv"),
    # potential-vs-log(n) slope at a = 0.3 (compare with 2V/T)
    (["nonlocal-check", "--a", "0.3", "--n-list", "16:128:16"], "nonlocal_slopes.csv"),
    # decay of the coil-curvature expansion remainder over the block count
    (["curvature-check", "--a", "0.3", "--n-list", "8:64:8"], "curvature_check.csv"),
)


def run_all(out_dir: pathlib.Path) -> int:
    out_dir.mkdir(exist_ok=True)
    for args, name in RUNS:
        code = main(args + ["--out", str(out_dir / name)])
        if code:
            return code
    return 0


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        code = run_all(tmp)
        if code:
            return code
        differ = [p.name for p in sorted(tmp.iterdir())
                  if not (RESULTS / p.name).is_file()
                  or not filecmp.cmp(p, RESULTS / p.name, shallow=False)]
    for name in differ:
        print(f"differs: results/{name}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write into a temporary directory and compare with results/")
    sys.exit(check() if parser.parse_args().check else run_all(RESULTS))
