#!/usr/bin/env python3
"""Reproduce the headline tables in results/ through the dropcoil CLI.

    python scripts/reproduce_results.py           # rewrite results/
    python scripts/reproduce_results.py --check   # compare with results/

With ``--check`` the runs write into a temporary directory, and every file
they write (the reduction's trace CSV too) is compared byte for byte with
its committed copy; the script lists each file that differs, with the
largest absolute and relative change over its numbers (JSON leaves, CSV
cells), and exits 1.
"""
import argparse
import filecmp
import json
import math
import pathlib
import re
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


def _numbers(path: pathlib.Path) -> dict:
    """The numbers of a results file by position: JSON leaves by key path, else
    the comma- or space-separated cells of each line."""
    text = path.read_text()
    if path.suffix == ".json":
        out = {}

        def walk(key, v):
            if isinstance(v, dict):
                for k, x in v.items():
                    walk(key + (k,), x)
            elif isinstance(v, list):
                for i, x in enumerate(v):
                    walk(key + (i,), x)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out[key] = float(v)
        walk((), json.loads(text))
        return out
    out = {}
    for i, line in enumerate(text.splitlines()):
        for j, cell in enumerate(re.split(r"[,\s]+", line.strip())):
            try:
                out[i, j] = float(cell)
            except ValueError:
                pass
    return out


def number_shift(old: pathlib.Path, new: pathlib.Path) -> str:
    """The largest absolute and relative change between two results files' numbers."""
    a, b = _numbers(old), _numbers(new)
    if a.keys() != b.keys():
        return "its numbers do not line up with the committed copy"
    diffs = [(abs(b[k] - a[k]), abs(b[k] - a[k]) / abs(a[k]) if a[k] else math.inf)
             for k in a if b[k] != a[k]]
    if not diffs:
        return f"its {len(a)} numbers are unchanged"
    return (f"largest change {max(d[0] for d in diffs):.3g} absolute, "
            f"{max(d[1] for d in diffs):.3g} relative, in {len(diffs)} of {len(a)} numbers")


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        code = run_all(tmp)
        if code:
            return code
        differ = []
        for p in sorted(tmp.iterdir()):
            ref = RESULTS / p.name
            if not ref.is_file():
                differ.append(f"results/{p.name} is new")
            elif not filecmp.cmp(p, ref, shallow=False):
                differ.append(f"results/{p.name}: {number_shift(ref, p)}")
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write into a temporary directory and compare with results/")
    sys.exit(check() if parser.parse_args().check else run_all(RESULTS))
