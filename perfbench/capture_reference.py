#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the checkout's dropcoil.

    python3 perfbench/capture_reference.py

Runs `dropcoil reduce --a 0.3 --n 32` at the shipped settings (about 80 s),
stores its solution (gamma*, h*) as the input of the reduce_desk replay, and
stores the default-seed fingerprint of every workload operation.  Run it
only when a change is meant to move the reference values, and say so.
"""

import json
import sys
import tempfile

import run


def fingerprints(workload) -> dict:
    workload.setup()
    out = {}
    for label, op in workload.ops():
        fp, failures = op()
        if failures:
            sys.exit(f"{label}: " + "; ".join(failures))
        out[label] = fp
    return out


def main() -> int:
    dropcoil = run.import_dropcoil()
    from dropcoil.cli import main as cli_main
    from workloads import DEFAULT_SEED, WORKLOADS

    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        out = f"{workdir}/reduce.json"
        if cli_main(["reduce", "--a", "0.3", "--n", "32", "--out", out]) != 0:
            sys.exit("reduce failed")
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        keys = ("gamma", "lambda", "c", "residual", "residual_final", "c_final",
                "volume_ratio", "iterations", "h")
        ref = {"dropcoil_version": dropcoil.__version__,
               "reduce_desk": {"state": {k: report[k] for k in keys}}}
        desk = fingerprints(WORKLOADS["reduce_desk"](DEFAULT_SEED, ref, workdir))
        replay = desk["desk_eval"]
        for key in ("c", "lambda", "residual", "volume_ratio"):
            if replay[key] != report[key]:
                sys.exit(f"desk replay {key} = {replay[key]!r}, reduce wrote {report[key]!r}")
        ref["reduce_desk"].update(desk)
        for name in ("reduce_fast", "tables"):
            ref[name] = fingerprints(WORKLOADS[name](DEFAULT_SEED, {}, workdir))
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
