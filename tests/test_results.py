"""The committed tables in results/ rerun byte-identically from the CLI."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_results_check():
    # every file the four CLI runs write matches its committed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_results.py"),
                           "--check"], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_number_shift_reports_largest_change(tmp_path):
    # JSON leaves by key path and CSV cells by position, comment lines too
    spec = importlib.util.spec_from_file_location("reproduce_results",
                                                  ROOT / "scripts" / "reproduce_results.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"a": 2.0, "b": [1.0, 4.0], "c": "x", "d": {"e": 0.5}}))
    new.write_text(json.dumps({"a": 2.0, "b": [1.0, 4.0001], "c": "y", "d": {"e": 0.50001}}))
    assert mod.number_shift(old, new) == ("largest change 0.0001 absolute, "
                                          "2.5e-05 relative, in 2 of 4 numbers")
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("# slope 2.0\nn,v\n16,3.0\n32,-1.0\n")
    new.write_text("# slope 2.5\nn,v\n16,3.0\n32,-1.0\n")
    assert mod.number_shift(old, new) == ("largest change 0.5 absolute, "
                                          "0.25 relative, in 1 of 5 numbers")
    new.write_text("# slope 2.0\nn,v\n16,3.0\n")
    assert mod.number_shift(old, new) == "its numbers do not line up with the committed copy"
    assert mod.number_shift(old, old) == "its 5 numbers are unchanged"
