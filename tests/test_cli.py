import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from dropcoil.cli import (MAX_RANGE_POINTS, RunConfig, build_parser, main, parse_grid,
                          parse_n_list, parse_range)
from dropcoil.errors import BracketFailure, DomainError


def test_parse_range():
    assert parse_range("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_range("0.25") == [0.25]
    with pytest.raises(DomainError):
        parse_range("1:2")
    with pytest.raises(DomainError):
        parse_range("1:2:-1")
    assert parse_range("0.3:0.29:0.1") == [0.3]  # the stop is within half a step
    with pytest.raises(DomainError, match="is empty"):
        parse_range("0.3:0.1:0.01")
    assert len(parse_range(f"1:{MAX_RANGE_POINTS}:1")) == MAX_RANGE_POINTS
    with pytest.raises(DomainError, match=f"has {MAX_RANGE_POINTS + 1} points, more than"):
        parse_range(f"1:{MAX_RANGE_POINTS + 1}:1")
    for text in ("inf", "nan", "0.1:inf:0.1", "0.1:0.2:inf", "-inf:0.2:0.1"):
        with pytest.raises(DomainError, match="has a part that is not finite"):
            parse_range(text)
    with pytest.raises(DomainError, match="has inf points"):  # (stop - start) / step overflows
        parse_range("-1e308:1e308:1e-10")
    assert parse_n_list("8:64:8") == list(range(8, 65, 8))
    with pytest.raises(DomainError, match="n = 8.5 is not an integer"):
        parse_n_list("8:12:0.5")
    assert parse_grid("16x32") == (16, 32)
    with pytest.raises(DomainError):
        parse_grid("16-32")


def test_config_roundtrip():
    cfg = RunConfig(command="ia-scan", a=0.2, a_range="0.1:0.2:0.05", n=8,
                    m=12.5, grid="16x32", out="x.csv")
    again = RunConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_dry_run(capsys):
    assert main(["ia-scan", "--a-range", "0.1:0.2:0.1", "--dry-run"]) == 0
    out = capsys.readouterr().out
    cfg = json.loads(out)
    assert cfg["command"] == "ia-scan" and cfg["a_range"] == "0.1:0.2:0.1"


def test_seed_is_rejected(tmp_path, capsys):
    # no command draws random numbers, so a seed would be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(["ia-scan", "--a-range", "0.1:0.2:0.1", "--seed", "3",
              "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"a_range": "0.1:0.2:0.1", "seed": 3}))
    assert main(["ia-scan", "--config", str(cfgfile), "--out", str(tmp_path / "o.csv")]) == 2
    assert "unknown config keys: seed" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_threads_is_refused(tmp_path, capsys):
    # every command runs serially, so a worker count would be accepted and ignored
    out = tmp_path / "scan.csv"
    with pytest.raises(SystemExit) as exc:
        main(["ia-scan", "--a-range", "0.1:0.2:0.1", "--threads", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"a_range": "0.1:0.2:0.1", "threads": 2}))
    assert main(["ia-scan", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "unknown config keys: threads" in capsys.readouterr().err
    assert not out.exists()


def test_parser_reused_after_refusals(tmp_path, capsys):
    # main builds its parser once a process; a refused call leaves nothing
    # behind for the next one
    assert build_parser() is build_parser()
    args = ["ia-scan", "--a-range", "0.1:0.2:0.1"]
    assert main(args + ["--out", str(tmp_path / "first.csv")]) == 0
    assert main(args + ["--dry-run"]) == 0
    dry = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", "3", "--threads", "2", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert main(["reduce", "--grid", "16x32", "--a", "0.2", "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()
    assert main(args + ["--dry-run"]) == 0
    assert capsys.readouterr().out == dry
    assert main(args + ["--out", str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    assert not (tmp_path / "o.csv").exists()


def test_missing_out_is_usage_error():
    assert main(["ia-scan", "--a-range", "0.1:0.2:0.1"]) == 2


def test_validation_error_exit_code(tmp_path):
    assert main(["profile", "--a", "0.7", "--out", str(tmp_path / "p.json")]) == 2


def test_ia_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["ia-scan", "--a-range", "0.05:0.45:0.05",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# dropcoil")
    assert lines[1].startswith("# config-hash")
    header = lines[2].split(",")
    assert header == ["a", "T", "V", "Ia"]
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 9
    assert all(float(r[3]) > 0 for r in rows)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["ia-scan", "--a-range", "0.1:0.3:0.1", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_profile_json(tmp_path):
    out = tmp_path / "prof.json"
    assert main(["profile", "--a", "0.25", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["profile"]["a"] == 0.25
    assert doc["chart"]["tau"] > 0
    assert "config_hash" in doc
    # the cylinder takes the roulette path and meets its closed forms exactly
    assert main(["profile", "--a", "0.5", "--out", str(out)]) == 0
    prof = json.loads(out.read_text())["profile"]
    assert (prof["T"], prof["V"], prof["Ia"]) == (np.pi, np.pi**2 / 4, np.pi / 4)


def test_coil_mesh_cli(tmp_path):
    out = tmp_path / "coil.obj"
    assert main(["coil-mesh", "--a", "0.3", "--n", "8", "--grid", "16x64",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\nv ") + text.startswith("v ") == 16 * 64
    assert "f " in text


def test_curvature_check_cli(tmp_path):
    out = tmp_path / "curv.csv"
    assert main(["curvature-check", "--a", "0.3", "--n-list", "8:32:8",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "# decay_exponent" in text
    exponent = float([l for l in text.splitlines()
                      if l.startswith("# decay_exponent")][0].split()[-1])
    assert exponent <= -1.8


def test_appendix_cli(tmp_path):
    out = tmp_path / "appendix.csv"
    assert main(["appendix", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    body = [l.split(",") for l in text if l and not l.startswith("#")][1:]
    table = {row[0]: (float(row[1]), float(row[2])) for row in body}
    for key, (val, exact) in table.items():
        if key != "grand_combination":
            assert abs(val - exact) < 1e-10
    assert abs(table["grand_combination"][0] - 2.0) < 1e-8
    slope = float([l for l in text if l.startswith("# ia_slope ")][0].split()[-1])
    assert 1.9 <= slope <= 2.1


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"a_range": "0.1:0.2:0.1"}))
    out = tmp_path / "o.csv"
    assert main(["ia-scan", "--config", str(cfgfile), "--a-range", "0.2:0.3:0.1",
                 "--out", str(out)]) == 0
    first = out.read_text().splitlines()[3]
    assert float(first.split(",")[0]) == pytest.approx(0.2)


def _fast_reduce(monkeypatch, **changes):
    """Run `reduce` on the Tier-1 FAST settings, with ``changes`` applied."""
    import dropcoil.reduction as reduction
    from dropcoil.reduction import ReductionSettings

    fast = ReductionSettings(kmax=4, ntheta=12, m_t=24, chart_grid=768,
                             quad_resolution=(6, 12, 14),
                             final_quad_resolution=(6, 16, 20),
                             self_panel_q=4, self_core_q=4, self_column_q=5,
                             final_self_q=5, coulomb_t_stride=3, **changes)
    monkeypatch.setattr(reduction, "ReductionSettings", lambda: fast)


def test_reduce_cli_schema(tmp_path, monkeypatch):
    _fast_reduce(monkeypatch)
    out = tmp_path / "run.json"
    assert main(["reduce", "--a", "0.3", "--n", "16", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key in ("gamma", "lambda", "c", "residual", "h_norm", "m",
                "iterations", "volume", "volume_ratio", "lambda_convention"):
        assert key in doc
    assert doc["converged"] is True
    assert abs(doc["c"]) < 1e-6 * abs(doc["lambda"])
    trace = (tmp_path / "run.json.trace.csv").read_text().splitlines()
    assert trace[2].split(",")[0] == "iter"
    # one row a Picard step, each with the gamma it used
    assert trace[2].split(",")[:2] == ["iter", "gamma"]
    assert len({line.split(",")[1] for line in trace[3:]}) >= 2
    assert len(trace) - 3 == doc["iterations"]
    # one Coulomb integration at h = 0, one after each Picard step, one final
    assert doc["coulomb_integrations"] == len(trace) - 3 + 2
    # each row names the rule of the samples its step used: the coarse tier
    # first, the loop rule for the steps that stop the solve
    rules = [line.split(",")[-1] for line in trace[3:]]
    assert trace[2].split(",")[-1] == "rule"
    assert rules[0] == "coarse" and rules[-1] == "loop"
    assert rules == sorted(rules)  # the updates fall: no coarse step after a loop step


def _fake_find_neck(m, n, settings=None, **kw):
    """The accepted neck's MassMap, as find_neck_for_mass returns it."""
    from dropcoil.reduction import MassMap

    return MassMap(a=0.31, n=n, gamma=0.4, volume=100.0, m=40.0, volume_ratio=1.01)


def test_mass_map_cli_layer(tmp_path, monkeypatch):
    # exercise the command plumbing with the expensive solves stubbed out
    import dropcoil.cli as cli
    import dropcoil.reduction as reduction

    monkeypatch.setattr(reduction, "find_neck_for_mass", _fake_find_neck)
    out = tmp_path / "mass.json"
    assert main(["mass-map", "--m", "40", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["b"] == 0.31 and doc["n"] >= 4 and doc["m_target"] == 40
    assert (doc["m"], doc["gamma"], doc["volume"], doc["volume_ratio"]) == (40.0, 0.4, 100.0, 1.01)


def test_mass_map_solves_final_neck_once(tmp_path, monkeypatch):
    # the report comes from the neck search's own MassMap: a second solve of
    # the accepted neck would reach one of these stubs and fail the command
    import dropcoil.reduction as reduction

    def second_solve(*args, **kw):
        raise AssertionError("mass-map solved the accepted neck again")

    monkeypatch.setattr(reduction, "find_neck_for_mass", _fake_find_neck)
    monkeypatch.setattr(reduction, "mass_map", second_solve)
    monkeypatch.setattr(reduction, "solve_gamma", second_solve)
    out = tmp_path / "mass.json"
    assert main(["mass-map", "--m", "40", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["b"] == 0.31


@pytest.mark.parametrize("n", [[], ["--n", "64"]])
@pytest.mark.parametrize("m", ["inf", "nan", "-5", "0"])
def test_mass_that_is_not_finite_and_positive_is_refused(tmp_path, monkeypatch, capsys, n, m):
    # refused up front, by the block-count heuristic at the default n and by
    # the neck search at a given n, before any mass map is solved
    import dropcoil.reduction as reduction

    def solve(*args, **kw):
        raise AssertionError("mass-map solved with a refused mass")

    monkeypatch.setattr(reduction, "mass_map", solve)
    monkeypatch.setattr(reduction, "solve_gamma", solve)
    out = tmp_path / "mass.json"
    assert main(["mass-map", "--m", m, *n, "--out", str(out)]) == 2
    assert f"mass {float(m)} is not finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_tol_is_rejected(tmp_path, capsys):
    # the profile and chart are closed forms with no solver tolerance, so a
    # --tol would be accepted and ignored
    out = tmp_path / "mass.json"
    with pytest.raises(SystemExit) as exc:
        main(["mass-map", "--m", "40", "--tol", "1e-9", "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"a_range": "0.1:0.2:0.1", "tol": 1e-9}))
    assert main(["ia-scan", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "unknown config keys: tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name, value", [
    ("profile", "n", 8),
    ("ia-scan", "n_list", "8:16:8"),
    ("coil-mesh", "m", 12.0),
    ("curvature-check", "grid", "8x8"),
    ("nonlocal-check", "n", 16),
    ("reduce", "grid", "8x8"),
    ("mass-map", "a_range", "0.1:0.2:0.1"),
    ("appendix", "a", 0.2),
])
def test_unread_field_rejected(tmp_path, capsys, command, name, value):
    # a field the command does not read is refused, from a flag or from
    # --config, before anything runs; its default value is accepted
    flag = "--" + name.replace("_", "-")
    out = tmp_path / "o.json"
    assert main([command, flag, str(value), "--out", str(out)]) == 2
    assert f"{flag} {value}: {command} does not read it" in capsys.readouterr().err
    assert not out.exists()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({name: value}))
    assert main([command, "--config", str(cfgfile), "--dry-run"]) == 2
    assert f"{command} does not read it" in capsys.readouterr().err
    cfgfile.write_text(json.dumps({name: getattr(RunConfig(command=command), name)}))
    assert main([command, "--config", str(cfgfile), "--dry-run"]) == 0


def test_reduce_unconverged_exits_3(tmp_path, monkeypatch, capsys):
    # a solve that runs out of steps writes its outputs, marked unconverged,
    # then exits 3 as a numerical failure
    _fast_reduce(monkeypatch, max_iter=2)
    out = tmp_path / "run.json"
    assert main(["reduce", "--a", "0.3", "--n", "16", "--out", str(out)]) == 3
    assert "did not settle in 2 steps" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["converged"] is False and doc["iterations"] == 2
    trace = (tmp_path / "run.json.trace.csv").read_text().splitlines()
    assert len(trace) - 3 == 2


def test_reduce_rejects_grid_and_m(tmp_path, capsys):
    # `reduce --grid 8x8 --m 3` used to run and drop both flags
    out = tmp_path / "x.json"
    assert main(["reduce", "--grid", "8x8", "--m", "3", "--out", str(out)]) == 2
    assert "reduce does not read it (it reads a, n)" in capsys.readouterr().err
    assert not out.exists()


def test_ia_scan_rejects_a_beside_a_range(tmp_path, capsys):
    # the scan reads --a only when --a-range is empty
    out = tmp_path / "ia.csv"
    assert main(["ia-scan", "--a", "0.2", "--a-range", "0.1:0.2:0.1", "--out", str(out)]) == 2
    assert "--a 0.2: ia-scan scans --a-range 0.1:0.2:0.1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["ia-scan", "--a", "0.2", "--dry-run"]) == 0


@pytest.mark.parametrize("args, message", [
    (["ia-scan", "--a-range", "0.3:0.1:0.01"], "range '0.3:0.1:0.01' is empty"),
    (["nonlocal-check", "--n-list", "64:16:16"], "range '64:16:16' is empty"),
    (["curvature-check", "--n-list", "64:8:8"], "range '64:8:8' is empty"),
    (["nonlocal-check", "--n-list", "64"], "needs at least two distinct n, got [64]"),
    (["curvature-check", "--n-list", "64"], "needs at least two distinct n, got [64]"),
    (["curvature-check", "--a", "0.25"], "Phi(0) = 4a - 1 is 0 at a = 0.25"),
])
def test_unfittable_lists_are_refused(tmp_path, capsys, args, message):
    # an empty range, a line through one n and a fit relative to Phi(0) = 0
    # are refused before anything is written
    out = tmp_path / "o.csv"
    assert main(args + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["ia-scan", "--a-range", "0.1:inf:0.1"], "range '0.1:inf:0.1' has a part that is not finite"),
    (["curvature-check", "--n-list", "8:inf:8"], "range '8:inf:8' has a part that is not finite"),
    (["ia-scan", "--a-range", "0.1:0.2:inf"], "range '0.1:0.2:inf' has a part that is not finite"),
    (["ia-scan", "--a-range", "0.1:0.2:1e-4"], "'0.1:0.2:1e-4' has 1001 points, more than 1000"),
    (["curvature-check", "--n-list", "8:12:0.5"], "--n-list 8:12:0.5: n = 8.5 is not an integer"),
    (["nonlocal-check", "--n-list", "8:12:0.5"], "--n-list 8:12:0.5: n = 8.5 is not an integer"),
])
def test_unbounded_or_fractional_ranges_are_refused(tmp_path, capsys, args, message):
    # a part that is not finite overflowed the point count or gave a = nan,
    # a huge count built its list without end, and int() truncated a
    # fractional n into a duplicate: each is a usage error, with no output
    out = tmp_path / "o.csv"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_neck_below_the_floor_is_refused(tmp_path, capsys):
    # a = 1e-300 rounded eta to 0 and exited 1 with an OverflowError
    out = tmp_path / "p.json"
    assert main(["profile", "--a", "1e-300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "needs more than 16384 roulette nodes" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, digest", [
    (["profile", "--a", "0.3"],
     "5c900ce2708d8057557e85e90fc3d09967effc449ae519e104c18347d2706504"),
    (["coil-mesh", "--a", "0.3", "--n", "6", "--grid", "16x48"],
     "95f2f0c26755aec15d3d51ec32535a1bfadd163a4480c032149e0e13daed75ce"),
    (["appendix"],
     "3a88bc37e4f1ffbb5ce5f4ff51355e1642c5647341e4da6cdfed94d97d7b2841"),
])
def test_outputs_outside_results_keep_their_bytes(tmp_path, args, digest):
    # the outputs results/ does not hold, pinned by sha256 of the file
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    ["profile", "--a", "0.3"],
    ["coil-mesh", "--a", "0.3", "--n", "6", "--grid", "16x48"],
    ["ia-scan", "--a-range", "0.1:0.2:0.1"],
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, args):
    # a path that cannot be opened is the caller's mistake, not a numerical failure
    out = tmp_path / "missing" / "out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "numerical failure" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, config, message", [
    ("profile", {"a": None}, "config key 'a': float expected, got null"),
    ("mass-map", {"m": "40"}, "config key 'm': float expected, got \"40\""),
    ("coil-mesh", {"n": "x"}, "config key 'n': int expected, got \"x\""),
    ("mass-map", {"m": True}, "config key 'm': float expected, got true"),
    ("coil-mesh", {"n": 6.0}, "config key 'n': int expected, got 6.0"),
    ("ia-scan", {"a_range": 0.1}, "config key 'a_range': str expected, got 0.1"),
])
def test_config_value_of_wrong_type_is_refused(tmp_path, capsys, command, config, message):
    # each --config value is checked against its field's type before anything runs
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_int_for_float_field_matches_flag(tmp_path, capsys):
    # a JSON int for a float field is taken as that float: the resolved config,
    # and so its hash, is the one the flag gives
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"m": 40}))
    assert main(["mass-map", "--config", str(cfgfile), "--dry-run"]) == 0
    from_config = capsys.readouterr().out
    assert main(["mass-map", "--m", "40", "--dry-run"]) == 0
    assert capsys.readouterr().out == from_config
    assert json.loads(from_config)["m"] == 40.0 and '"m":40.0' in from_config


@pytest.mark.parametrize("content, message", [
    ("[1]", "holds JSON that is not an object of config keys"),
    ("\"a\"", "holds JSON that is not an object of config keys"),
    (None, "cannot read --config"),       # a directory
    ("missing", "cannot read --config"),  # no such file
], ids=["list", "string", "directory", "missing"])
def test_config_not_an_object_or_unreadable_is_refused(tmp_path, capsys, content, message):
    # exit 2 with one error line, no traceback, before anything runs
    cfg = tmp_path / "cfg.json"
    if content is None:
        cfg.mkdir()
    elif content != "missing":
        cfg.write_text(content)
    out = tmp_path / "o"
    assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()
