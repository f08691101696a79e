"""Batch front-end: every pipeline as a subcommand with deterministic outputs.

Exit codes: 0 success, 2 validation/usage failure (an unwritable --out and a
--config value of the wrong type among them), 3 numerical failure.
Range flags accept start:stop:step syntax (inclusive of the stop within half
a step) of finite parts and at most ``MAX_RANGE_POINTS`` points; an --n-list
value must be an integer.  A JSON --config file provides defaults that
explicit flags override; --dry-run prints the resolved configuration and exits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

# modules, not their names: a call looks the function up on its module, so
# wrappers and test doubles set there are seen
from . import asymptotics, coulomb, errors, geometry, profile, reduction
from .serialize import canonical_json, write_csv, write_json


MAX_RANGE_POINTS = 1000  # 40 times the largest committed grid (ia-scan's 25 points)


def parse_range(text: str):
    """start:stop:step -> inclusive grid; a bare number -> [number]."""
    parts = str(text).split(":")
    if len(parts) not in (1, 3):
        raise errors.DomainError(f"range syntax is start:stop:step, got {text!r}")
    values = [float(p) for p in parts]
    if not np.all(np.isfinite(values)):
        raise errors.DomainError(f"range {text!r} has a part that is not finite")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise errors.DomainError("range step must be positive")
    count = np.floor((stop - start) / step + 0.5) + 1  # inf once the quotient overflows
    if count < 1:
        raise errors.DomainError(f"range {text!r} is empty: stop lies below start")
    if count > MAX_RANGE_POINTS:
        raise errors.DomainError(f"range {text!r} has {count:.4g} points, "
                                 f"more than {MAX_RANGE_POINTS}")
    return [start + i * step for i in range(int(count))]


def parse_n_list(text: str):
    """``parse_range`` of block counts; a value that is not an integer is refused."""
    values = parse_range(text)
    odd = [v for v in values if v != int(v)]
    if odd:
        raise errors.DomainError(f"--n-list {text}: n = {odd[0]} is not an integer")
    return [int(v) for v in values]


def parse_grid(text: str):
    parts = str(text).lower().split("x")
    if len(parts) != 2:
        raise errors.DomainError(f"grid syntax is NTHETAxN3, got {text!r}")
    return int(parts[0]), int(parts[1])


# the JSON values each RunConfig field type accepts; an int stands for a float
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


@dataclass
class RunConfig:
    """Resolved per-command parameters (round-trips through JSON)."""

    command: str
    a: float = 0.3
    a_range: str = ""
    n: int = 0  # 0 = command default (reduce: 32; mass-map: heuristic)
    n_list: str = "8:64:8"
    m: float = 40.0
    grid: str = ""
    out: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    def hashable_dict(self) -> dict:
        """Config identifying the computation (output path excluded)."""
        d = asdict(self)
        d.pop("out", None)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config of ``d``, each value checked against its field's type."""
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(d) - set(types))
        if unknown:
            raise errors.DomainError(f"unknown config keys: {', '.join(unknown)}")
        d = dict(d)
        for key, val in d.items():
            if isinstance(val, bool) or not isinstance(val, _JSON_TYPES[types[key]]):
                raise errors.DomainError(f"config key {key!r}: {types[key]} expected, "
                                         f"got {json.dumps(val)}")
            if types[key] == "float":
                d[key] = float(val)
        return cls(**d)


# the RunConfig fields each command reads besides ``command`` and ``out``;
# setting any other field away from its default is refused, so no flag is
# accepted and then ignored
READS = {
    "profile": ("a",),
    "ia-scan": ("a", "a_range"),
    "coil-mesh": ("a", "n", "grid"),
    "curvature-check": ("a", "n_list"),
    "nonlocal-check": ("a", "n_list"),
    "reduce": ("a", "n"),
    "mass-map": ("a", "n", "m"),
    "appendix": (),
}


def _resolve_config(args) -> RunConfig:
    base = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except OSError as exc:
            raise errors.DomainError(f"cannot read --config {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise errors.DomainError(f"--config {args.config} holds JSON that is not an "
                                     "object of config keys")
    base["command"] = args.command
    cfg = RunConfig.from_dict(base)
    for name in ("a", "a_range", "n", "n_list", "m", "grid", "out"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    default = RunConfig(command=cfg.command)
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if f.name in ("command", "out") + READS[cfg.command] or val == getattr(default, f.name):
            continue
        raise errors.DomainError(
            f"--{f.name.replace('_', '-')} {val}: {cfg.command} does not read it "
            f"(it reads {', '.join(READS[cfg.command]) or 'no field'})")
    if cfg.a_range and cfg.a != default.a:  # a scan reads --a only without --a-range
        raise errors.DomainError(f"--a {cfg.a}: {cfg.command} scans --a-range {cfg.a_range}")
    return cfg


# ---- subcommand bodies ----------------------------------------------------

def cmd_profile(cfg: RunConfig):
    prof = profile.solve_profile(cfg.a)
    chart = profile.build_chart(cfg.a)
    write_json(cfg.out, {"profile": prof.to_dict(), "chart": chart.to_dict()},
               config=cfg.hashable_dict())


def cmd_ia_scan(cfg: RunConfig):
    rows = profile.profile_scan(parse_range(cfg.a_range or str(cfg.a)))
    write_csv(cfg.out, ["a", "T", "V", "Ia"], rows, config=cfg.hashable_dict())


def cmd_coil_mesh(cfg: RunConfig):
    n = cfg.n or 12
    prof = profile.solve_profile(cfg.a)
    res = parse_grid(cfg.grid) if cfg.grid else (32, 32 * n)
    geometry.export_mesh(geometry.build_coil(prof, n), res, cfg.out)


def cmd_curvature_check(cfg: RunConfig):
    n_list = parse_n_list(cfg.n_list)
    prof = profile.solve_profile(cfg.a)
    rep = geometry.curvature_expansion_check(prof, n_list)
    rows = list(zip(rep.n_list, rep.max_err, rep.phi_fit_rel_err, rep.phi_fit_abs_err))
    write_csv(cfg.out, ["n", "max_err", "phi_fit_rel_err", "phi_fit_abs_err"], rows,
              config=cfg.hashable_dict(),
              extra_meta={"decay_exponent": rep.decay_exponent, "a": rep.a})


def cmd_nonlocal_check(cfg: RunConfig):
    n_list = parse_n_list(cfg.n_list)
    if len(set(n_list)) < 2:
        raise errors.DomainError(f"the log-law slope is fitted over n and needs at least "
                                 f"two distinct n, got {n_list}")
    prof = profile.solve_profile(cfg.a)
    y = (np.pi / 2.0, 0.0)
    results = [coulomb.potential_coil(prof, n, y) for n in n_list]
    rows = [(n, res.value, res.err_est,
             coulomb.toroidal_potential_reference(prof, n, y) if n <= 8 else "")
            for n, res in zip(n_list, results)]
    slope, intercept = np.polyfit(np.log(n_list), [r[1] for r in rows], 1)
    target = 2.0 * prof.V / prof.T
    # the intercept is reported, not asserted: the constant term of the
    # expansion has no pinned numeric value
    write_csv(cfg.out, ["n", "potential", "err_est", "brute_force"], rows,
              config=cfg.hashable_dict(),
              extra_meta={"slope": float(slope), "intercept": float(intercept),
                          "slope_target_2V_over_T": target,
                          "slope_rel_err": abs(float(slope) / target - 1.0)})


def cmd_reduce(cfg: RunConfig):
    n = cfg.n or 32
    prof = profile.solve_profile(cfg.a)
    ctx = reduction.ReductionContext(prof, n, reduction.ReductionSettings())
    state = reduction.solve_gamma(prof, n, ctx=ctx)
    mm = reduction.mass_map(prof, n, state=state, ctx=ctx)
    report = {
        "a": prof.a, "n": n,
        "gamma": state.gamma, "lambda": state.lam, "c": state.c,
        "residual": state.residual, "residual_final": state.residual_final,
        "c_final": state.c_final, "h_norm": state.h_norm,
        "iterations": state.iterations, "converged": state.converged,
        "coulomb_integrations": state.coulomb_integrations,
        "gamma_leading": reduction.gamma_leading(prof, n).gamma,
        "volume": mm.volume, "volume_ratio": mm.volume_ratio, "m": mm.m,
        "symmetry_residual": state.symmetry_residual,
        "lambda_convention": state.lambda_convention,
        "h": state.h.to_dict(),
    }
    write_json(cfg.out, report, config=cfg.hashable_dict())
    columns = ["iter", "gamma", "delta_norm", "c", "d", "residual", "step", "rule"]
    write_csv(str(cfg.out) + ".trace.csv", columns,
              [tuple(row[k] for k in columns) for row in state.history],
              config=cfg.hashable_dict())
    if not state.converged:  # the outputs stay, to show the unsettled run
        raise errors.NonConvergence(
            f"the (h, gamma) iteration did not settle in {state.iterations} steps "
            f"(last update {state.history[-1]['delta_norm']:.3e}); see {cfg.out}")


def cmd_mass_map(cfg: RunConfig):
    ref = profile.solve_profile(cfg.a)
    n = cfg.n or reduction.select_block_count(cfg.m, ref)
    mm = reduction.find_neck_for_mass(cfg.m, n, settings=reduction.ReductionSettings())
    write_json(cfg.out, {"m_target": cfg.m, "n": n, "b": mm.a, "m": mm.m,
                         "gamma": mm.gamma, "volume": mm.volume,
                         "volume_ratio": mm.volume_ratio}, config=cfg.hashable_dict())


def cmd_appendix(cfg: RunConfig):
    table = asymptotics.sech_moments()
    rows = [(k, table.values[k], table.exact[k]) for k in sorted(table.values)]
    rows.append(("grand_combination", table.grand_combination, table.grand_exact))
    scan = profile.profile_scan([0.002, 0.005, 0.01])
    fit = asymptotics.ia_slope_check(scan)
    write_csv(cfg.out, ["moment", "value", "exact"], rows, config=cfg.hashable_dict(),
              extra_meta={"ia_slope": fit.slope, "ia_intercept": fit.intercept,
                          "ia_curvature": fit.curvature})


COMMANDS = {
    "profile": cmd_profile,
    "ia-scan": cmd_ia_scan,
    "coil-mesh": cmd_coil_mesh,
    "curvature-check": cmd_curvature_check,
    "nonlocal-check": cmd_nonlocal_check,
    "reduce": cmd_reduce,
    "mass-map": cmd_mass_map,
    "appendix": cmd_appendix,
}


@functools.lru_cache(maxsize=None)  # one parser a process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=float, default=None,
                        help="neck parameter (scans: see --a-range)")
    common.add_argument("--a-range", dest="a_range", type=str, default=None,
                        help="start:stop:step scan grid")
    common.add_argument("--n", type=int, default=None, help="block count")
    common.add_argument("--n-list", dest="n_list", type=str, default=None,
                        help="start:stop:step list of block counts")
    common.add_argument("--m", type=float, default=None, help="target mass")
    common.add_argument("--grid", type=str, default=None, help="NTHETAxN3 mesh grid")
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--dry-run", action="store_true",
                        help="print the resolved config and exit")
    parser = argparse.ArgumentParser(prog="dropcoil",
                                     description="coiled Delaunay equilibria toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.dry_run:
            print(canonical_json(cfg.to_dict()))
            return 0
        if not cfg.out:
            print("error: --out is required", file=sys.stderr)
            return 2
        COMMANDS[args.command](cfg)
        return 0
    except (errors.DomainError, errors.GridMismatch, errors.IoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.DropcoilError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
