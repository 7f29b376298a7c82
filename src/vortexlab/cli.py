"""Command-line entry point: run declarative experiment configs.

Config grammar: INI-style, one section named after the experiment kind,
``key = value`` lines, ``#`` comments.  One experiment per invocation;
sweeps are lists inside one config.  Reports land in the output directory
as ``<experiment>-<seed>.csv`` / ``.json`` plus ``manifest.json``; CSV
values carry 17 significant digits so reruns are byte-identical.
"""

import argparse
import configparser
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import io as vio
from .bb_lab import RandomFieldSpec, bb_ratio_2d, bb_ratio_3d, gn_ratio, refinement_study
from .fields import Grid, ScalarField, VectorField, lp_norm
from .maxwell_wave import (
    CurrentDensity,
    StrichartzExponents,
    solve_wave,
    strichartz_admissible,
    strichartz_ratio_experiment,
)
from .mild_solver import MildSolveConfig, calibrate_horizon, picard_solve, require_converged
from .oseen import oseen_dipole, sharpness_scaling_experiment
from .random_data import two_mode_vorticity, wave_fixture_family


class ConfigError(ValueError):
    pass


def _parse_float_list(text):
    return [float(x) for x in text.replace(",", " ").split()]


def _parse_int_list(text):
    return [int(x) for x in text.replace(",", " ").split()]


# key name -> (converter, required, default)
_COMMON = {
    "seed": (int, True, None),
    "n": (int, True, None),
    "box_length": (float, True, None),
    "out": (str, False, "."),
}

EXPERIMENTS = {
    "oseen-scaling": {
        "alpha0": (float, False, 1.0),
        "t_min": (float, True, None),
        "t_max": (float, True, None),
        "t_count": (int, False, 9),
    },
    "picard": {
        "family": (str, False, "dipole"),
        "alpha0": (float, False, 1.0),
        "amplitude": (float, False, 0.05),
        "separation": (float, False, 0.0),  # 0 -> L/4
        "t_init": (float, False, 0.01),
        "t0": (float, False, 0.0),  # 0 -> calibrated from A0
        "t_horizon_cap": (float, False, 1.0),
        "nt": (int, False, 32),
        "tol": (float, False, 1e-9),
        "max_iter": (int, False, 60),
    },
    "continuous-dependence": {
        "family": (str, False, "dipole"),
        "alpha0": (float, False, 1.0),
        "amplitude": (float, False, 0.05),
        "separation": (float, False, 0.0),
        "t_init": (float, False, 0.01),
        "t0": (float, True, None),
        "nt": (int, False, 32),
        "tol": (float, False, 1e-10),
        "max_iter": (int, False, 60),
        "epsilons": (_parse_float_list, True, None),
    },
    "bb-ratio-2d": {
        "beta": (float, False, 2.0),
        "count": (int, True, None),
        "n_eval": (_parse_int_list, False, None),  # None -> [n]
    },
    "bb-ratio-3d": {
        "beta": (float, False, 2.0),
        "count": (int, True, None),
        "n_eval": (_parse_int_list, False, None),
    },
    "gn-ratio": {
        "beta": (float, False, 2.0),
        "count": (int, True, None),
        "n_eval": (_parse_int_list, False, None),
    },
    "maxwell-strichartz": {
        "count": (int, True, None),
        "nt": (int, False, 64),
        "q": (float, True, None),
        "r": (float, True, None),
        "q_tilde": (float, True, None),
        "s": (float, True, None),
        "k": (float, True, None),
        "horizon": (float, False, 0.0),  # 0 -> L/4
    },
    "wave-fixture": {
        "nt": (int, False, 128),
        "horizon": (float, False, 0.0),  # 0 -> L/4
    },
}


def parse_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    sections = cp.sections()
    if len(sections) != 1:
        raise ConfigError(
            f"config must contain exactly one experiment section, found {sections}"
        )
    kind = sections[0]
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment kind {kind!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    schema = dict(_COMMON)
    schema.update(EXPERIMENTS[kind])
    raw = dict(cp[kind])
    resolved = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for experiment {kind!r}")
        conv = schema[key][0]
        try:
            resolved[key] = conv(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    for key, (_conv, required, default) in schema.items():
        if key not in resolved:
            if required:
                raise ConfigError(f"missing required key {key!r} for {kind!r}")
            resolved[key] = default
    return kind, resolved


def validate_config(kind, cfg):
    """Full precondition check without running; raises ConfigError with the
    violated condition by name."""
    n = cfg["n"]
    if n < 8 or n % 2 != 0:
        raise ConfigError(f"n must be even and >= 8, got {n}")
    if not cfg["box_length"] > 0:
        raise ConfigError(f"box_length must be positive, got {cfg['box_length']}")
    L = cfg["box_length"]
    if kind == "oseen-scaling":
        if not 0 < cfg["t_min"] < cfg["t_max"]:
            raise ConfigError("need 0 < t_min < t_max")
        if np.sqrt(4.0 * cfg["t_max"]) > L / 16.0:
            raise ConfigError(
                "vortex too wide for box: sqrt(4*t_max) must be <= box_length/16"
            )
        if cfg["t_count"] < 2:
            raise ConfigError("t_count must be >= 2")
    elif kind in ("picard", "continuous-dependence"):
        if cfg["family"] not in ("dipole", "two-mode"):
            raise ConfigError(
                f"family must be 'dipole' or 'two-mode', got {cfg['family']!r}"
            )
        if cfg["family"] == "dipole":
            sep = cfg["separation"] or L / 4.0
            if sep < 4.0 * np.sqrt(4.0 * cfg["t_init"]):
                raise ConfigError("dipole separation must be >= 4*sqrt(4*t_init)")
            if sep > L / 2.0:
                raise ConfigError("dipole separation must be <= box_length/2")
        if cfg["nt"] < 8:
            raise ConfigError("nt must be >= 8")
        if not cfg["tol"] > 0:
            raise ConfigError("tol must be positive")
        if kind == "continuous-dependence":
            if not cfg["t0"] > 0:
                raise ConfigError("t0 must be positive")
            if not all(e > 0 for e in cfg["epsilons"]):
                raise ConfigError("epsilons must be positive")
    elif kind in ("bb-ratio-2d", "bb-ratio-3d", "gn-ratio"):
        if cfg["count"] < 1:
            raise ConfigError("count must be >= 1")
        if not cfg["beta"] > 0:
            raise ConfigError("beta must be positive")
        for m in cfg["n_eval"] or []:
            if m < n:
                raise ConfigError("n_eval entries must be >= n (refinement only)")
            if m % 2 != 0:
                raise ConfigError("n_eval entries must be even")
    elif kind == "maxwell-strichartz":
        e = StrichartzExponents(cfg["q"], cfg["r"], cfg["q_tilde"], cfg["s"], cfg["k"])
        ok, reasons = strichartz_admissible(e)
        if not ok:
            raise ConfigError("inadmissible exponents: " + "; ".join(reasons))
        if cfg["count"] < 1:
            raise ConfigError("count must be >= 1")
        if cfg["horizon"] and cfg["horizon"] > L / 4.0:
            raise ConfigError("horizon must be <= box_length/4 (pre-wrap light cone)")
    elif kind == "wave-fixture":
        if cfg["horizon"] and cfg["horizon"] > L / 4.0:
            raise ConfigError("horizon must be <= box_length/4 (pre-wrap light cone)")
        if cfg["nt"] < 2:
            raise ConfigError("nt must be >= 2")


def _initial_vorticity(kind_cfg, grid):
    if kind_cfg["family"] == "dipole":
        sep = kind_cfg["separation"] or grid.box_length / 4.0
        return oseen_dipole(kind_cfg["alpha0"], sep, grid, kind_cfg["t_init"])
    return two_mode_vorticity(grid, kind_cfg["amplitude"])


def _run_oseen_scaling(cfg, out_dir):
    grid = Grid(2, cfg["n"], cfg["box_length"])
    ts = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["t_count"])
    report = sharpness_scaling_experiment(grid, ts, cfg["alpha0"])
    rows = [
        (r["t"], r["W11"], r["grad_L1"], r["Linf_v"]) for r in report["rows"]
    ]
    footer = [
        f"# slope_Linf_v = {vio.format_float(report['slope_Linf_v'])}",
        f"# slope_W11 = {vio.format_float(report['slope_W11'])}",
        f"# prefactor_grad_L1 = {vio.format_float(report['prefactor_grad_L1'])}",
        f"# prefactor_Linf_v = {vio.format_float(report['prefactor_Linf_v'])}",
    ]
    vio.write_csv(
        os.path.join(out_dir, f"oseen-scaling-{cfg['seed']}.csv"),
        ("t", "W11", "grad_L1", "Linf_v"),
        rows,
        footer,
    )
    summary = {k: report[k] for k in
               ("slope_Linf_v", "slope_W11", "prefactor_grad_L1",
                "prefactor_Linf_v", "alpha0")}
    vio.write_json(os.path.join(out_dir, f"oseen-scaling-{cfg['seed']}.json"), summary)
    return summary


def _run_picard(cfg, out_dir):
    grid = Grid(2, cfg["n"], cfg["box_length"])
    omega0 = _initial_vorticity(cfg, grid)
    t0 = cfg["t0"]
    calibrated_ratio = None
    if not t0:
        t0, calibrated_ratio = calibrate_horizon(
            omega0, grid, cfg["t_horizon_cap"]
        )
    solve_cfg = MildSolveConfig(
        grid=grid, t0=t0, nt=cfg["nt"],
        tol=cfg["tol"], max_iter=cfg["max_iter"],
    )
    traj, trace = picard_solve(omega0, solve_cfg)
    vio.write_trajectory_trace(
        os.path.join(out_dir, f"picard-{cfg['seed']}.csv"), traj.times,
        trace.snapshot_reports,
    )
    summary = {
        "t0": t0,
        "calibrated_first_ratio": calibrated_ratio,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "diff_w11": trace.diff_w11,
        "ratios": trace.ratios,
        "sup_w11": trace.sup_w11,
        "sup_Linf_v": max(r["Linf_v"] for r in trace.snapshot_reports),
    }
    vio.write_json(os.path.join(out_dir, f"picard-{cfg['seed']}.json"), summary)
    require_converged(trace, solve_cfg)
    return summary


def _run_continuous_dependence(cfg, out_dir):
    from .mild_solver import continuous_dependence_experiment
    from .random_data import smooth_bump

    grid = Grid(2, cfg["n"], cfg["box_length"])
    omega0 = _initial_vorticity(cfg, grid)
    solve_cfg = MildSolveConfig(
        grid=grid, t0=cfg["t0"], nt=cfg["nt"],
        tol=cfg["tol"], max_iter=cfg["max_iter"],
    )
    bump = smooth_bump(grid)
    perts = [eps * bump for eps in cfg["epsilons"]]
    report = continuous_dependence_experiment(omega0, perts, solve_cfg)
    rows = [
        (eps, r["input_w11"], r["output_w11"], r["ratio"])
        for eps, r in zip(cfg["epsilons"], report["rows"])
    ]
    footer = [f"# slope = {vio.format_float(report['slope'])}"]
    vio.write_csv(
        os.path.join(out_dir, f"continuous-dependence-{cfg['seed']}.csv"),
        ("epsilon", "input_w11", "output_w11", "ratio"),
        rows,
        footer,
    )
    summary = {"slope": report["slope"], "rows": report["rows"]}
    vio.write_json(
        os.path.join(out_dir, f"continuous-dependence-{cfg['seed']}.json"), summary
    )
    return summary


_RATIO_FNS = {"bb-ratio-2d": (2, bb_ratio_2d), "bb-ratio-3d": (3, bb_ratio_3d),
              "gn-ratio": (2, gn_ratio)}


def _run_ratio_family(kind, cfg, out_dir, threads):
    dim, fn = _RATIO_FNS[kind]
    spec = RandomFieldSpec(
        seed=cfg["seed"], beta=cfg["beta"], dim=dim, n=cfg["n"],
        box_length=cfg["box_length"], count=cfg["count"],
    )
    levels = cfg["n_eval"] or [cfg["n"]]

    def one(n_eval):
        return n_eval, refinement_study(spec, fn, [n_eval])

    if threads > 1 and len(levels) > 1:
        # finest level here: in a pool thread's malloc arena, its freed blocks made peak RSS vary
        finest = levels.index(max(levels))
        with ThreadPoolExecutor(max_workers=threads - 1) as ex:
            rest = [ex.submit(one, m) for i, m in enumerate(levels) if i != finest]
            mine = one(levels[finest])
            results = [f.result() for f in rest]
        results.insert(finest, mine)
    else:
        results = [one(m) for m in levels]
    rows = []
    summary = {"levels": []}
    for n_eval, rep in results:
        for r in rep.rows:
            rows.append((cfg["seed"], n_eval, cfg["beta"], r["sample"], r["ratio"]))
        summary["levels"].append(
            {
                "n_eval": n_eval,
                "family_max": rep.family_max,
                "family_mean": rep.family_mean,
                "discarded": rep.discarded,
            }
        )
    vio.write_csv(
        os.path.join(out_dir, f"{kind}-{cfg['seed']}.csv"),
        ("seed", "n_eval", "beta", "sample", "ratio"),
        rows,
    )
    vio.write_json(os.path.join(out_dir, f"{kind}-{cfg['seed']}.json"), summary)
    return summary


def _run_maxwell_strichartz(cfg, out_dir):
    grid = Grid(3, cfg["n"], cfg["box_length"])
    e = StrichartzExponents(cfg["q"], cfg["r"], cfg["q_tilde"], cfg["s"], cfg["k"])
    horizon = cfg["horizon"] or grid.box_length / 4.0
    fixtures = wave_fixture_family(grid, cfg["seed"], cfg["count"])
    report = strichartz_ratio_experiment(e, fixtures, horizon, cfg["nt"])
    rows = [
        (cfg["seed"], r["fixture"], r["lhs"], r["rhs"], r["ratio"])
        for r in report["rows"]
    ]
    vio.write_csv(
        os.path.join(out_dir, f"maxwell-strichartz-{cfg['seed']}.csv"),
        ("seed", "fixture", "lhs", "rhs", "ratio"),
        rows,
    )
    summary = {k: report[k] for k in
               ("family_max", "family_mean", "discarded",
                "time_horizon_restriction")}
    summary["exponents"] = {"q": e.q, "r": e.r, "q_tilde": e.q_tilde,
                            "s": e.s, "k": e.k}
    vio.write_json(
        os.path.join(out_dir, f"maxwell-strichartz-{cfg['seed']}.json"), summary
    )
    return summary


def _run_wave_fixture(cfg, out_dir):
    grid = Grid(3, cfg["n"], cfg["box_length"])
    horizon = cfg["horizon"] or grid.box_length / 4.0
    x = grid.meshgrid()[0]
    j_field = VectorField(
        [
            ScalarField.zeros(grid),
            ScalarField.zeros(grid),
            ScalarField(grid, np.cos(2.0 * np.pi * x / grid.box_length)),
        ]
    )
    j = CurrentDensity(grid, lambda t: j_field)
    zero = VectorField.zeros(grid)
    traj_b, _ = solve_wave(zero, zero, j, horizon, cfg["nt"])
    kappa = 2.0 * np.pi / grid.box_length
    rows = []
    max_err = 0.0
    for t, b in traj_b:
        # closed form: B = (0, (1 - cos(kappa t))/kappa * sin(kappa x), 0)
        exact = (1.0 - np.cos(kappa * t)) / kappa * np.sin(kappa * x)
        err = float(np.max(np.abs(b.components[1].samples - exact)))
        max_err = max(max_err, err)
        rows.append((float(t), lp_norm(b, 2), err))
    vio.write_csv(
        os.path.join(out_dir, f"wave-fixture-{cfg['seed']}.csv"),
        ("t", "L2_B", "max_err_vs_closed_form"),
        rows,
    )
    summary = {"max_error": max_err, "nt": cfg["nt"], "horizon": horizon}
    vio.write_json(os.path.join(out_dir, f"wave-fixture-{cfg['seed']}.json"), summary)
    return summary


def run_experiment(kind, cfg, out_dir, threads=1):
    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    if kind == "oseen-scaling":
        summary = _run_oseen_scaling(cfg, out_dir)
    elif kind == "picard":
        summary = _run_picard(cfg, out_dir)
    elif kind == "continuous-dependence":
        summary = _run_continuous_dependence(cfg, out_dir)
    elif kind in _RATIO_FNS:
        summary = _run_ratio_family(kind, cfg, out_dir, threads)
    elif kind == "maxwell-strichartz":
        summary = _run_maxwell_strichartz(cfg, out_dir)
    elif kind == "wave-fixture":
        summary = _run_wave_fixture(cfg, out_dir)
    else:  # pragma: no cover - parse_config already rejects unknown kinds
        raise ConfigError(f"unknown experiment kind {kind!r}")
    manifest = {
        "experiment": kind,
        "config": {k: v for k, v in cfg.items()},
        "version": __version__,
        "threads": threads,
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "wall_clock_seconds": time.time() - start,
    }
    vio.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return summary


def _print_kinds():
    print("experiment kinds and their required keys:")
    for kind in sorted(EXPERIMENTS):
        required = sorted(
            [k for k, (_c, req, _d) in {**_COMMON, **EXPERIMENTS[kind]}.items() if req]
        )
        print(f"  {kind}: {', '.join(required)}")


def _thread_count(flag):
    """--threads if given, else VORTEXLAB_THREADS, else 1."""
    text = os.environ.get("VORTEXLAB_THREADS", "1") if flag is None else flag
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(
            f"thread count (--threads or VORTEXLAB_THREADS) must be an integer >= 1, got {text!r}"
        )
    return threads


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Pseudo-spectral torus laboratory: vorticity mild solutions, "
        "Biot-Savart estimates, wave mixed norms.",
    )
    parser.add_argument("--list", action="store_true",
                        help="list experiment kinds and required keys")
    parser.add_argument("--threads", type=int, default=None,
                        help="sweep thread count (default: env VORTEXLAB_THREADS or 1)")
    parser.add_argument("--out", default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    if args.list:
        _print_kinds()
        return 0
    if args.command is None:
        parser.print_usage()
        return 2
    try:
        threads = _thread_count(args.threads)
        kind, cfg = parse_config(args.config)
        validate_config(kind, cfg)
    except (ConfigError, ValueError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    if args.command == "validate":
        print("ok")
        print(json.dumps({"experiment": kind, "config": cfg}, indent=2, sort_keys=True))
        return 0
    out_dir = args.out or cfg.get("out") or "."
    try:
        run_experiment(kind, cfg, out_dir, threads=threads)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
