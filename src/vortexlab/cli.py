"""Command-line entry point: run declarative experiment configs.

Config grammar: INI-style, one section named after the experiment kind,
``key = value`` lines, ``#`` comments.  One experiment per invocation;
sweeps are lists inside one config.

A kind is one ``EXPERIMENTS`` entry: its keys, a ``build`` that makes the
cheap config-level objects (whose own checks raise) plus the checks only the
CLI can make, and a ``run`` returning the report table, which ``run_experiment``
writes as ``<experiment>-<seed>.csv`` / ``.json`` plus ``manifest.json``; CSV
values carry 17 significant digits so reruns are byte-identical.  ``validate``
builds without running and prints the size of the largest grid a run samples.
The ratio kinds and ``maxwell-strichartz`` map a family's members over
min(threads, count) threads, in one map per run; an empty level is an error.
Library functions are called by their module-global names, never stored in
an entry, so rebinding a module global reaches every call.
"""

import argparse
import configparser
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import __version__
from . import io as vio
from .bb_lab import RandomFieldSpec, bb_ratio_2d, bb_ratio_3d, gn_ratio, refinement_study
from .fields import Grid, ScalarField, VectorField, check_n_eval, lp_norm, w11_norm
from .maxwell_wave import (HarmonicCurrentDensity, StrichartzExponents, require_admissible,
                           strichartz_ratio_experiment, wave_steps)
from .mild_solver import (MildSolveConfig, calibrate_horizon, continuous_dependence_experiment,
                          picard_solve, require_converged, solution_norms)
from .oseen import oseen_dipole, sharpness_scaling_experiment
from .random_data import smooth_bump, two_mode_vorticity, wave_fixture_family


class ConfigError(ValueError):
    pass


def _check(ok, message):
    if not ok:
        raise ConfigError(message)


@dataclass(frozen=True)
class Experiment:
    keys: dict  # key name -> (converter, required, default), besides _COMMON's
    build: Callable  # cfg -> what run takes; raises ValueError naming the violation
    run: Callable  # (built, cfg, threads) -> (columns, rows, footer, summary, *after);
    # footer: {name: float}, written below the CSV rows as "# name = value"
    dim: int  # of every grid the kind samples


def _list_of(conv):
    return lambda text: [conv(x) for x in text.replace(",", " ").split()]


_COMMON = {
    "seed": (int, True, None),
    "n": (int, True, None),
    "box_length": (float, True, None),
    "out": (str, False, "."),
}


# the fewest grid cells across the narrowest core sqrt(4 t_min): on criterion 1's
# grid (n 256, L 2) its two-decade window's W11 slope leaves -1/2 +- 0.03 below
# 1.175 cells (-0.517 at 1.25, -0.548 at 1.10, -0.667 at 0.80)
_MIN_CORE_CELLS = 1.25


def _build_oseen(cfg):
    grid = Grid(2, cfg["n"], cfg["box_length"])
    _check(0 < cfg["t_min"] < cfg["t_max"], "need 0 < t_min < t_max")
    _check(np.sqrt(4.0 * cfg["t_max"]) <= grid.box_length / 16.0,
           "vortex too wide for box: sqrt(4*t_max) must be <= box_length/16")
    _check(cfg["t_count"] >= 2, "t_count must be >= 2")
    _check(cfg["alpha0"] != 0, f"alpha0 must be nonzero, got {cfg['alpha0']}")  # logs are fitted
    # a finite alpha0's peak, in Python floats (inf, never a raise); a non-finite
    # alpha0 is named after the build
    _check(not abs(cfg["alpha0"]) < np.inf
           or abs(cfg["alpha0"]) / (4.0 * np.pi * cfg["t_min"]) < np.inf,
           f"peak vorticity |alpha0| / (4 pi t_min) overflows: alpha0 = {cfg['alpha0']:g}, "
           f"t_min = {cfg['t_min']:g}")
    cells = np.sqrt(4.0 * cfg["t_min"]) / grid.h
    _check(cells >= _MIN_CORE_CELLS,
           f"vortex core too narrow for grid: sqrt(4*t_min) spans {cells:.3g} cells at "
           f"t_min = {cfg['t_min']:g}, must be >= {_MIN_CORE_CELLS} (h = {grid.h:.3g})")
    return grid


def _run_oseen(grid, cfg, _threads):
    ts = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["t_count"])
    report = sharpness_scaling_experiment(grid, ts, cfg["alpha0"])
    fits = ("slope_Linf_v", "slope_W11", "prefactor_grad_L1", "prefactor_Linf_v")
    rows = [(r["t"], r["W11"], r["grad_L1"], r["Linf_v"]) for r in report["rows"]]
    summary = {k: report[k] for k in fits + ("alpha0",)}
    return ("t", "W11", "grad_L1", "Linf_v"), rows, {k: report[k] for k in fits}, summary


_MILD_KEYS = {
    "family": (str, False, "dipole"),
    "alpha0": (float, False, 1.0),
    "amplitude": (float, False, 0.05),
    "separation": (float, False, 0.0),  # 0 -> L/4
    "t_init": (float, False, 0.01),
    "nt": (int, False, MildSolveConfig.nt),
    "max_iter": (int, False, MildSolveConfig.max_iter),
}


def _build_mild(cfg, t0):
    grid = Grid(2, cfg["n"], cfg["box_length"])
    _check(cfg["family"] in ("dipole", "two-mode"),
           f"family must be 'dipole' or 'two-mode', got {cfg['family']!r}")
    if cfg["family"] == "dipole":
        sep = cfg["separation"] or grid.box_length / 4.0
        _check(sep >= 4.0 * np.sqrt(4.0 * cfg["t_init"]),
               "dipole separation must be >= 4*sqrt(4*t_init)")
        _check(sep <= grid.box_length / 2.0, "dipole separation must be <= box_length/2")
    return MildSolveConfig(grid=grid, t0=t0, nt=cfg["nt"], tol=cfg["tol"],
                           max_iter=cfg["max_iter"])


def _initial_vorticity(cfg, grid):
    if cfg["family"] == "dipole":
        sep = cfg["separation"] or grid.box_length / 4.0
        return oseen_dipole(cfg["alpha0"], sep, grid, cfg["t_init"])
    return two_mode_vorticity(grid, cfg["amplitude"])


def _build_picard(cfg):
    # t0 = 0 asks run to calibrate the horizon, capped at t_horizon_cap; the
    # cap stands in for t0 here so the rest of the solve config is checked
    cap = cfg["t_horizon_cap"]
    _check(cfg["t0"] or cap > 0, f"t_horizon_cap must be positive, got {cap}")
    return _build_mild(cfg, cfg["t0"] or cap)


def _check_w11_finite(f, message):
    with np.errstate(over="ignore"):  # named here, before any solve
        _check(w11_norm(f) < np.inf, message)


def _run_picard(solve_cfg, cfg, _threads):
    omega0 = _initial_vorticity(cfg, solve_cfg.grid)
    calibrated_ratio = None
    if cfg["t0"]:  # calibrate_horizon names an overflowing A0 itself
        _check_w11_finite(omega0, "initial vorticity W11 norm overflows")
    else:
        t0, calibrated_ratio = calibrate_horizon(omega0, solve_cfg.grid, cfg["t_horizon_cap"])
        solve_cfg = replace(solve_cfg, t0=t0)
    traj, trace = picard_solve(omega0, solve_cfg)
    norms = solution_norms(traj, trace)
    rows = [(float(t), *n) for t, *n in zip(traj.times, *norms.values())]
    summary = {k: getattr(trace, k) for k in
               ("converged", "iterations", "diff_w11", "ratios", "sup_w11")}
    summary.update(t0=solve_cfg.t0, calibrated_first_ratio=calibrated_ratio,
                   sup_Linf_v=max(norms["Linf_v"].tolist()))
    # a fifth item, called once the reports are written: a missed tolerance must not lose them
    return ("t", *norms), rows, {}, summary, lambda: require_converged(trace, solve_cfg)


def _build_continuous_dependence(cfg):
    _check(all(e > 0 for e in cfg["epsilons"]), "epsilons must be positive")
    return _build_mild(cfg, cfg["t0"])


def _run_continuous_dependence(solve_cfg, cfg, _threads):
    omega0 = _initial_vorticity(cfg, solve_cfg.grid)
    bump = smooth_bump(solve_cfg.grid)
    perts = [eps * bump for eps in cfg["epsilons"]]
    _check_w11_finite(omega0, "initial vorticity W11 norm overflows")
    for eps, delta in zip(cfg["epsilons"], perts):
        _check_w11_finite(delta, f"perturbation W11 norm overflows at epsilon {eps:g}")
    report = continuous_dependence_experiment(omega0, perts, solve_cfg)
    rows = [(eps, r["input_w11"], r["output_w11"], r["ratio"])
            for eps, r in zip(cfg["epsilons"], report["rows"])]
    summary = {"slope": report["slope"], "rows": report["rows"]}
    footer = {"slope": report["slope"]}
    return ("epsilon", "input_w11", "output_w11", "ratio"), rows, footer, summary


_RATIO_KEYS = {
    "beta": (float, False, 2.0),
    "count": (int, True, None),
    "n_eval": (_list_of(int), False, None),  # None -> [n]
}


def _build_ratio(dim, cfg):
    grid = Grid(dim, cfg["n"], cfg["box_length"])
    spec = RandomFieldSpec(seed=cfg["seed"], beta=cfg["beta"], dim=dim, n=grid.n,
                           box_length=grid.box_length, count=cfg["count"])
    for m in cfg["n_eval"] or []:
        check_n_eval(grid, m)
    return spec


@contextmanager
def _pooled_map(threads, count):
    """A map over min(threads, count) threads; no thread starts unless mapped."""
    workers = min(threads, count)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        yield ex.map if workers > 1 else map


def _run_ratio(ratio_fn, spec, cfg, threads):
    with _pooled_map(threads, spec.count) as map_fn:
        levels = refinement_study(spec, ratio_fn, cfg["n_eval"] or [cfg["n"]], map_fn)
    rows = [(cfg["seed"], lv["n_eval"], cfg["beta"], r["sample"], r["ratio"])
            for lv in levels for r in lv["rows"]]
    summary = {"levels": [{k: v for k, v in lv.items() if k != "rows"} for lv in levels]}
    return ("seed", "n_eval", "beta", "sample", "ratio"), rows, {}, summary


def _build_wave(cfg):
    grid = Grid(3, cfg["n"], cfg["box_length"])
    horizon = cfg["horizon"] or grid.box_length / 4.0
    _check(horizon <= grid.box_length / 4.0,
           "horizon must be <= box_length/4 (pre-wrap light cone)")
    _check(horizon > 0, f"horizon must be positive, got {horizon}")
    _check(cfg["nt"] >= 2, "nt must be >= 2")
    return grid, horizon


def _build_maxwell_strichartz(cfg):
    grid, horizon = _build_wave(cfg)
    e = StrichartzExponents(cfg["q"], cfg["r"], cfg["q_tilde"], cfg["s"], cfg["k"])
    require_admissible(e)
    _check(cfg["count"] >= 1, "count must be >= 1")
    return grid, horizon, e


def _run_maxwell_strichartz(built, cfg, threads):
    grid, horizon, e = built
    fixtures = wave_fixture_family(grid, cfg["seed"], cfg["count"])
    with _pooled_map(threads, cfg["count"]) as map_fn:
        report = strichartz_ratio_experiment(e, fixtures, horizon, cfg["nt"], map_fn)
    if not report["rows"]:
        raise ValueError(f"maxwell-strichartz at n {grid.n}: every fixture has RHS < 1e-12")
    rows = [(cfg["seed"], r["fixture"], r["lhs"], r["rhs"], r["ratio"]) for r in report["rows"]]
    summary = {k: v for k, v in report.items() if k != "rows"}
    summary["exponents"] = asdict(e)
    return ("seed", "fixture", "lhs", "rhs", "ratio"), rows, {}, summary


def _run_wave_fixture(built, cfg, _threads):
    grid, horizon = built
    x = grid.meshgrid()[0]
    j_z = ScalarField(grid, np.cos(2.0 * np.pi * x / grid.box_length))
    j_field = VectorField([ScalarField.zeros(grid), ScalarField.zeros(grid), j_z])
    zero = VectorField.zeros(grid)
    j = HarmonicCurrentDensity(j_field, zero, 0.0)  # sigma = 0: constant in time
    kappa = 2.0 * np.pi / grid.box_length
    rows = []
    for t, b, _bt in wave_steps(zero, zero, j, horizon, cfg["nt"]):
        # closed form: B = (0, (1 - cos(kappa t))/kappa * sin(kappa x), 0)
        exact = (1.0 - np.cos(kappa * t)) / kappa * np.sin(kappa * x)
        # the L2 norm samples b's stack first, so its component 1 is a view of those samples
        rows.append((t, lp_norm(b, 2), float(np.max(np.abs(b.components[1].samples - exact)))))
    summary = {"max_error": max(err for _t, _l2, err in rows), "nt": cfg["nt"], "horizon": horizon}
    return ("t", "L2_B", "max_err_vs_closed_form"), rows, {}, summary


# The ratio functions are named inside lambdas, so they are looked up when a run starts.
EXPERIMENTS = {
    "oseen-scaling": Experiment({
        "alpha0": (float, False, 1.0),
        "t_min": (float, True, None),
        "t_max": (float, True, None),
        "t_count": (int, False, 9),
    }, _build_oseen, _run_oseen, 2),
    "picard": Experiment({
        **_MILD_KEYS,
        "t0": (float, False, 0.0),  # 0 -> calibrated from A0
        "t_horizon_cap": (float, False, 1.0),
        "tol": (float, False, MildSolveConfig.tol),
    }, _build_picard, _run_picard, 2),
    "continuous-dependence": Experiment({
        **_MILD_KEYS,
        "t0": (float, True, None),
        "tol": (float, False, 1e-10),
        "epsilons": (_list_of(float), True, None),
    }, _build_continuous_dependence, _run_continuous_dependence, 2),
    "bb-ratio-2d": Experiment(_RATIO_KEYS, lambda cfg: _build_ratio(2, cfg),
                              lambda *args: _run_ratio(bb_ratio_2d, *args), 2),
    "bb-ratio-3d": Experiment(_RATIO_KEYS, lambda cfg: _build_ratio(3, cfg),
                              lambda *args: _run_ratio(bb_ratio_3d, *args), 3),
    "gn-ratio": Experiment(_RATIO_KEYS, lambda cfg: _build_ratio(2, cfg),
                           lambda *args: _run_ratio(gn_ratio, *args), 2),
    "maxwell-strichartz": Experiment({
        "count": (int, True, None),
        "nt": (int, False, 64),
        "q": (float, True, None),
        "r": (float, True, None),
        "q_tilde": (float, True, None),
        "s": (float, True, None),
        "k": (float, True, None),
        "horizon": (float, False, 0.0),  # 0 -> L/4
    }, _build_maxwell_strichartz, _run_maxwell_strichartz, 3),
    "wave-fixture": Experiment({
        "nt": (int, False, 128),
        "horizon": (float, False, 0.0),  # 0 -> L/4
    }, _build_wave, _run_wave_fixture, 3),
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
    _check(len(sections) == 1,
           f"config must contain exactly one experiment section, found {sections}")
    kind = sections[0]
    _check(kind in EXPERIMENTS,
           f"unknown experiment kind {kind!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    schema = {**_COMMON, **EXPERIMENTS[kind].keys}
    resolved = {}
    for key, value in cp[kind].items():
        _check(key in schema, f"unknown key {key!r} for experiment {kind!r}")
        try:
            resolved[key] = schema[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    for key, (_conv, required, default) in schema.items():
        if key not in resolved:
            _check(not required, f"missing required key {key!r} for {kind!r}")
            resolved[key] = default
    return kind, resolved


def validate_config(kind, cfg):
    """Build a config without running it; returns what the kind's run takes."""
    built = EXPERIMENTS[kind].build(cfg)
    for key, value in cfg.items():  # a float key the build let through must be finite
        floats = [x for x in (value if isinstance(value, list) else [value]) if type(x) is float]
        _check(key in ("q", "q_tilde") or np.all(np.isfinite(floats)),
               f"{key} must be finite, got {value}")
    return built


def _nan_key(value, key=""):
    """The dotted key of the first NaN in a report value (nested dicts and
    lists), else None; +-inf pass (q = inf is an admissible exponent)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return key if isinstance(value, float) and np.isnan(value) else None
    return next((found for k, v in items
                 if (found := _nan_key(v, f"{key}.{k}" if key else str(k))) is not None), None)


def run_experiment(kind, built, cfg, out_dir, threads=1):
    """Run a config built by ``validate_config`` and write its reports, or none
    of them when a row, footer or summary value is NaN."""
    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    columns, rows, footer, summary, *after = EXPERIMENTS[kind].run(built, cfg, threads)
    for what, table in (("rows", [dict(zip(columns, row)) for row in rows]),
                        ("footer", footer), ("summary", summary)):
        if (key := _nan_key(table)) is not None:
            raise ValueError(f"report {what} key {key!r} is NaN; no report written")
    stem = os.path.join(out_dir, f"{kind}-{cfg['seed']}")
    vio.write_csv(stem + ".csv", columns, rows,
                  [f"# {k} = {vio.format_float(v)}" for k, v in footer.items()])
    vio.write_json(stem + ".json", summary)
    for check in after:
        check()
    manifest = {
        "experiment": kind,
        "config": dict(cfg),
        "version": __version__,
        "threads": threads,
        # every transform goes through numpy.fft, whose one backend is pocketfft
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "fft_backend": "numpy.fft/pocketfft"},
        "wall_clock_seconds": time.time() - start,
    }
    vio.write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _thread_count(flag):
    """--threads if given, else VORTEXLAB_THREADS, else 1."""
    text = os.environ.get("VORTEXLAB_THREADS", "1") if flag is None else flag
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    _check(threads >= 1, "thread count (--threads or VORTEXLAB_THREADS) must be an integer"
           f" >= 1, got {text!r}")
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
                        help="threads per ratio or maxwell-strichartz family, at most its count "
                        "(default: env VORTEXLAB_THREADS or 1)")
    parser.add_argument("--out", default=None, help="output directory override")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("run", help="run an experiment config").add_argument("config")
    sub.add_parser("validate", help="check a config without running").add_argument("config")
    args = parser.parse_args(argv)

    if args.list:
        print("experiment kinds and their required keys:")
        for kind in sorted(EXPERIMENTS):
            schema = {**_COMMON, **EXPERIMENTS[kind].keys}
            required = sorted(k for k, (_c, req, _d) in schema.items() if req)
            print(f"  {kind}: {', '.join(required)}")
        return 0
    if args.command is None:
        parser.print_usage()
        return 2
    try:
        threads = _thread_count(args.threads)
        kind, cfg = parse_config(args.config)
        built = validate_config(kind, cfg)
        if args.command == "validate":
            # the largest grid the run samples, and one real field on it
            points = max([cfg["n"], *(cfg.get("n_eval") or [])]) ** EXPERIMENTS[kind].dim
            print("ok")
            print(json.dumps({"experiment": kind, "config": cfg, "grid_points": points,
                              "field_bytes": 8 * points}, indent=2, sort_keys=True))
            return 0
        run_experiment(kind, built, cfg, args.out or cfg["out"] or ".", threads)
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
