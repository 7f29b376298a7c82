"""End-to-end checks of the config-driven command line runner."""

import json
import os
import platform
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vortexlab import cli, maxwell_wave, mild_solver, oseen
from vortexlab.cli import EXPERIMENTS, main, parse_config, validate_config, ConfigError
from vortexlab.fields import Grid, ScalarField, VectorField, curl3d, lp_norm
from vortexlab.maxwell_wave import CurrentDensity, solve_wave


def write_config(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


GN_CONFIG = """\
[gn-ratio]
seed = 3
n = 32
box_length = 6.283185307179586
count = 3
beta = 2.0
"""


PICARD_CONFIG = """\
[picard]
seed = 4
n = 16
box_length = 6.283185307179586
family = two-mode
amplitude = 0.05
t0 = 0.1
nt = 8
"""

TWO_PI = 2.0 * np.pi

# the kind-specific keys of one small config per experiment kind
TINY_KEYS = {
    "oseen-scaling": "t_min = 0.02\nt_max = 0.035\nt_count = 3\n",
    "picard": "family = two-mode\nnt = 8\nt_horizon_cap = 0.2\n",
    "continuous-dependence": "family = two-mode\nt0 = 0.1\nnt = 8\nepsilons = 1e-3 1e-2\n",
    "bb-ratio-2d": "count = 2\nn_eval = 16 24\n",
    "bb-ratio-3d": "count = 2\n",
    "gn-ratio": "count = 2\n",
    "maxwell-strichartz": "count = 1\nnt = 9\nq = 4.0\nr = 4.0\nq_tilde = 4.0\ns = 0.5\nk = 0.75\n",
    "wave-fixture": "nt = 16\n",
}


# grid points per axis of each tiny config, 16 unless named: the 3D kinds take 8, and
# oseen-scaling 32, so that its narrowest core sqrt(4 t_min) spans 1.44 cells
TINY_N = {"bb-ratio-3d": 8, "maxwell-strichartz": 8, "wave-fixture": 8, "oseen-scaling": 32}


def tiny_config(kind):
    n = TINY_N.get(kind, 16)
    return f"[{kind}]\nseed = 7\nn = {n}\nbox_length = 6.283185307179586\n" + TINY_KEYS[kind]


class TestListing:
    def test_list_prints_all_kinds(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert len(EXPERIMENTS) == 8
        for kind in EXPERIMENTS:
            assert kind in out

    def test_no_command_usage(self, capsys):
        assert main([]) == 2


class TestParsing:
    def test_round_trip_with_defaults(self, tmp_path):
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)
        kind, cfg = parse_config(path)
        assert kind == "gn-ratio"
        assert cfg["seed"] == 3 and cfg["out"] == "."
        assert cfg["n_eval"] is None

    def test_inline_comments(self, tmp_path):
        path = write_config(
            tmp_path, "gn.ini", GN_CONFIG.replace("count = 3", "count = 3  # small")
        )
        _, cfg = parse_config(path)
        assert cfg["count"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "gn.ini", GN_CONFIG + "mystery = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, "x.ini", "[nonsense]\nseed = 1\n")
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config(path)

    @pytest.mark.parametrize("kind", ["picard", "continuous-dependence"])
    def test_removed_quad_m_key_rejected(self, tmp_path, kind):
        body = PICARD_CONFIG.replace("[picard]", f"[{kind}]") + "quad_m = 64\n"
        path = write_config(tmp_path, "p.ini", body)
        with pytest.raises(ConfigError, match="unknown key 'quad_m'"):
            parse_config(path)

    def test_missing_required_key_named(self, tmp_path):
        path = write_config(
            tmp_path, "gn.ini", GN_CONFIG.replace("seed = 3\n", "")
        )
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)


class TestValidation:
    def test_validate_subcommand_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok")
        dumped = json.loads(out[len("ok\n"):])
        assert dumped["experiment"] == "gn-ratio"
        assert dumped["config"]["beta"] == 2.0

    @pytest.mark.parametrize("kind, extra, points", [
        ("bb-ratio-3d", "n_eval = 64 32\n", 64**3),  # the largest n_eval
        ("bb-ratio-2d", "", 16**2),  # no n_eval: n
        ("picard", "", 16**2),
        ("wave-fixture", "", 8**3),
    ])
    def test_validate_prints_memory_size(self, tmp_path, capsys, kind, extra, points):
        path = write_config(tmp_path, "c.ini", tiny_config(kind).replace("n_eval = 16 24\n", "")
                            + extra)
        assert main(["validate", path]) == 0
        dumped = json.loads(capsys.readouterr().out[len("ok\n"):])
        assert (dumped["grid_points"], dumped["field_bytes"]) == (points, 8 * points)

    def test_odd_n_named_violation(self, tmp_path, capsys):
        path = write_config(tmp_path, "gn.ini", GN_CONFIG.replace("n = 32", "n = 7"))
        assert main(["validate", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "n must be even and >= 8" in err["error"]

    def test_missing_seed_exits_nonzero(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "gn.ini", GN_CONFIG.replace("seed = 3\n", "")
        )
        assert main(["validate", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "seed" in err["error"]

    def test_inadmissible_exponents_reported(self, tmp_path, capsys):
        body = """\
[maxwell-strichartz]
seed = 1
n = 16
box_length = 6.283185307179586
count = 1
q = 4.0
r = 4.0
q_tilde = 2.0
s = 0.5
k = 0.25
"""
        path = write_config(tmp_path, "mw.ini", body)
        assert main(["run", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "inadmissible" in err["error"]
        assert "q_tilde" in err["error"]

    @pytest.mark.parametrize("value", ["x", "0"])
    def test_bad_thread_env_named(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("VORTEXLAB_THREADS", value)
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)
        assert main(["--out", str(tmp_path / "out"), "run", path]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "must be" in json.loads(err)["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, old, new, message",
        [
            ("picard", "nt = 8\n", "nt = 8\nmax_iter = 0\n", "max_iter must be >= 1, got 0"),
            ("continuous-dependence", "nt = 8\n", "nt = 8\nmax_iter = 0\n",
             "max_iter must be >= 1, got 0"),
            ("picard", "t_horizon_cap = 0.2", "t_horizon_cap = -1",
             "t_horizon_cap must be positive, got -1.0"),
            ("maxwell-strichartz", "nt = 9", "nt = 1", "nt must be >= 2, got 1"),
            ("wave-fixture", "nt = 16\n", "nt = 16\nhorizon = -1\n",
             "horizon must be positive, got -1.0"),
        ],
        ids=["picard-max_iter", "continuous-dependence-max_iter", "picard-t_horizon_cap",
             "maxwell-strichartz-nt", "wave-fixture-horizon"],
    )
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, kind, old, new, message):
        body = tiny_config(kind)
        assert old in body
        path = write_config(tmp_path, "c.ini", body.replace(old, new))
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == message

    @pytest.mark.parametrize("kind, old, new, check", [
        ("picard", "family = two-mode", "family = dipole\nseparation = 0.5",
         lambda: oseen.check_dipole_separation(Grid(2, 16, TWO_PI), 0.5, 0.01)),
        ("picard", "family = two-mode", "family = dipole\nseparation = 4.0",
         lambda: oseen.check_dipole_separation(Grid(2, 16, TWO_PI), 4.0, 0.01)),
        ("continuous-dependence", "family = two-mode", "family = dipole\nt_init = 1.0",
         lambda: oseen.check_dipole_separation(Grid(2, 16, TWO_PI), TWO_PI / 4.0, 1.0)),
        ("picard", "family = two-mode", "family = dipole\nt_init = -1",
         lambda: oseen.check_dipole_separation(Grid(2, 16, TWO_PI), TWO_PI / 4.0, -1.0)),
        ("oseen-scaling", "t_max = 0.035", "t_max = 0.05",
         lambda: oseen.check_core_width(Grid(2, 32, TWO_PI), 0.05)),
        ("oseen-scaling", "t_count = 3", "t_count = 1", lambda: oseen.check_time_count(1)),
        ("wave-fixture", "nt = 16\n", "nt = 16\nhorizon = -1\n",
         lambda: maxwell_wave.check_wave_times(-1.0, 16)),
        ("maxwell-strichartz", "nt = 9", "nt = 1",
         lambda: maxwell_wave.check_wave_times(TWO_PI / 4.0, 1)),
    ], ids=["dipole-overlap", "dipole-wide", "dipole-default-separation", "dipole-negative-t",
            "core-width", "time-count", "horizon", "wave-nt"])
    def test_rule_error_is_the_library_message(self, tmp_path, capsys, kind, old, new, check):
        # each rule has one owner, which both the library and the CLI's build call
        with pytest.raises(ValueError) as raised:
            check()
        body = tiny_config(kind)
        assert old in body
        path = write_config(tmp_path, "c.ini", body.replace(old, new))
        assert main(["--out", str(tmp_path / "out"), "run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == str(raised.value)
        assert not (tmp_path / "out").exists()

    def test_infinite_tol_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "p.ini", PICARD_CONFIG + "tol = inf\n")
        assert main(["validate", path]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == (
            "tol must be positive and finite, got inf")

    @pytest.mark.parametrize("kind", ["gn-ratio", "bb-ratio-3d"])
    def test_infinite_box_length_fails_run(self, tmp_path, capsys, kind):
        body = tiny_config(kind).replace("box_length = 6.283185307179586", "box_length = inf")
        out_dir = tmp_path / "out"
        assert main(["--out", str(out_dir), "run", write_config(tmp_path, "c.ini", body)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == (
            "box_length must be positive and finite, got inf")
        assert not out_dir.exists()

    def test_out_under_a_file_is_one_json_line(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)
        assert main(["--out", str(tmp_path / "afile" / "sub"), "run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "Not a directory" in json.loads(captured.err)["error"]

    def test_numeric_fault_in_a_pool_task_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        # numpy's error state is per thread: the pool's tasks run under main's scope too
        in_pool = []

        def overflowing(omega, n_eval):
            in_pool.append(threading.current_thread() is not threading.main_thread())
            return float(np.float64(1e308) * 10.0)

        monkeypatch.setattr(cli, "gn_ratio", overflowing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--threads", "2", "--out", str(tmp_path / "out"), "run", path]) == 1
        captured = capsys.readouterr()
        assert caught == [] and captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "overflow encountered in scalar multiply"
        assert in_pool and all(in_pool)
        assert not (tmp_path / "out").exists()

    def test_memory_error_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "refinement_study", exhausted)
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)
        assert main(["--out", str(tmp_path / "out"), "run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "MemoryError"

    def test_zero_q_range_named(self, tmp_path, capsys):
        body = tiny_config("maxwell-strichartz")
        assert "\nq = 4.0\n" in body
        path = write_config(tmp_path, "c.ini", body.replace("\nq = 4.0\n", "\nq = 0\n"))
        assert main(["validate", path]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == (
            "inadmissible exponents: range violated: q must satisfy 2 <= q <= inf, got 0.0")

    @pytest.mark.parametrize("kind, old, new, key", [
        ("oseen-scaling", "t_count = 3", "t_count = 3\nalpha0 = inf", "alpha0"),
        ("picard", "nt = 8", "nt = 8\namplitude = nan", "amplitude"),
        ("continuous-dependence", "epsilons = 1e-3 1e-2", "epsilons = 1e-3 inf", "epsilons"),
        ("bb-ratio-2d", "count = 2", "count = 2\nbeta = inf", "beta"),
        ("maxwell-strichartz", "s = 0.5", "s = nan", "s"),
    ])
    def test_non_finite_float_key_named(self, tmp_path, capsys, kind, old, new, key):
        body = tiny_config(kind)
        assert old in body
        path = write_config(tmp_path, "c.ini", body.replace(old, new))
        for command in ("validate", "run"):
            assert main(["--out", str(tmp_path / "out"), command, path]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert json.loads(captured.err)["error"].startswith(f"{key} must be finite, got ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_zero_alpha0_rejected(self, tmp_path, capsys, command):
        # every norm of a zero vortex vanishes, so its log-log slopes are NaN
        body = tiny_config("oseen-scaling") + "alpha0 = 0\n"
        path = write_config(tmp_path, "c.ini", body)
        assert main(["--out", str(tmp_path / "out"), command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "alpha0 must be nonzero, got 0.0"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha0, t_min", [("1e306", "1e-05"), ("1.0", "5e-324")])
    def test_overflowing_peak_vorticity_rejected(self, tmp_path, capsys, alpha0, t_min):
        body = tiny_config("oseen-scaling").replace("t_min = 0.02", f"t_min = {t_min}")
        path = write_config(tmp_path, "c.ini", body + f"alpha0 = {alpha0}\n")
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == (
            "peak vorticity |alpha0| / (4 pi t_min) overflows: "
            f"alpha0 = {float(alpha0):g}, t_min = {float(t_min):g}")

    def test_infinite_strichartz_time_exponents_allowed(self, tmp_path):
        # (q, r, q_tilde, s, k) = (inf, 2, inf, 0, 1/2) is admissible
        body = tiny_config("maxwell-strichartz")
        for old, new in (("\nq = 4.0", "\nq = inf"), ("r = 4.0", "r = 2.0"),
                         ("q_tilde = 4.0", "q_tilde = inf"), ("s = 0.5", "s = 0.0"),
                         ("k = 0.75", "k = 0.5")):
            body = body.replace(old, new)
        path, out_dir = write_config(tmp_path, "c.ini", body), tmp_path / "out"
        assert main(["validate", path]) == 0
        # +-inf is no NaN: a run writes them in its summary
        assert main(["--out", str(out_dir), "run", path]) == 0
        exponents = json.loads((out_dir / "maxwell-strichartz-7.json").read_text())["exponents"]
        assert exponents["q"] == exponents["q_tilde"] == np.inf

    @pytest.mark.parametrize("kind, old, new, message", [
        # the vortex core sqrt(4 t_min) is far below h: at 1e-12 W11 would be 0 and its
        # log -inf; at 1e-6 the W11 slope would read 35.8
        ("oseen-scaling", "n = 32\nbox_length = 6.283185307179586\nt_min = 0.02",
         "n = 64\nbox_length = 8.0\nt_min = 1e-12",
         "vortex core too narrow for grid: sqrt(4*t_min) spans 1.6e-05 cells at "
         "t_min = 1e-12, must be >= 1.25 (h = 0.125)"),
        ("oseen-scaling", "n = 32\nbox_length = 6.283185307179586\nt_min = 0.02",
         "n = 64\nbox_length = 8.0\nt_min = 1e-06",
         "vortex core too narrow for grid: sqrt(4*t_min) spans 0.016 cells at "
         "t_min = 1e-06, must be >= 1.25 (h = 0.125)"),
        ("bb-ratio-3d", "box_length = 6.283185307179586", "box_length = 1e-300",
         "box_length 1e-300 too small for n = 8: the largest |k|^2, dim * (pi n / "
         "box_length)^2, overflows"),
        # a box whose volume L^dim overflows, named by the Grid before any time step
        ("maxwell-strichartz", "box_length = 6.283185307179586\ncount = 1\nnt = 9",
         "box_length = 1e300\ncount = 1\nnt = 5", "box_length 1e+300 too large: L^3 overflows"),
        ("wave-fixture", "box_length = 6.283185307179586\nnt = 16",
         "box_length = 1e300\nnt = 5", "box_length 1e+300 too large: L^3 overflows"),
        ("wave-fixture", "box_length = 6.283185307179586\nnt = 16",
         "box_length = 1e300\nnt = 5\nhorizon = 1e299",
         "box_length 1e+300 too large: L^3 overflows"),
        # |k|^2 and the time step are finite here; the cell volume h^3 was not
        ("maxwell-strichartz", "box_length = 6.283185307179586\ncount = 1\nnt = 9",
         "box_length = 1e150\ncount = 1\nnt = 5", "box_length 1e+150 too large: L^3 overflows"),
        ("wave-fixture", "box_length = 6.283185307179586\nnt = 16",
         "box_length = 1e150\nnt = 5", "box_length 1e+150 too large: L^3 overflows"),
        ("gn-ratio", "box_length = 6.283185307179586", "box_length = 1e160",
         "box_length 1e+160 too large: L^2 overflows"),
        # finite data whose norms overflow: named before any solve, with no numpy warning
        ("picard", "family = two-mode", "family = two-mode\namplitude = 1e200",
         "initial vorticity: its W11 norm A0 = inf leaves no t0 = 1/A0^2 > 0"),
        ("picard", "family = two-mode\nnt = 8\nt_horizon_cap = 0.2",
         "family = two-mode\nnt = 8\nt0 = 0.1\namplitude = 1e200",
         "initial vorticity W11 norm overflows"),
        # a finite spectrum whose gradient overflows, named before the mean check re-samples it
        ("picard", "family = two-mode\nnt = 8\nt_horizon_cap = 0.2",
         "family = two-mode\nnt = 8\nt0 = 0.1\namplitude = 1e306",
         "initial vorticity W11 norm overflows"),
        ("continuous-dependence", "epsilons = 1e-3 1e-2", "epsilons = 1e-3 1e300",
         "perturbation W11 norm overflows at epsilon 1e+300"),
    ], ids=["oseen-t_min", "oseen-t_min-1e-6", "bb3-box_length", "strichartz-box_length",
            "wave-box_length", "wave-horizon", "strichartz-box_volume", "wave-box_volume",
            "gn-box_volume", "picard-calibrated-amplitude", "picard-amplitude",
            "picard-amplitude-w11", "cd-epsilon"])
    def test_numeric_fault_named(self, tmp_path, capsys, kind, old, new, message):
        body = tiny_config(kind)
        assert old in body
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, "c.ini", body.replace(old, new))
        assert main(["--out", str(out_dir), "run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == message
        assert not out_dir.exists()

    @pytest.mark.parametrize("where, message", [
        ("row", "report rows key '1.W11' is NaN; no report written"),
        ("footer", "report footer key 'slope_W11' is NaN; no report written"),
        ("summary", "report summary key 'rows.1.W11' is NaN; no report written"),
    ], ids=["row", "footer", "summary"])
    def test_nan_report_refused(self, tmp_path, capsys, monkeypatch, where, message):
        experiment = cli.EXPERIMENTS["oseen-scaling"]

        def with_nan(*args):
            columns, rows, footer, summary = experiment.run(*args)
            if where == "row":
                rows[1] = (rows[1][0], np.nan, *rows[1][2:])
            elif where == "footer":
                footer["slope_W11"] = np.nan
            else:
                summary = {"rows": [{"W11": 1.0}, {"W11": np.nan}]}
            return columns, rows, footer, summary

        monkeypatch.setitem(cli.EXPERIMENTS, "oseen-scaling", replace(experiment, run=with_nan))
        out_dir = tmp_path / "out"
        path = write_config(tmp_path, "c.ini", tiny_config("oseen-scaling"))
        assert main(["--out", str(out_dir), "run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == message
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind, beta, level", [
        ("bb-ratio-2d", "1e5", "n_eval 16"),
        ("gn-ratio", "1e5", "n_eval 16"),
        ("bb-ratio-3d", "1e5", "n_eval 8"),
    ])
    def test_all_degenerate_level_is_an_error(self, tmp_path, capsys, kind, beta, level):
        # |w_hat| ~ (1+|k|^2)^(-beta/2) underflows: every member is zero
        body = tiny_config(kind).replace("count = 2", f"count = 3\nbeta = {beta}")
        out_dir = tmp_path / "out"
        assert main(["--out", str(out_dir), "run", write_config(tmp_path, "c.ini", body)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        ratio = kind.replace("-", "_")  # the kind's ratio function
        assert json.loads(captured.err)["error"] == (
            f"{ratio} at {level}: all 3 members discarded; member 0: "
            f"{ratio} rejected: denominator vanishes (constant field)")
        assert not out_dir.exists()  # no report of an empty level

    def test_all_degenerate_fixtures_are_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "strichartz_ratio_experiment",
                            lambda *args: {"rows": [], "family_max": 0.0, "family_mean": 0.0,
                                           "discarded": 1})
        path = write_config(tmp_path, "c.ini", tiny_config("maxwell-strichartz"))
        assert main(["--out", str(tmp_path / "out"), "run", path]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == (
            "maxwell-strichartz at n 8: every fixture has RHS < 1e-12")

    def test_partial_discard_stays_a_count(self, tmp_path, monkeypatch):
        ratio = cli.gn_ratio
        calls = []

        def first_degenerate(omega, n_eval):
            calls.append(n_eval)
            if len(calls) == 1:
                raise ValueError("gn_ratio rejected: denominator vanishes (constant field)")
            return ratio(omega, n_eval)

        monkeypatch.setattr(cli, "gn_ratio", first_degenerate)
        path = write_config(tmp_path, "c.ini", tiny_config("gn-ratio"))
        assert main(["--out", str(tmp_path / "out"), "run", path]) == 0
        levels = json.loads(read_outputs(tmp_path / "out")["gn-ratio-7.json"])["levels"]
        assert [lv["discarded"] for lv in levels] == [1]

    def test_wide_vortex_named(self):
        cfg = {
            "seed": 0, "n": 32, "box_length": 2.0, "out": ".",
            "alpha0": 1.0, "t_min": 0.001, "t_max": 0.5, "t_count": 3,
        }
        with pytest.raises(ValueError, match=re.escape(
                "vortex too wide for box: sqrt(4t) = 1.41 exceeds L/16 = 0.125")):
            validate_config("oseen-scaling", cfg)


def run_gn(tmp_path, sub):
    out_dir = tmp_path / sub
    path = write_config(tmp_path, f"gn-{sub}.ini", GN_CONFIG)
    assert main(["--out", str(out_dir), "run", path]) == 0
    return out_dir


def read_outputs(out_dir):
    data = {}
    for name in sorted(os.listdir(out_dir)):
        with open(out_dir / name, "rb") as fh:
            data[name] = fh.read()
    return data


class TestRun:
    def test_outputs_written(self, tmp_path):
        out_dir = run_gn(tmp_path, "a")
        names = set(os.listdir(out_dir))
        assert names == {"gn-ratio-3.csv", "gn-ratio-3.json", "manifest.json"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiment"] == "gn-ratio"
        assert manifest["config"]["seed"] == 3
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "fft_backend": "numpy.fft/pocketfft",
        }

    def test_rerun_byte_identical(self, tmp_path):
        a = read_outputs(run_gn(tmp_path, "a"))
        b = read_outputs(run_gn(tmp_path, "b"))
        # manifest carries wall clock time; the data files must match exactly
        for name in ("gn-ratio-3.csv", "gn-ratio-3.json"):
            assert a[name] == b[name]

    def test_thread_count_invariance(self, tmp_path):
        # the pool takes the samples of every level; reports keep the
        # config's level order at every thread count
        body = GN_CONFIG + "n_eval = 40 64 32\n"
        path = write_config(tmp_path, "gn-sweep.ini", body)
        outputs = []
        for threads in (1, 2, 4):
            out_dir = tmp_path / f"t{threads}"
            assert main(
                ["--threads", str(threads), "--out", str(out_dir), "run", path]
            ) == 0
            outputs.append(read_outputs(out_dir))
        levels = json.loads(outputs[0]["gn-ratio-3.json"])["levels"]
        assert [lv["n_eval"] for lv in levels] == [40, 64, 32]
        for name in ("gn-ratio-3.csv", "gn-ratio-3.json"):
            assert outputs[0][name] == outputs[1][name] == outputs[2][name]

    def test_wave_fixture_run(self, tmp_path):
        body = """\
[wave-fixture]
seed = 5
n = 16
box_length = 6.283185307179586
nt = 64
"""
        path = write_config(tmp_path, "wf.ini", body)
        out_dir = tmp_path / "wf"
        assert main(["--out", str(out_dir), "run", path]) == 0
        summary = json.loads((out_dir / "wave-fixture-5.json").read_text())
        assert summary["max_error"] < 1e-6


def reference_wave_fixture_rows(grid, horizon, nt):
    """The fixture's rows from a stored trajectory and a generic current."""
    x = grid.meshgrid()[0]
    j_z = ScalarField(grid, np.cos(2.0 * np.pi * x / grid.box_length))
    j_field = VectorField([ScalarField.zeros(grid), ScalarField.zeros(grid), j_z])
    zero = VectorField.zeros(grid)
    traj_b, _ = solve_wave(zero, zero, CurrentDensity(grid, lambda t: j_field), horizon, nt)
    kappa = 2.0 * np.pi / grid.box_length
    rows = []
    for t, b in traj_b:
        exact = (1.0 - np.cos(kappa * t)) / kappa * np.sin(kappa * x)
        err = float(np.max(np.abs(b.components[1].samples - exact)))
        rows.append((float(t), lp_norm(b, 2), err))
    return rows


@pytest.mark.parametrize("nt", [16, 64])
def test_wave_fixture_streams_with_two_curls(tmp_path, monkeypatch, nt):
    path = write_config(tmp_path, "wf.ini", tiny_config("wave-fixture").replace(
        "nt = 16", f"nt = {nt}"))
    kind, cfg = parse_config(path)
    grid, horizon = built = validate_config(kind, cfg)
    calls = []

    def counting_curl3d(v):
        calls.append(v.grid.n)
        return curl3d(v)

    monkeypatch.setattr(maxwell_wave, "curl3d", counting_curl3d)
    _columns, rows, *_ = EXPERIMENTS[kind].run(built, cfg, 1)
    assert len(calls) == 2
    monkeypatch.undo()
    assert rows == reference_wave_fixture_rows(grid, horizon, nt)


class TestEveryKind:
    def test_tiny_config_per_kind(self):
        assert set(TINY_KEYS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("kind", sorted(TINY_KEYS))
    def test_runs_end_to_end(self, tmp_path, kind):
        path = write_config(tmp_path, "c.ini", tiny_config(kind))
        out_dir = tmp_path / "out"
        assert main(["--threads", "2", "--out", str(out_dir), "run", path]) == 0
        assert set(os.listdir(out_dir)) == {f"{kind}-7.csv", f"{kind}-7.json", "manifest.json"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["experiment"] == kind


# extreme finite values, zero and the smallest subnormal: one key at a time
EXTREME_VALUES = ("1e300", "1e-300", "0", "5e-324", "1e306", "-1e300", "1e-12", "1e12")
# the tiny configs, and a picard config with t0 given (the tiny one calibrates its horizon)
SWEPT_CONFIGS = {**{kind: (kind, tiny_config(kind)) for kind in sorted(TINY_KEYS)},
                 "picard-t0-given": ("picard", PICARD_CONFIG)}
FLOAT_KEYS = [(name, key) for name, (kind, _body) in SWEPT_CONFIGS.items()
              for key, (conv, _req, _default) in {**cli._COMMON, **EXPERIMENTS[kind].keys}.items()
              if conv is float]


@pytest.mark.parametrize("name, key", FLOAT_KEYS, ids=[f"{n}-{key}" for n, key in FLOAT_KEYS])
def test_extreme_float_value_is_a_result_or_one_error_line(tmp_path, capsys, name, key):
    # exit 0 with nothing on stderr and no NaN in a report, or exit 1 with one JSON line;
    # a numpy warning counts as a stderr line
    faults = []
    for i, value in enumerate(EXTREME_VALUES):
        # each run as in its own process: a cached multiplier or panel weight would not warn again
        for fn in (mild_solver._panel_weights, *vars(Grid).values()):
            getattr(fn, "cache_clear", lambda: None)()
        lines = [line for line in SWEPT_CONFIGS[name][1].splitlines()
                 if not line.startswith(key + " =")]
        path = write_config(tmp_path, f"c{i}.ini", "\n".join(lines + [f"{key} = {value}", ""]))
        out_dir = tmp_path / f"out{i}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(out_dir), "run", path])
        err = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
        if code == 0:
            ok = not err and not any(re.search(r"\bnan\b", p.read_text(), re.IGNORECASE)
                                     for p in out_dir.iterdir())
        else:
            ok = code == 1 and len(err) == 1 and "error" in json.loads(err[0])
        if not ok:
            faults.append((value, code, err))
    assert faults == []


class TestNonConvergence:
    def test_picard_writes_reports_then_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, "p.ini", PICARD_CONFIG + "max_iter = 1\n")
        out_dir = tmp_path / "out"
        assert main(["--out", str(out_dir), "run", path]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = json.loads(err)["error"]
        assert "did not converge in 1 iterations" in message
        assert "last sup-in-time W11 difference" in message
        summary = json.loads((out_dir / "picard-4.json").read_text())
        assert summary["converged"] is False and summary["iterations"] == 1
        assert (out_dir / "picard-4.csv").exists()

    def test_continuous_dependence_fails(self, tmp_path, capsys):
        body = PICARD_CONFIG.replace("[picard]", "[continuous-dependence]")
        path = write_config(
            tmp_path, "cd.ini", body + "epsilons = 1e-3\nmax_iter = 1\n"
        )
        assert main(["--out", str(tmp_path / "out"), "run", path]) == 1
        message = json.loads(capsys.readouterr().err)["error"]
        assert "did not converge in 1 iterations" in message


class TestRatioPool:
    """--threads spreads the members of a ratio or maxwell-strichartz family
    over one pool, in one map per run; a ratio member takes every level in
    its own task."""

    @pytest.mark.parametrize("body", [
        "[bb-ratio-3d]\nseed = 7\nn = 16\nbox_length = 6.283185307179586\ncount = 3\n",
        "[bb-ratio-2d]\nseed = 7\nn = 16\nbox_length = 6.283185307179586\ncount = 3\n"
        "n_eval = 32 16 64\n",
        "[bb-ratio-3d]\nseed = 7\nn = 8\nbox_length = 6.283185307179586\ncount = 3\n"
        "n_eval = 8 16\n",
        tiny_config("maxwell-strichartz").replace("count = 1", "count = 3"),
    ], ids=["bb-ratio-3d-single-level", "bb-ratio-2d-three-levels", "bb-ratio-3d-two-levels",
            "maxwell-strichartz"])
    def test_reports_independent_of_threads(self, tmp_path, body):
        path = write_config(tmp_path, "r.ini", body)
        outputs = []
        for threads in (1, 2, 4):
            out_dir = tmp_path / f"t{threads}"
            assert main(["--threads", str(threads), "--out", str(out_dir), "run", path]) == 0
            outputs.append({k: v for k, v in read_outputs(out_dir).items()
                            if k != "manifest.json"})
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1] == outputs[2]

    def test_pool_bounded_by_its_work(self, tmp_path, monkeypatch):
        workers = []
        mapped = []

        class Recording:  # maps on the calling thread, so no thread starts
            def __init__(self, max_workers, initializer):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                mapped.append(workers[-1])
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        body = GN_CONFIG.replace("count = 3", "count = 4") + "n_eval = 32 64\n"
        path = write_config(tmp_path, "gn.ini", body)
        for threads, expect in ((5000, 4), (3, 3), (1, 1)):
            assert main(["--threads", str(threads), "--out", str(tmp_path / "o"), "run", path]) == 0
            assert workers.pop() == expect
        assert mapped == [4, 3]  # one map per run, over both levels; one thread maps here
        body = tiny_config("maxwell-strichartz").replace("count = 1", "count = 3")
        path = write_config(tmp_path, "ms.ini", body)
        assert main(["--threads", "2", "--out", str(tmp_path / "m"), "run", path]) == 0
        assert workers == [2] and mapped[2:] == [2]  # the fixtures share the pool too
        # and at most the usable CPUs, from the flag or the environment, as the manifest says
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("VORTEXLAB_THREADS", "5000")
        path = write_config(tmp_path, "gn.ini", GN_CONFIG)  # count 3
        for flag in (["--threads", "5000"], []):
            out_dir = tmp_path / f"capped{len(flag)}"
            assert main([*flag, "--out", str(out_dir), "run", path]) == 0
            assert workers.pop() == 2
            assert json.loads((out_dir / "manifest.json").read_text())["threads"] == 2
