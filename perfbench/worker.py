"""One workload in one process: set up, check, then time passes.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
the process exits once its inputs are ready, which is how ``run.py`` samples
fresh-process set-up time.  Otherwise it runs one untimed pass whose outputs
become the reference, computes the accuracy measures from it, then repeats
the pass closed-loop (one operation at a time) until ``--seconds`` are used.
With ``--trace 1`` the second half of that window runs under the tracer.

Set-up time runs from the parent's spawn of this process until the inputs
are generated, before the first call into the workload.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import vortexlab  # noqa: E402
import vortexlab.cli  # noqa: E402
import vortexlab.fields  # noqa: E402
import vortexlab.maxwell_wave  # noqa: E402
import vortexlab.mild_solver  # noqa: E402
import vortexlab.random_data  # noqa: E402

from tracer import Patcher, Tracer  # noqa: E402

ORACLE_LIMIT = 5e-3  # criterion 3
DRIFT_LIMIT = 0.1  # criteria 7 and 11
TWO_PI = 2.0 * math.pi


def nproc():
    return len(os.sched_getaffinity(0))


def write_config(path, kind, values):
    with open(path, "w") as fh:
        fh.write(f"[{kind}]\n")
        for key, value in values.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n")


def digest_dir(path):
    """sha256 of every report file in a CLI output directory but the manifest,
    which carries wall-clock time."""
    out = {}
    for name in sorted(os.listdir(path)):
        if name != "manifest.json":
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Op:
    """Outcome of one operation: its name, an error (or None), the digest of
    its reports and the values the accuracy check reads."""

    def __init__(self, name):
        self.name = name
        self.error = None
        self.digest = None
        self.values = {}


def run_op(name, body):
    op = Op(name)
    try:
        body(op)
    except Exception:  # an op that raises is a failed op, not a crashed run
        op.error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    return op


def cli_op(name, argv, out_dir, check):
    def body(op):
        code = vortexlab.cli.main(argv)
        if code != 0:
            op.error = f"exit code {code}"
            return
        op.digest = digest_dir(out_dir)
        check(op, out_dir)

    return run_op(name, body)


# ---------------------------------------------------------------------------
# workloads; each builds its inputs in __init__ (part of set-up) and runs one
# pass of operations in run_pass(pass_dir)


class PicardC3:
    """Criterion-3 pair as `picard` configs through the CLI.  The data are
    fixed by the criterion; the seed only names the report files."""

    sizes = {"bench": 64, "smoke": 16}

    def __init__(self, seed, size, work_dir):
        n = self.sizes[size]
        common = {"seed": seed, "n": n, "nt": 32, "tol": 1e-10}
        cases = {
            "two-mode": {"family": "two-mode", "box_length": TWO_PI,
                         "amplitude": 0.05, "t0": 0.2},
            "dipole": {"family": "dipole", "box_length": 2.5, "alpha0": 1.0,
                       "separation": 0.6, "t_init": 0.002, "t0": 0.016},
        }
        self.seed = seed
        self.configs = {}
        for label, values in cases.items():
            path = os.path.join(work_dir, f"{label}.ini")
            write_config(path, "picard", {**common, **values})
            self.configs[label] = path
        self.solves = []

    def _check(self, op, out_dir):
        with open(os.path.join(out_dir, f"picard-{self.seed}.json")) as fh:
            if not json.load(fh)["converged"]:
                op.error = "picard did not converge (converged: false)"

    def run_pass(self, pass_dir):
        return [
            cli_op(label, ["--out", os.path.join(pass_dir, label), "run", cfg],
                   os.path.join(pass_dir, label), self._check)
            for label, cfg in self.configs.items()
        ]

    def reference_pass(self, pass_dir):
        """The reference pass also keeps each Picard solve for the oracle."""
        mild = vortexlab.mild_solver
        original = mild.picard_solve

        def keep(omega0, cfg):
            traj, trace = original(omega0, cfg)
            self.solves.append((omega0, cfg, traj))
            return traj, trace

        patcher = Patcher()
        patcher.replace(original, keep)
        try:
            return self.run_pass(pass_dir)
        finally:
            patcher.restore()

    def accuracy(self, _ops):
        """Criterion 3: max over both cases of the relative sup-in-time W11
        distance between the Picard trajectory and the IF-RK4 oracle."""
        if len(self.solves) != len(self.configs):
            raise RuntimeError(f"expected {len(self.configs)} Picard solves, saw {len(self.solves)}")
        w11 = vortexlab.fields.w11_norm
        errs = []
        for omega0, cfg, traj in self.solves:
            ref = vortexlab.mild_solver.reference_stepper(omega0, cfg.t0, cfg.nt)
            dist = max(w11(a - b) for a, b in zip(traj.snapshots, ref.snapshots))
            errs.append(dist / max(w11(s) for s in ref.snapshots))
        err = max(errs)
        return {"oracle_err": err}, err < ORACLE_LIMIT


def refine_drift(maxima):
    """|max at the finest level - max at the coarsest| / max at the coarsest."""
    return abs(maxima[-1] - maxima[0]) / maxima[0]


class StrichartzC11:
    """Criterion-11 subset with its call signature, at two evaluation grids."""

    # (n, fixture count, evaluation grids)
    sizes = {"bench": (16, 2, (16, 32)), "smoke": (8, 1, (8, 16))}

    def __init__(self, seed, size, _work_dir):
        n, self.count, self.levels = self.sizes[size]
        self.seed = seed
        self.grid = vortexlab.fields.Grid(3, n, TWO_PI)
        self.exponents = vortexlab.maxwell_wave.StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)
        self.horizon = self.grid.box_length / 4.0

    def _level(self, n_eval):
        def body(op):
            fixtures = vortexlab.random_data.wave_fixture_family(
                self.grid, seed=self.seed, count=self.count, n_eval=n_eval
            )
            rep = vortexlab.maxwell_wave.strichartz_ratio_experiment(
                self.exponents, fixtures, self.horizon, 33
            )
            op.digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
            op.values["family_max"] = rep["family_max"]

        return run_op(f"n_eval={n_eval}", body)

    def run_pass(self, _pass_dir):
        return [self._level(m) for m in self.levels]

    reference_pass = run_pass

    def accuracy(self, ops):
        drift = refine_drift([op.values["family_max"] for op in ops])
        return {"refine_drift": drift}, drift < DRIFT_LIMIT


class Ratio3dC7:
    """Criterion-7 3D refinement as a `bb-ratio-3d` config through the CLI,
    the only path through the CLI's thread pool."""

    # (n, count, evaluation grids)
    sizes = {"bench": (32, 4, (32, 64)), "smoke": (8, 2, (8, 16))}

    def __init__(self, seed, size, work_dir):
        n, count, levels = self.sizes[size]
        self.seed = seed
        self.threads = min(2, nproc())
        self.config = os.path.join(work_dir, "bb-ratio-3d.ini")
        write_config(self.config, "bb-ratio-3d", {
            "seed": seed, "n": n, "box_length": TWO_PI, "beta": 2.0,
            "count": count, "n_eval": " ".join(map(str, levels)),
        })

    def _check(self, op, out_dir):
        with open(os.path.join(out_dir, f"bb-ratio-3d-{self.seed}.json")) as fh:
            levels = json.load(fh)["levels"]
        op.values["family_max"] = [lv["family_max"] for lv in levels]

    def run_pass(self, pass_dir):
        out = os.path.join(pass_dir, "bb-ratio-3d")
        argv = ["--threads", str(self.threads), "--out", out, "run", self.config]
        return [cli_op("bb-ratio-3d", argv, out, self._check)]

    reference_pass = run_pass

    def accuracy(self, ops):
        drift = refine_drift(ops[0].values["family_max"])
        return {"refine_drift": drift}, drift < DRIFT_LIMIT


WORKLOADS = {"picard-c3": PicardC3, "strichartz-c11": StrichartzC11, "ratio3d-c7": Ratio3dC7}


# ---------------------------------------------------------------------------


def environment(workload, seed):
    try:
        from vortexlab import _accel
        numba_active = bool(getattr(_accel, "NUMBA_ENABLED", False))
    except ImportError:
        numba_active = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": numpy.fft.fftn.__module__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_active": numba_active,
        "nproc": nproc(),
        "threads": getattr(workload, "threads", 1),
        "seed": seed,
    }


class Runner:
    """Passes of one workload, with the reference outputs every pass must match."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None

    def run(self, reference=False):
        pass_dir = os.path.join(self.work_dir, f"pass-{self.passes}")
        os.makedirs(pass_dir)
        start = time.perf_counter()
        if reference:
            ops = self.workload.reference_pass(pass_dir)
        else:
            ops = self.workload.run_pass(pass_dir)
        elapsed = time.perf_counter() - start
        if reference:
            self.reference = [op.digest for op in ops]
        for op, want in zip(ops, self.reference):
            if op.error is None and op.digest != want:
                op.error = "reports differ from the reference pass"
            if op.error is not None:
                self.failed += 1
                self.failures.append(f"pass {self.passes} {op.name}: {op.error}")
        self.attempted += len(ops)
        self.passes += 1
        shutil.rmtree(pass_dir)
        return elapsed, ops

    def timed(self, seconds, tracer=None):
        """Repeat passes while the next one is expected to end within `seconds`.
        Returns the pass times and, with a tracer, each pass's layer summary."""
        times, layers = [], []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() + statistics.median(times) <= deadline:
            mark = tracer.mark() if tracer else None
            times.append(self.run()[0])
            if tracer:
                layers.append(tracer.summary(mark))
        return times, layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", help="where to write the result JSON")
    parser.add_argument("--spans", help="where to write the traced run's spans")
    args = parser.parse_args()

    os.makedirs(args.work_dir)
    workload = WORKLOADS[args.workload](args.seed, args.size, args.work_dir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(workload, args.work_dir)
    _, ref_ops = runner.run(reference=True)
    result = {"setup_s": setup_s, "env": environment(workload, args.seed)}
    tracer = Tracer() if args.trace else None
    accurate = False
    if all(op.error is None for op in ref_ops):
        if tracer:
            tracer.install()
            mark = tracer.mark()
        try:
            values, accurate = workload.accuracy(ref_ops)
        except Exception:
            values = {}
            runner.failures.append("accuracy: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        if tracer:
            tracer.uninstall()
            result["accuracy_layers"] = tracer.summary(mark)
        result.update(values)
        if values and not accurate:
            runner.failures.append(f"accuracy out of bounds: {values}")

    window = args.seconds / 2.0 if tracer else args.seconds
    result["pass_s"], _ = runner.timed(window)
    if tracer:
        tracer.install()
        traced, layers = runner.timed(window, tracer)
        tracer.uninstall()
        result.update(traced_pass_s=traced, traced_layers=layers, skipped=tracer.skipped)
        tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # outputs of every pass equal the reference's, so an inaccurate reference fails every op
    failed = runner.failed if accurate else runner.attempted
    result.update(attempted=runner.attempted, failed=failed, failures=runner.failures[:20])
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
