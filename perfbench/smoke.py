"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and twice traced, and
checks that:

* the last line is the result object, with every metric BENCHMARK.json names
  and the unit it gives, and no operation failed;
* per-layer counts repeat exactly between the two traced runs;
* a wrapped name missing from the package is skipped, not a crash;
* the benchmark exits nonzero, printing no result, in a directory holding
  only BENCHMARK.json and the benchmark.

Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
WORKLOADS = ("picard-c3", "strichartz-c11", "ratio3d-c7")

problems = []


def check(ok, message):
    if not ok:
        problems.append(message)
        print("FAIL " + message)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "2", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


def result_of(proc, label):
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
    try:
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (IndexError, ValueError):
        check(False, f"{label}: last line is not a JSON object")
        return None


def check_result(result, spec, label):
    if result is None:
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0, f"{label}: not correct")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    check(got == want, f"{label}: metrics/units differ from BENCHMARK.json: "
                       f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, entry in result.get("metrics", {}).items():
        check(isinstance(entry.get("value"), (int, float)), f"{label}: {name} is not a number")


def check_skipping():
    import vortexlab.heat
    import vortexlab.kernels
    from tracer import Tracer

    removed = {(vortexlab.heat, "duhamel_derivative_term"), (vortexlab.kernels, "magnitude")}
    saved = {(mod, name): getattr(mod, name) for mod, name in removed}
    for mod, name in removed:
        delattr(mod, name)
    tracer = Tracer()
    try:
        tracer.install()
        f = vortexlab.fields.ScalarField.zeros(vortexlab.fields.Grid(2, 8, 1.0))
        vortexlab.fields.lp_norm(vortexlab.fields.derivative(f, 0), 2)
    finally:
        tracer.uninstall()
        for (mod, name), fn in saved.items():
            setattr(mod, name, fn)
    check({"heat.duhamel_derivative_term", "kernels.magnitude"} <= set(tracer.skipped),
          f"deleted names not reported as skipped: {tracer.skipped}")
    layers = {span[2] for span in tracer.spans}
    check({"fields.norm", "fields.calculus", "fft"} <= layers, f"spans missing: {layers}")
    check(vortexlab.fields.lp_norm.__module__ == "vortexlab.fields"
          and not hasattr(vortexlab.fields.lp_norm, "__wrapped__"), "uninstall left a wrapper")


def check_bare_directory():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = run("picard-c3", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check(not proc.stdout.strip(), "bare directory: printed a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    for workload in WORKLOADS:
        check_result(result_of(run(workload, 0), f"{workload} trace 0"), spec["end_to_end"],
                     f"{workload} trace 0")
        traced = []
        for i in range(2):
            result = result_of(run(workload, 1), f"{workload} trace 1 #{i}")
            check_result(result, spec["per_layer"], f"{workload} trace 1 #{i}")
            traced.append(result)
        if all(traced):
            for name in counts:
                values = [r["metrics"][name]["value"] for r in traced]
                check(values[0] == values[1], f"{workload}: count {name} differs: {values}")
        print(f"ok {workload}")
    check_skipping()
    check_bare_directory()
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
