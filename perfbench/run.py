"""End-to-end and per-layer benchmark of vortexlab.

    python3 perfbench/run.py --workload picard-c3 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seeds

Run from the root of a source checkout; the package is imported from its
``src/``.  Workloads are described in ``perfbench/README.md``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time to import vortexlab and build the workload's
inputs), ``run_s`` (median wall time of one pass) and ``peak_rss_mb``.
``--trace 1`` splits the window between untraced and traced passes and
reports per-layer self times and counts.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
above it is for people, and the full record (environment, every pass time,
every layer) is written to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("picard-c3", "strichartz-c11", "ratio3d-c7")
# the criteria's seeds; 1021 and 1007 are held out for checking claimed gains
DEFAULT_SEEDS = {"picard-c3": 3, "strichartz-c11": 21, "ratio3d-c7": 7}
# fresh set-up-only processes per untraced run, half before and half after the
# timed window; the measuring worker is one more sample
SETUP_PROBES = 16
PROBE_LIMIT_S = 10.0
TIME_LIMIT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD commit of the checkout; None when it is not a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def source_stats():
    """Line count and content hash of the Python sources under src/."""
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return lines, digest.hexdigest()


def worker(args, work_dir, extra, timeout):
    """Run worker.py to completion; returns its stdout.  Killed at `timeout`."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--work-dir", work_dir, "--spawned-at", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} worker exceeded {timeout:.0f} s and was stopped")
    if proc.returncode != 0:
        fail(f"{args.workload} worker exited with code {proc.returncode}")
    return proc.stdout.decode()


def percentile_note(samples):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    if best is None:
        return f"no percentile has 10 samples beyond it at n={n}"
    value = statistics.quantiles(samples, n=100, method="inclusive")[best - 1]
    return f"p{best} {value:.4f} s"


def spec_metrics(kind):
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def layer_metrics(result, lines):
    """Per-layer values from the traced passes: medians of times, and counts,
    which must repeat exactly from pass to pass."""
    passes = result["traced_layers"]
    names = sorted(set().union(*passes))
    out = {}
    repeat = True
    for name in names:
        values = [p.get(name, 0) for p in passes]
        if name.endswith(".self_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            repeat = repeat and len(set(values)) == 1
    self_total = [sum(v for k, v in p.items() if k.endswith(".self_s")) for p in passes]
    traced = statistics.median(result["traced_pass_s"])
    out["unattributed_s"] = statistics.median(
        t - s for t, s in zip(result["traced_pass_s"], self_total)
    )
    out["trace.overhead_s"] = traced - statistics.median(result["pass_s"])
    out["src.lines"] = lines
    for name, value in result.get("accuracy_layers", {}).items():
        out.setdefault(f"accuracy.{name}", value)
    return out, repeat


def run_workload(args, lines, src_hash):
    os.makedirs(OUT, exist_ok=True)
    started = time.monotonic()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    probes = 0 if args.trace else SETUP_PROBES  # a traced run reports no setup_s
    setup = []

    def probe(count):
        for _ in range(count):
            work_dir = os.path.join(OUT, f"{tag}-setup{len(setup)}")
            left = TIME_LIMIT_S - (time.monotonic() - started)
            stdout = worker(args, work_dir, ["--setup-only"], min(PROBE_LIMIT_S, left))
            setup.append(json.loads(stdout.strip().splitlines()[-1])["setup_s"])
            shutil.rmtree(work_dir)

    probe(probes // 2)
    result_path = os.path.join(OUT, f"{tag}.worker.json")
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    spans_path = record_path.replace(".json", ".spans.jsonl")
    remaining = (TIME_LIMIT_S - (time.monotonic() - started)
                 - PROBE_LIMIT_S / 4 * (probes - probes // 2))
    worker(args, os.path.join(OUT, f"{tag}-work"),
           ["--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path,
            "--spans", spans_path],
           remaining)
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    shutil.rmtree(os.path.join(OUT, f"{tag}-work"))
    probe(probes - probes // 2)

    setup.append(result["setup_s"])
    env = dict(result["env"], git_sha=git_sha(), src_sha256=src_hash,
               machine=platform.machine(), platform=platform.platform())
    passes = result["pass_s"]
    e2e = {"setup_s": statistics.median(setup), "run_s": statistics.median(passes),
           "peak_rss_mb": result["peak_rss_mb"]}
    correct = result["failed"] == 0
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup_s      {e2e['setup_s']:.4f} s   median of {len(setup)} fresh processes")
    print(f"run_s        {e2e['run_s']:.4f} s   median of {len(passes)} passes; "
          + percentile_note(passes))
    print(f"peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    share = result["failed"] / result["attempted"]
    print(f"ops_failed   {share:.4f}   {result['failed']} of {result['attempted']} ops")
    for key in ("oracle_err", "refine_drift"):
        if key in result:
            print(f"{key:<12} {result[key]:.4e}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_samples_s": setup, "pass_s": passes, "end_to_end": e2e,
              "ops_failed": share,
              **{k: result[k] for k in ("oracle_err", "refine_drift", "attempted",
                                        "failed", "failures") if k in result}}
    if args.trace:
        layers, repeat = layer_metrics(result, lines)
        correct = correct and repeat
        if not repeat:
            print("FAILED per-layer counts differ between traced passes")
        if result["skipped"]:
            print("tracer skipped names not in this version: " + ", ".join(result["skipped"]))
        total = statistics.median(result["traced_pass_s"])
        print(f"traced pass  {total:.4f} s   median of {len(result['traced_pass_s'])}; "
              f"overhead {layers['trace.overhead_s']:+.4f} s")
        for name in sorted(layers, key=lambda k: -layers[k] if k.endswith("self_s") else 0):
            if name.endswith(".self_s") and not name.startswith("accuracy."):
                print(f"  {name:<30} {layers[name]:9.4f} s  {100 * layers[name] / total:5.1f}%")
        record.update(traced_pass_s=result["traced_pass_s"], layers=layers,
                      skipped=result["skipped"], counts_repeat=repeat)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in spec_metrics("per_layer").items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in spec_metrics("end_to_end").items()}
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"record: {os.path.relpath(record_path, ROOT)}"
          + (f", spans: {os.path.relpath(spans_path, ROOT)}" if args.trace else ""))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the criterion's seed)")
    parser.add_argument("--seconds", type=int, default=30, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench",
                        help="smoke: smallest sizes, for the benchmark's own smoke test")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed is not None and args.seed < 0:
        fail("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "vortexlab", "__init__.py")):
        fail(f"no vortexlab sources under {os.path.join(ROOT, 'src')}; run from a checkout")
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at the checkout root")
    lines, src_hash = source_stats()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    seed = args.seed
    for name in names:
        args.workload = name
        args.seed = DEFAULT_SEEDS[name] if seed is None else seed
        summary = run_workload(args, lines, src_hash)
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
