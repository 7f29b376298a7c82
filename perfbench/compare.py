"""Compare two sets of benchmark records written by run.py.

    python3 perfbench/compare.py OLD.json [OLD.json ...] -- NEW.json [NEW.json ...]

Each side's records must come from one workload.  For every metric the
script prints each side's median and quartiles and the ratio of medians.
Records whose environments differ (Python, numpy, FFT backend, numba, core
count, threads, machine and kernel, size or window) are flagged: their timings are not
comparable.  The seed and the source hash are expected to differ.
"""

import json
import statistics
import sys

ENV_KEYS = ("python", "numpy", "fft_backend", "numba_importable", "numba_active",
            "nproc", "threads", "machine", "platform")


def load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    workloads = {r["workload"] for r in records}
    if len(workloads) != 1:
        sys.exit(f"compare: one workload per side, got {sorted(workloads)}")
    return records


def fingerprint(record):
    env = record["env"]
    return tuple((k, env.get(k)) for k in ENV_KEYS) + (
        ("size", record["size"]), ("seconds", record["seconds"]), ("trace", record["trace"]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metrics(record):
    return record["layers"] if record["trace"] else record["end_to_end"]


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    old, new = load(argv[:cut]), load(argv[cut + 1:])
    prints = {fingerprint(r) for r in old + new}
    if len(prints) > 1:
        print("WARNING: environments differ; timings are not comparable:")
        for p in sorted(prints):
            print("  " + ", ".join(f"{k}={v}" for k, v in p))
    print(f"workload {old[0]['workload']} -> {new[0]['workload']}: "
          f"{len(old)} vs {len(new)} records")
    names = sorted(set(metrics(old[0])) & set(metrics(new[0])))
    for name in names:
        a = quartiles([metrics(r)[name] for r in old])
        b = quartiles([metrics(r)[name] for r in new])
        ratio = f"{b[1] / a[1]:.3f}" if a[1] else "n/a"
        print(f"{name:<36} {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]  ->  "
              f"{b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
