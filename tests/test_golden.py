"""Same numbers and same costs: every report of the committed golden corpus,
byte for byte, and what each of its runs spends.

``tests/golden`` holds nine small configs, one or two per experiment kind,
and the CSV and JSON reports each wrote (``golden/<config>/``).  Each runs
here through ``cli.main`` at one and at two threads into its own ``--out``,
and every report byte but the manifest's must match.  A change that moves a
value on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and logs the file, the largest absolute and relative change and the reason.

``golden/costs.json`` records, for each config at one thread, its
``numpy.fft`` calls by function and input shape, which must match exactly,
and its tracemalloc peak from cold ``Grid`` and panel-weight caches, which
may exceed the record by at most ``PEAK_SLACK`` bytes.  A change that moves
a cost on purpose rewrites the record with

    PYTHONPATH=src python tests/test_golden.py costs

which prints, per config, the largest absolute and relative change, to be
logged with the reason.
"""

import inspect
import json
import shutil
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from vortexlab import cli, mild_solver
from vortexlab.cli import EXPERIMENTS, main, parse_config
from vortexlab.fields import Grid

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.ini"))
MADE_WITH = GOLDEN / "corpus.json"
COSTS = GOLDEN / "costs.json"
TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")
# 2.5x the widest spread of one recorded peak over 20 runs of each config, in
# five processes, the configs in random order (12.5 kB, bb-ratio-3d's run)
PEAK_SLACK = 32 * 1024


def reports(out_dir: Path) -> dict:
    """The bytes of every report in out_dir, by file name; the manifest
    (timings, environment) is left out."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def run(config: str, out: Path, threads: int = 1) -> int:
    return main(["--threads", str(threads), "--out", str(out), "run",
                 str(GOLDEN / f"{config}.ini")])


class Peaks:
    """The tracemalloc peak of each wrapped call above the memory traced at its
    entry, kept per name as the largest over its calls; a nested call's peak
    counts in its callers' too."""

    def __init__(self):
        self.by_name, self.open = {}, []  # open: [traced at entry, peak so far] per call

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            self._fold()
            frame = [tracemalloc.get_traced_memory()[0]] * 2
            self.open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self.open.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.by_name[name] = max(self.by_name.get(name, 0), peak - frame[0])
                self._fold(peak)
        return call

    def _fold(self, peak=0):
        """Fold the peak since the last reset into the open call's, and reset."""
        if self.open:
            self.open[-1][1] = max(self.open[-1][1], peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()


def costs(config: str) -> dict:
    """The transforms of one threads-1 run of config, and the peaks of the run
    and of each library function ``cli`` calls by its module-global name,
    after a warm-up run, so that no first use in the process counts."""
    calls, peaks = Counter(), Peaks()

    def counted(name, transform):
        def call(a, *args, **kwargs):
            calls[f"{name} {'x'.join(map(str, np.shape(a)))}"] += 1
            return transform(a, *args, **kwargs)
        return call

    wrapped = [(np.fft, name, counted(name, getattr(np.fft, name))) for name in TRANSFORMS]
    wrapped += [(cli, name, peaks.wrap(name, fn)) for name, fn in vars(cli).items()
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
                and fn.__module__.startswith("vortexlab.") and fn.__module__ != cli.__name__]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        assert run(config, Path(tmp) / "warm-up") == 0
        for fn in (mild_solver._panel_weights, *vars(Grid).values()):
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        for owner, name, fn in wrapped:
            mp.setattr(owner, name, fn)
        tracemalloc.start()
        try:
            assert peaks.wrap("run", run)(config, Path(tmp) / config) == 0
        finally:
            tracemalloc.stop()
    return {"transforms": dict(sorted(calls.items())),
            "peak_bytes": dict(sorted(peaks.by_name.items()))}


def test_corpus_covers_every_kind():
    assert {parse_config(GOLDEN / f"{c}.ini")[0] for c in CONFIGS} == set(EXPERIMENTS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("config", CONFIGS)
def test_reports_match_golden_corpus(tmp_path, config, threads):
    out = tmp_path / config
    assert run(config, out, threads) == 0
    got, want = reports(out), reports(GOLDEN / config)
    assert sorted(got) == sorted(want)
    made_with = json.loads(MADE_WITH.read_text())["numpy"]
    for name in want:
        assert got[name] == want[name], (
            f"{config}/{name} differs from the golden corpus, made with numpy {made_with}; "
            f"this run used numpy {np.__version__}")


@pytest.mark.parametrize("config", CONFIGS)
def test_costs_match_record(config):
    record = json.loads(COSTS.read_text())
    want, got = record["configs"][config], costs(config)
    assert got["transforms"] == want["transforms"], (
        f"{config}'s transforms differ from the record, made with numpy {record['numpy']}; "
        f"this run used numpy {np.__version__}")
    # a call the record lacks is new, and unbounded until the record is rewritten
    assert want["peak_bytes"].keys() <= got["peak_bytes"].keys(), f"{config} calls fewer functions"
    over = {name: f"{got['peak_bytes'][name]} B, recorded {peak} B"
            for name, peak in want["peak_bytes"].items()
            if got["peak_bytes"][name] > peak + PEAK_SLACK}
    assert not over, f"{config}'s peaks exceed the record by more than {PEAK_SLACK} B: {over}"


def largest_changes(old: dict, new: dict) -> str:
    """The largest absolute and the largest relative change of any one cost."""
    old, new = ({f"{kind} {key}": v for kind, d in record.items() for key, v in d.items()}
                for record in (old, new))
    changes = sorted((new.get(k, 0) - old.get(k, 0), old.get(k, 0), k)
                     for k in old.keys() | new.keys())
    changes = [c for c in changes if c[0]]
    if not changes:
        return "unchanged"
    d, _, key = max(changes, key=lambda c: abs(c[0]))
    rd, r_old, r_key = max(changes, key=lambda c: abs(c[0]) / c[1] if c[1] else np.inf)
    return (f"largest absolute {key} {d:+d}; largest relative {r_key} "
            + (f"{rd / r_old:+.1%}" if r_old else "(new)"))


def regenerate():
    """Rewrite every config's reports at one thread, and the numpy version."""
    for config in CONFIGS:
        out = GOLDEN / config
        shutil.rmtree(out, ignore_errors=True)
        if run(config, out):
            sys.exit(f"{config} failed")
        (out / "manifest.json").unlink()
    MADE_WITH.write_text(json.dumps({"numpy": np.__version__}, indent=2) + "\n")


def regenerate_costs():
    """Rewrite the cost record, printing each config's largest changes."""
    old = json.loads(COSTS.read_text())["configs"] if COSTS.exists() else {}
    new = {config: costs(config) for config in CONFIGS}
    for config in CONFIGS:
        print(f"{config}: {largest_changes(old.get(config, {}), new[config])}")
    COSTS.write_text(json.dumps({"numpy": np.__version__, "configs": new}, indent=2) + "\n")


if __name__ == "__main__":
    regenerate_costs() if sys.argv[1:] == ["costs"] else regenerate()
