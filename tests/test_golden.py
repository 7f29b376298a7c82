"""Same numbers: every report of the committed golden corpus, byte for byte.

``tests/golden`` holds nine small configs, one or two per experiment kind,
and the CSV and JSON reports each wrote (``golden/<config>/``).  Each runs
here through ``cli.main`` at one and at two threads into its own ``--out``,
and every report byte but the manifest's must match.  A change that moves a
value on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and logs the file, the largest absolute and relative change and the reason.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexlab.cli import EXPERIMENTS, main, parse_config

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.ini"))
MADE_WITH = GOLDEN / "corpus.json"


def reports(out_dir: Path) -> dict:
    """The bytes of every report in out_dir, by file name; the manifest
    (timings, environment) is left out."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def test_corpus_covers_every_kind():
    assert {parse_config(GOLDEN / f"{c}.ini")[0] for c in CONFIGS} == set(EXPERIMENTS)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("config", CONFIGS)
def test_reports_match_golden_corpus(tmp_path, config, threads):
    out = tmp_path / config
    assert main(["--threads", str(threads), "--out", str(out), "run",
                 str(GOLDEN / f"{config}.ini")]) == 0
    got, want = reports(out), reports(GOLDEN / config)
    assert sorted(got) == sorted(want)
    made_with = json.loads(MADE_WITH.read_text())["numpy"]
    for name in want:
        assert got[name] == want[name], (
            f"{config}/{name} differs from the golden corpus, made with numpy {made_with}; "
            f"this run used numpy {np.__version__}")


def regenerate():
    """Rewrite every config's reports at one thread, and the numpy version."""
    for config in CONFIGS:
        out = GOLDEN / config
        shutil.rmtree(out, ignore_errors=True)
        if main(["--threads", "1", "--out", str(out), "run", str(GOLDEN / f"{config}.ini")]):
            sys.exit(f"{config} failed")
        (out / "manifest.json").unlink()
    MADE_WITH.write_text(json.dumps({"numpy": np.__version__}, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
