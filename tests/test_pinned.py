"""Study outputs pinned from a trusted commit.

Every command runs on the criterion-11 configuration (N=32, 8 replicates,
50 steps, seed 77).  Increment digests must match exactly; every report
mean (and every number in simulate.json) must match to REL_TOL/ABS_TOL.
The tolerance leaves room for round-off and solver-tolerance changes (the
outer Newton tolerance is 1e-10) and catches any change of the computed
result.  Regenerate the pins only from a commit whose results are trusted:

    PYTHONPATH=src python3 tests/test_pinned.py
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from logac import cli

PINNED_PATH = Path(__file__).resolve().parent / "data" / "pinned_outputs.json"
REL_TOL = 1e-6
ABS_TOL = 1e-12
COMMANDS = ("uniform", "cauchy", "simulate", "oracles")

CONFIG = {
    "version": 1,
    "grid": {"extent": [1.0], "cells": [32]},
    "stepper": {"dt": 1e-3, "t_end": 0.05},
    "ensemble": {"replicates": 8, "seed": 77, "lambda_levels": [0.2, 0.1, 0.05]},
    "noise": {"modes": 8, "amplitude": 0.4},
}


def summarize(command: str, out_dir: Path) -> dict:
    """Digests and named numbers of one command's JSON output."""
    if command == "simulate":
        summary = json.loads((out_dir / "simulate.json").read_text())
        digest = summary.pop("increments_digest")
        return {"digests": [digest], "means": summary}
    report = json.loads((out_dir / f"{command}.json").read_text())
    meta = report["metadata"]
    digests = [meta["increments_digest"]] if "increments_digest" in meta else []
    return {"digests": digests, "means": {f"{r['quantity']}|{r['lam']!r}": r["mean"] for r in report["rows"]}}


def run_command(command: str, out_dir: Path) -> dict:
    cfg = cli.config_from_dict({**CONFIG, "output_dir": str(out_dir)})
    assert cli.run(command, cfg) == 0
    return summarize(command, out_dir)


@pytest.mark.parametrize("command", COMMANDS)
def test_matches_pinned_outputs(command, tmp_path):
    pinned = json.loads(PINNED_PATH.read_text())[command]
    found = run_command(command, tmp_path)
    assert found["digests"] == pinned["digests"]
    assert found["means"].keys() == pinned["means"].keys()
    for key, want in pinned["means"].items():
        got = found["means"][key]
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (key, got, want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {c: run_command(c, Path(tmp) / c) for c in COMMANDS}
    PINNED_PATH.parent.mkdir(exist_ok=True)
    PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
