"""Study outputs pinned from a trusted commit.

Every command runs on the criterion-11 configuration (N=32, 8 replicates,
50 steps, seed 77); derivative swaps in the poly_flat noise (flatness 3,
so gauge order n = 2) and the constant datum it needs.  Increment digests
must match exactly; every report mean (and every number in simulate.json)
must match to REL_TOL/ABS_TOL.
The tolerance leaves room for round-off and solver-tolerance changes (the
outer Newton tolerance is 1e-10) and catches any change of the computed
result.  Regenerate the pins only from a commit whose results are trusted:

    PYTHONPATH=src python3 tests/test_pinned.py

A refactor that must not move a byte can be checked against another
checkout: --digests prints the sha256 of every CSV, .acf and JSON file of
the DIGEST_RUNS but manifest.json, which holds paths and timings; a study
report is hashed without its metadata.wall_time_s.  The two listings must
be identical; scripts/compare_digests.py [REV] makes both and diffs them:

    PYTHONPATH=src python3 tests/test_pinned.py --digests > after.txt
    PYTHONPATH=../parent/src python3 tests/test_pinned.py --digests > before.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest

from logac import cli

PINNED_PATH = Path(__file__).resolve().parent / "data" / "pinned_outputs.json"
REL_TOL = 1e-6
ABS_TOL = 1e-12
COMMANDS = ("uniform", "cauchy", "simulate", "oracles", "strong", "dependence", "derivative")

CONFIG = {
    "version": 1,
    "grid": {"extent": [1.0], "cells": [32]},
    "stepper": {"dt": 1e-3, "t_end": 0.05},
    "ensemble": {"replicates": 8, "seed": 77, "lambda_levels": [0.2, 0.1, 0.05]},
    "noise": {"modes": 8, "amplitude": 0.4},
}
OVERRIDES = {
    "derivative": {
        "noise": {"family": "poly_flat", "modes": 8, "amplitude": 0.25, "flatness": 3},
        "u0": {"kind": "constant", "m0": 0.2},
    },
}
# name -> (command, config fields on top of CONFIG and the command's OVERRIDES)
DIGEST_RUNS = {
    **{c: (c, {}) for c in COMMANDS},
    "simulate-snapshots": ("simulate", {"snapshot_stride": 10}),
    "uniform-forced": ("uniform", {"g": {"kind": "constant", "value": 0.3}}),
    "dependence-forced": ("dependence", {"g": {"kind": "constant", "value": 0.3}}),
    "uniform-2d": ("uniform", {"grid": {"extent": [1.0, 1.0], "cells": [16, 16]}}),
    # the step-0 snapshot is the datum itself
    "simulate-bump-2d": (
        "simulate",
        {"grid": {"extent": [1.0, 2.0], "cells": [12, 8]}, "u0": {"kind": "smooth_bump"}, "snapshot_stride": 25},
    ),
    # long steps at small levels under strong noise: the outer Newton backtracks, so damped trials are hashed too
    "uniform-backtracking": (
        "uniform",
        {
            "stepper": {"dt": 0.05, "t_end": 0.5},
            "ensemble": {"lambda_levels": [0.01, 0.005, 0.002]},
            "noise": {"amplitude": 2.0},
        },
    ),
}


def summarize(command: str, out_dir: Path) -> dict:
    """Digests and named numbers of one command's JSON output."""
    if command == "simulate":
        summary = json.loads((out_dir / "simulate.json").read_text())
        digest = summary.pop("increments_digest")
        return {"digests": [digest], "means": summary}
    report = json.loads((out_dir / f"{command}.json").read_text())
    meta = report["metadata"]
    digests = [meta["increments_digest"]] if "increments_digest" in meta else meta.get("increments_digests", [])
    return {"digests": digests, "means": {f"{r['quantity']}|{r['lam']!r}": r["mean"] for r in report["rows"]}}


def run_command(command: str, out_dir: Path, extra=None) -> dict:
    cfg = cli.config_from_dict({**CONFIG, **OVERRIDES.get(command, {}), **(extra or {}), "output_dir": str(out_dir)})
    assert cli.run(command, cfg) == 0
    return summarize(command, out_dir)


def digested_bytes(path: Path) -> bytes:
    """The file's bytes; a study report's as cli._write_report writes it, without metadata.wall_time_s."""
    if path.suffix != ".json" or path.name == "simulate.json":
        return path.read_bytes()
    report = json.loads(path.read_text())
    del report["metadata"]["wall_time_s"]
    return (json.dumps(report, indent=2, default=float) + "\n").encode()


def digests(out_root: Path, runs=DIGEST_RUNS) -> list[str]:
    """`sha256  run/file` for every CSV, .acf and JSON file but manifest.json that the runs write under out_root."""
    lines = []
    for name, (command, extra) in runs.items():
        run_command(command, out_root / name, extra)
        for path in sorted((out_root / name).rglob("*")):
            if path.suffix in (".csv", ".acf", ".json") and path.name != "manifest.json":
                lines.append(f"{hashlib.sha256(digested_bytes(path)).hexdigest()}  {path.relative_to(out_root)}")
    return lines


@pytest.mark.parametrize("command", COMMANDS)
def test_matches_pinned_outputs(command, tmp_path):
    pinned = json.loads(PINNED_PATH.read_text())[command]
    found = run_command(command, tmp_path)
    assert found["digests"] == pinned["digests"]
    assert found["means"].keys() == pinned["means"].keys()
    for key, want in pinned["means"].items():
        got = found["means"][key]
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (key, got, want)


def test_digests_list_every_output_file(tmp_path):
    runs = {"simulate-snapshots": DIGEST_RUNS["simulate-snapshots"]}
    lines = digests(tmp_path / "a", runs)
    files = [line.split("  ")[1] for line in lines]
    snapshots = [f"simulate-snapshots/snapshots/step_{m:06d}.acf" for m in range(0, 51, 10)]
    assert files == ["simulate-snapshots/final.acf", "simulate-snapshots/simulate.json", *snapshots]
    assert digests(tmp_path / "b", runs) == lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="regenerate the pinned outputs, or print output digests")
    parser.add_argument("--digests", action="store_true", help="print `sha256  run/file` per output file instead")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.digests:
            print("\n".join(digests(Path(tmp))))
        else:
            pins = {c: run_command(c, Path(tmp) / c) for c in COMMANDS}
            PINNED_PATH.parent.mkdir(exist_ok=True)
            PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
