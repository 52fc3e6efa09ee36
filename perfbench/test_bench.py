"""Smoke tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench

They check that every workload runs, that the span-derived counts obey
the solver's identities, that tracing changes no result bit, and that
the output check rejects a changed result.
"""

import json
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

import reference
import run
import spans
import workloads
from logac import cli

TINY = {
    "ensemble-1d": {"grid": {"cells": [16]}, "ensemble": {"replicates": 4}, "stepper": {"t_end": 0.003}},
    "quiet-2d": {"grid": {"cells": [8, 8]}, "ensemble": {"replicates": 2}, "stepper": {"t_end": 0.003}},
    "dependence-1d": {"grid": {"cells": [8]}, "ensemble": {"replicates": 4}, "stepper": {"t_end": 0.003}},
    "oracles": {},
}


def tiny_config(name):
    return cli.config_from_dict(workloads.config_dict(name, 7, TINY[name]))


def traced_study(command, cfg, out_dir):
    recorder = spans.Recorder()
    recorder.install()
    try:
        _, code = run.run_study(command, cfg, out_dir)
    finally:
        recorder.uninstall()
    return code, recorder.spans


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_counts_and_tracing_neutrality(name, tmp_path):
    command = workloads.WORKLOADS[name].command
    cfg = tiny_config(name)
    _, code = run.run_study(command, cfg, tmp_path / "plain")
    assert code == 0
    assert reference.problems(command, tmp_path / "plain", code, None) == []

    code, first = traced_study(command, cfg, tmp_path / "traced")
    assert code == 0
    csv = f"{command}.csv"
    assert (tmp_path / "plain" / csv).read_bytes() == (tmp_path / "traced" / csv).read_bytes()
    assert reference.summarize(command, tmp_path / "plain")["digests"] == reference.summarize(
        command, tmp_path / "traced"
    )["digests"]

    _, second = traced_study(command, cfg, tmp_path / "again")
    m = spans.layer_metrics(first)
    counts = {k: v for k, v in m.items() if spans.LAYER_UNITS[k] != "s"}
    assert counts == {k: v for k, v in spans.layer_metrics(second).items() if spans.LAYER_UNITS[k] != "s"}

    solves = [s for s in first if s[spans.NAME] == "stepper._monotone_solve"]
    assert sum(s[spans.WORK] for s in solves) == workloads.cell_steps(command, cfg)
    assert m["stepper.residual_evals"] == m["stepper.solve_calls"] + m["stepper.newton_iters"] + m["stepper.backtracks"]
    assert m["stepper.backtracks"] >= 0 and m["stepper.cg_iters"] >= 0
    if command == "oracles":
        assert m["stepper.step_calls"] == sum(steps for _, steps in workloads.ORACLE_RUNS)
        assert m["experiments.engine_self_s"] == 0.0
        return
    e = cfg.ensemble
    runs, lanes = workloads.runs_and_lanes(command, cfg)
    steps = runs * e.stepper.n_steps
    assert m["stepper.solve_calls"] == steps and m["stepper.step_calls"] == 0
    # one yosida_pair for the initial state of each run, one per residual evaluation
    assert m["potential.yosida_calls"] == runs + m["stepper.residual_evals"]
    draws = steps if e.noise.modes else 0
    assert m["noise.draw_calls"] == m["noise.mix_calls"] == m["potential.resolvent_calls"] == draws
    assert m["noise.normals_drawn"] == draws * e.replicates * e.noise.modes
    assert m["noise.mix_terms"] == draws * lanes * e.replicates * prod(e.grid.cells) * e.noise.modes


def test_output_check_rejects_changed_results(tmp_path):
    cfg = tiny_config("ensemble-1d")
    _, code = run.run_study("cauchy", cfg, tmp_path)
    found = reference.summarize("cauchy", tmp_path)
    pinned = {"digests": found["digests"], "means": {k: v[0] for k, v in found["rows"].items()}}
    assert reference.problems("cauchy", tmp_path, code, pinned) == []

    key = next(iter(pinned["means"]))
    moved = {**pinned, "means": {**pinned["means"], key: pinned["means"][key] * (1 + 10 * reference.REL_TOL)}}
    assert any("mean of" in p for p in reference.problems("cauchy", tmp_path, code, moved))
    assert any("digests" in p for p in reference.problems("cauchy", tmp_path, code, {**pinned, "digests": ["0"]}))
    assert reference.problems("cauchy", tmp_path, 1, pinned) == ["cli.run exited 1"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS


def test_pinned_default_seed_covers_every_workload():
    pinned = reference.load_pinned()
    assert all(str(workloads.DEFAULT_SEED) in pinned[name] for name in workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_line_last(trace):
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", "oracles", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spans.LAYER_UNITS if trace else run.E2E_UNITS)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
