"""The benchmark's study workloads: one generated JSON config per workload.

Every config is a partial logac config (version 1); fields left out take
the reference defaults.  The workload seed reaches the program only as
`ensemble.seed`.  Step counts are shorter than the reference 500 steps so
that one run times many studies; the per-step work is unchanged, so the
layer shares stay those of the full-length study.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import prod

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict


WORKLOADS = {
    "ensemble-1d": Workload(
        command="cauchy",
        # reference ensemble: 1-d, N=128, 64 replicates, 4 levels, 16 sine modes
        config={"stepper": {"t_end": 0.02}},
    ),
    "quiet-2d": Workload(
        command="uniform",
        config={
            "grid": {"extent": [1.0, 1.0], "cells": [64, 64]},
            "ensemble": {"replicates": 8, "lambda_levels": [0.1, 0.02, 0.005]},
            "u0": {"kind": "random_fourier", "amplitude": 0.9, "modes": 4, "clamp": 0.02},
            "noise": {"modes": 0},
            "stepper": {"t_end": 0.01},
        },
    ),
    "dependence-1d": Workload(
        command="dependence",
        config={
            "grid": {"extent": [1.0], "cells": [32]},
            "ensemble": {"replicates": 128},
            "noise": {"modes": 16, "amplitude": 0.25},
            "stepper": {"t_end": 0.02},
        },
    ),
    "oracles": Workload(
        command="oracles",
        config={},
    ),
}

# (cells, steps) of every single-path run in experiments.heat_and_ode_oracles:
# spatial refinement, temporal refinement at N=32, and the 0-d reduction.
ORACLE_RUNS = ((16, 125), (32, 500), (64, 2000), (32, 25), (32, 50), (32, 100), (2, 125), (2, 250), (2, 500))


def config_dict(name: str, seed: int, overrides: dict | None = None) -> dict:
    """The full JSON config of a workload at a seed, with optional section overrides."""
    raw = {"version": 1, **copy.deepcopy(WORKLOADS[name].config)}
    for section, fields in (overrides or {}).items():
        raw.setdefault(section, {}).update(fields)
    raw.setdefault("ensemble", {})["seed"] = int(seed)
    return raw


def runs_and_lanes(command: str, cfg) -> tuple[int, int]:
    """Number of coupled-lane runs a lane study makes, and lanes per run."""
    if command == "dependence":
        from logac import cli

        return 2 * len(cli.DEFAULT_PERTURBATION_SIZES), 2
    return 1, len(cfg.ensemble.lambda_levels)


def cell_steps(command: str, cfg) -> int:
    """lanes x replicates x grid cells x steps, summed over the study's runs."""
    if command == "oracles":
        return sum(cells * steps for cells, steps in ORACLE_RUNS)
    e = cfg.ensemble
    runs, lanes = runs_and_lanes(command, cfg)
    return runs * lanes * e.replicates * prod(e.grid.cells) * e.stepper.n_steps


def working_set(command: str, cfg) -> dict:
    """Computed sizes of the two largest arrays a step touches, in bytes.

    field_batch is one (lanes, replicates, *grid) float64 field; the solver
    keeps several alive at once.  mode_tensor is the (modes, lanes,
    replicates, *grid) profile tensor that noise mixing builds.
    """
    if command == "oracles":
        cells = max(c for c, _ in ORACLE_RUNS)
        field = 8 * cells
        modes = 0
    else:
        e = cfg.ensemble
        _, lanes = runs_and_lanes(command, cfg)
        field = 8 * lanes * e.replicates * prod(e.grid.cells)
        modes = e.noise.modes
    return {"field_batch_bytes": field, "mode_tensor_bytes": modes * field}
