"""Configuration ingestion, run orchestration, and reproducibility plumbing.

Runs are described by a versioned JSON file; every semantic field is
hashed into the manifest so reruns can be matched to their inputs.  All
file writes happen here, never inside the numerical layers: simulate
hands the engine a per-step hook that writes its snapshots.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import datagen as dg
from . import experiments as ex
from . import grid as gr
from . import noise as nz
from . import potential as pot
from . import stepper as st

DEFAULT_PERTURBATION_SIZES = (0.1, 0.01, 0.001)

# the u0-only family, then the g-only family
_DEFAULT_PERTURBATIONS = [ex.Perturbation(u0_shift=d) for d in DEFAULT_PERTURBATION_SIZES]
_DEFAULT_PERTURBATIONS += [ex.Perturbation(g_shift=d) for d in DEFAULT_PERTURBATION_SIZES]

# every command but simulate is one study of the ensemble config
STUDIES = {
    "uniform": ex.uniform_bounds_study,
    "cauchy": ex.cauchy_study,
    "dependence": lambda e: ex.dependence_study(e, _DEFAULT_PERTURBATIONS),
    "strong": ex.strong_solution_study,
    "derivative": ex.derivative_study,
    "oracles": ex.heat_and_ode_oracles,
}

COMMANDS = ("simulate", *STUDIES)

# The schema of every setting: a field takes the JSON type of its default, and
# a list field takes the type of its default's first element for each entry.
_DEFAULTS = {
    "potential": {"c": 2.0},
    "noise": {"family": "sine", "modes": 16, "decay_exponent": 2.0, "amplitude": 0.5, "flatness": 1},
    "grid": {"extent": [1.0], "cells": [128]},
    "stepper": {"dt": 1e-3, "t_end": 0.5},
    "ensemble": {"replicates": 64, "seed": 12345, "lambda_levels": [0.2, 0.1, 0.05, 0.025]},
    "u0": {"kind": "cosine", "m0": 0.0, "amplitude": 0.5, "mode": 1, "width": 0.2, "modes": 4, "clamp": 0.05},
    "g": {"kind": "zero", "value": 0.0, "path": ""},
    "output_dir": "out",
    "snapshot_stride": 0,
}

# the sections built from their own fields alone; ensemble is built from its fields and these
_SECTIONS = {
    "potential": pot.PotentialParams,
    "noise": nz.NoiseSpec,
    "grid": gr.Grid,
    "stepper": st.StepperConfig,
    "u0": dg.U0Spec,
    "g": dg.GSpec,
}

_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    ensemble: ex.EnsembleConfig
    output_dir: str = "out"
    snapshot_stride: int = 0

    def __post_init__(self):
        if self.snapshot_stride < 0:
            raise ConfigError(f"snapshot_stride must be >= 0, got {self.snapshot_stride}")


def _typed(where: str, name: str, value, default):
    """value as the JSON type of default; bools are not numbers, and a float field stores finite floats."""
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config {where}: {name} must be a list, got {value!r}")
        return tuple(_typed(where, f"{name}[{i}]", v, default[0]) for i, v in enumerate(value))
    if isinstance(default, str):
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(default, int) and (isinstance(value, int) or value.is_integer()):
            return int(value)
        # an int beyond the float range would overflow float()
        if isinstance(default, float) and (isinstance(value, float) or abs(value) < 2**1023):
            if not math.isfinite(value):
                raise ConfigError(f"config {where}: {name} must be finite, got {value!r}")
            return float(value)
    raise ConfigError(f"config {where}: {name} must be {_TYPE_NAMES[type(default)]}, got {value!r}")


def config_from_dict(raw: dict) -> RunConfig:
    """The one door for outside settings: every field is typed against _DEFAULTS here."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = _typed("root", "version", raw.get("version", 1), 1)
    if version != 1:
        raise ConfigError(f"unsupported config version {version} (this build reads version 1)")
    unknown = set(raw) - {"version", *_DEFAULTS}
    if unknown:
        raise ConfigError(f"config has unknown top-level fields {sorted(unknown)}")

    def section(name):
        given = raw.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        unknown = set(given) - set(_DEFAULTS[name])
        if unknown:
            raise ConfigError(f"config section {name!r} has unknown fields {sorted(unknown)}")
        return {k: _typed(name, k, given.get(k, d), d) for k, d in _DEFAULTS[name].items()}

    def build(name, ctor, **fields):
        try:
            return ctor(**fields)
        except ValueError as err:
            raise ConfigError(f"config {name}: {err}") from err

    built = {name: build(name, ctor, **section(name)) for name, ctor in _SECTIONS.items()}
    ensemble = build("ensemble", ex.EnsembleConfig, **section("ensemble"), **built)
    top = {k: _typed(k, k, raw.get(k, _DEFAULTS[k]), _DEFAULTS[k]) for k in ("output_dir", "snapshot_stride")}
    return build("snapshot_stride", RunConfig, ensemble=ensemble, **top)


def _read_json(path):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {p}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {p} is not valid JSON: {err}") from err


def parse_config(path) -> RunConfig:
    """Load and fully validate a run configuration file."""
    return config_from_dict(_read_json(path))


def default_config() -> RunConfig:
    return config_from_dict({"version": 1})


def config_to_dict(cfg: RunConfig) -> dict:
    """The JSON form of cfg; each dataclass section is written field by field."""
    e = cfg.ensemble
    ensemble = {"replicates": e.replicates, "seed": e.seed, "lambda_levels": e.lambda_levels}
    sections = ("potential", "noise", "grid", "stepper", "ensemble", "u0", "g")
    raw = {name: ensemble if name == "ensemble" else asdict(getattr(e, name)) for name in sections}
    raw = {"version": 1, **raw, "output_dir": cfg.output_dir, "snapshot_stride": cfg.snapshot_stride}
    return json.loads(json.dumps(raw))  # tuples become JSON lists


def config_hash(cfg: RunConfig) -> str:
    """Hash of every semantically meaningful field (output locations excluded)."""
    semantic = config_to_dict(cfg)
    semantic.pop("output_dir")
    semantic.pop("snapshot_stride")
    text = json.dumps(semantic, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _write_report(report: ex.EstimateReport, cfg: RunConfig, out_dir: Path, wall_time: float) -> dict:
    report.metadata["config_hash"] = config_hash(cfg)
    report.metadata["seed"] = cfg.ensemble.seed
    report.metadata["wall_time_s"] = wall_time
    csv_path = out_dir / f"{report.study}.csv"
    json_path = out_dir / f"{report.study}.json"
    csv_path.write_text(report.to_csv_text())
    json_path.write_text(json.dumps(asdict(report), indent=2, default=float) + "\n")
    return {"csv": str(csv_path), "json": str(json_path)}


def _run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    """One path (replicate 0) at the smallest level: one lane of one replicate."""
    e = cfg.ensemble
    lam = e.lambda_levels[-1]
    snap_dir = out_dir / "snapshots"
    if cfg.snapshot_stride > 0:
        snap_dir.mkdir(parents=True, exist_ok=True)

    def snapshot(m, u, beta_u):
        if cfg.snapshot_stride > 0 and m % cfg.snapshot_stride == 0:
            gr.save_field(snap_dir / f"step_{m:06d}.acf", e.grid, u[0, 0])

    stats_hook, stats = ex._path_statistics(e.grid, e.stepper, e.potential.c, (1, 1))
    lane = ex.Lane(lam, dg.make_u0_batch(e.u0, e.grid, e.seed, 1), dg.make_g(e.g, e.grid))
    out = ex._run_lanes([lane], e.noise, e.stepper, e.grid, e.potential.c, e.seed, hooks=(stats_hook, snapshot))
    gr.save_field(out_dir / "final.acf", e.grid, out["final"][0, 0])
    names = ("sup_h_sq", "sup_grad_sq", "int_grad_sq", "int_f1_sq", "int_beta_sq", "excursion_fraction")
    summary = {
        "t_final": e.stepper.n_steps * e.stepper.dt,
        "steps": e.stepper.n_steps,
        "lambda": lam,
        **{q: float(stats[q][0, 0]) for q in names},
        "increments_digest": out["increments_digest"],
    }
    (out_dir / "simulate.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    return {"json": str(out_dir / "simulate.json"), "final_field": str(out_dir / "final.acf")}


def run(command: str, cfg: RunConfig) -> int:
    """Execute one study command; returns the process exit status."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; expected one of {COMMANDS}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.output_dir)
    t0 = time.perf_counter()
    failures: list[str] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="raise", under="ignore"):  # pyproject's rule for the tests: float trouble raises
            if command == "simulate":
                outputs = _run_simulate(cfg, out_dir)
            else:
                report = STUDIES[command](cfg.ensemble)
                failures = report.failures
                outputs = _write_report(report, cfg, out_dir, time.perf_counter() - t0)
        manifest = {
            "config_hash": config_hash(cfg),
            "seed": cfg.ensemble.seed,
            "code_version": __version__,
            "study": command,
            "outputs": outputs,
            "timings": {"wall_time_s": time.perf_counter() - t0},
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=float) + "\n")
    except (ValueError, OSError) as err:  # a bad input, or an output_dir that cannot be made or written
        print(f"{command}: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as err:  # a solve did not converge, or a float overflowed or went invalid
        print(f"{command}: solver failed: {err}", file=sys.stderr)
        return 3
    if failures:
        for f in failures:
            print(f"{command}: FAILED: {f}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="logac", description="stochastic Allen-Cahn studies")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None, help="JSON run configuration (defaults used if omitted)")
    parser.add_argument("--seed", type=int, default=None, help="override the ensemble seed")
    parser.add_argument("--out", type=str, default=None, help="override the output directory")
    parser.add_argument("--snapshot-stride", type=int, default=None, help="emit a field snapshot every N steps")
    args = parser.parse_args(argv)

    try:
        raw = _read_json(args.config) if args.config else {"version": 1}
        if isinstance(raw, dict):  # the flags are config fields and pass the same door
            flags = {"output_dir": args.out, "snapshot_stride": args.snapshot_stride}
            raw = {**raw, **{k: v for k, v in flags.items() if v is not None}}
            if args.seed is not None and isinstance(raw.get("ensemble", {}), dict):
                raw["ensemble"] = {**raw.get("ensemble", {}), "seed": args.seed}
        cfg = config_from_dict(raw)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    return run(args.command, cfg)
