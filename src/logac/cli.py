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
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from . import datagen as dg
from . import experiments as ex
from . import grid as gr
from . import noise as nz
from . import potential as pot
from . import stepper as st

COMMANDS = ("simulate", "uniform", "cauchy", "dependence", "strong", "derivative", "oracles")

DEFAULT_PERTURBATION_SIZES = (0.1, 0.01, 0.001)

# commands that reduce one ladder_run, the coupled run of every lambda level
LADDER_STUDIES = {"uniform": ex.uniform_bounds_study, "cauchy": ex.cauchy_study, "strong": ex.strong_solution_study}

_DEFAULTS = {
    "potential": {"c": 2.0},
    "noise": {"family": "sine", "modes": 16, "decay_exponent": 2.0, "amplitude": 0.5, "flatness": 1},
    "grid": {"extent": [1.0], "cells": [128]},
    "stepper": {"dt": 1e-3, "t_end": 0.5},
    "ensemble": {"replicates": 64, "seed": 12345, "lambda_levels": [0.2, 0.1, 0.05, 0.025]},
    "u0": {"kind": "cosine", "m0": 0.0, "amplitude": 0.5, "mode": 1, "width": 0.2, "modes": 4, "clamp": 0.05},
    "g": {"kind": "zero", "value": 0.0, "path": ""},
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    ensemble: ex.EnsembleConfig
    output_dir: str = "out"
    snapshot_stride: int = 0

    def __post_init__(self):
        if int(self.snapshot_stride) != self.snapshot_stride or self.snapshot_stride < 0:
            raise ConfigError(f"snapshot_stride must be an integer >= 0, got {self.snapshot_stride}")
        object.__setattr__(self, "snapshot_stride", int(self.snapshot_stride))


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    code_version: str
    study: str
    outputs: dict
    timings: dict

    def to_json_dict(self) -> dict:
        return vars(self)


def _merge_section(raw: dict, name: str) -> dict:
    defaults = dict(_DEFAULTS[name])
    given = raw.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"config section {name!r} has unknown fields {sorted(unknown)}")
    defaults.update(given)
    return defaults


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = raw.get("version", 1)
    if version != 1:
        raise ConfigError(f"unsupported config version {version} (this build reads version 1)")
    known = {"version", "potential", "noise", "grid", "stepper", "ensemble", "u0", "g", "output_dir", "snapshot_stride"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config has unknown top-level fields {sorted(unknown)}")

    def build(section, ctor, **kwargs):
        try:
            return ctor(**kwargs)
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(f"config {section}: {err}") from err

    def listed(section, name, value):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"config {section}: {name} must be a list, got {value!r}")
        return tuple(value)

    potential = build("potential", pot.PotentialParams, **_merge_section(raw, "potential"))

    n = _merge_section(raw, "noise")
    noise = build("noise", nz.NoiseSpec, **n)

    g_raw = _merge_section(raw, "grid")
    grid = build(
        "grid",
        gr.Grid,
        extent=listed("grid", "extent", g_raw["extent"]),
        cells=listed("grid", "cells", g_raw["cells"]),
    )

    s = _merge_section(raw, "stepper")
    stepper = build("stepper", st.StepperConfig, **s)

    e = _merge_section(raw, "ensemble")
    u0_raw = _merge_section(raw, "u0")
    u0 = build("u0", dg.U0Spec, **u0_raw)
    gf_raw = _merge_section(raw, "g")
    gspec = build("g", dg.GSpec, **gf_raw)

    ensemble = build(
        "ensemble",
        ex.EnsembleConfig,
        replicates=e["replicates"],
        seed=e["seed"],
        lambda_levels=listed("ensemble", "lambda_levels", e["lambda_levels"]),
        grid=grid,
        stepper=stepper,
        noise=noise,
        potential=potential,
        u0=u0,
        g=gspec,
    )
    return build(
        "snapshot_stride",
        RunConfig,
        ensemble=ensemble,
        output_dir=str(raw.get("output_dir", "out")),
        snapshot_stride=raw.get("snapshot_stride", 0),
    )


def parse_config(path) -> RunConfig:
    """Load and fully validate a run configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {p}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {p} is not valid JSON: {err}") from err
    return config_from_dict(raw)


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
    json_path.write_text(json.dumps(report.to_json_dict(), indent=2, default=float) + "\n")
    return {"csv": str(csv_path), "json": str(json_path)}


def _run_simulate(cfg: RunConfig, out_dir: Path) -> tuple[dict, list[str]]:
    """One path (replicate 0) at the smallest level: one lane of one replicate."""
    e = cfg.ensemble
    lam = e.lambda_levels[-1]
    snap_dir = out_dir / "snapshots"
    if cfg.snapshot_stride > 0:
        snap_dir.mkdir(parents=True, exist_ok=True)

    def snapshot(m, u, beta_u):
        if cfg.snapshot_stride > 0 and m % cfg.snapshot_stride == 0:
            gr.save_field(snap_dir / f"step_{m:06d}.acf", e.grid, u[0, 0])

    stats_hook, stats = ex._path_statistics(e.grid, e.stepper, e.potential, (1, 1))
    lane = ex.Lane(lam, dg.make_u0_batch(e.u0, e.grid, e.seed, 1), dg.make_g(e.g, e.grid))
    out = ex._run_lanes([lane], e.noise, e.stepper, e.grid, e.potential, e.seed, hooks=(stats_hook, snapshot))
    gr.save_field(out_dir / "final.acf", e.grid, out["final"][0, 0])
    names = ("sup_h_sq", "sup_grad_sq", "int_grad_sq", "int_f1_sq", "int_beta_sq", "excursion_fraction")
    summary = {
        "t_final": out["n_steps"] * e.stepper.dt,
        "steps": out["n_steps"],
        "lambda": lam,
        **{q: float(stats[q][0, 0]) for q in names},
        "increments_digest": out["increments_digest"],
    }
    (out_dir / "simulate.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    return {"json": str(out_dir / "simulate.json"), "final_field": str(out_dir / "final.acf")}, []


def run(command: str, cfg: RunConfig, seed_override: int | None = None) -> int:
    """Execute one study command; returns the process exit status."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; expected one of {COMMANDS}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    failures: list[str] = []
    try:
        if seed_override is not None:
            cfg = replace(cfg, ensemble=replace(cfg.ensemble, seed=int(seed_override)))
        if command == "simulate":
            outputs, failures = _run_simulate(cfg, out_dir)
        else:
            if command in LADDER_STUDIES:
                report = LADDER_STUDIES[command](cfg.ensemble, ex.ladder_run(cfg.ensemble))
            elif command == "dependence":
                perturbations = [ex.Perturbation(u0_shift=d) for d in DEFAULT_PERTURBATION_SIZES]
                perturbations += [ex.Perturbation(g_shift=d) for d in DEFAULT_PERTURBATION_SIZES]
                report = ex.dependence_study(cfg.ensemble, perturbations)
            elif command == "derivative":
                report = ex.derivative_study(cfg.ensemble)
            else:
                report = ex.heat_and_ode_oracles(cfg.ensemble)
            failures = report.failures
            outputs = _write_report(report, cfg, out_dir, time.perf_counter() - t0)
    except (ConfigError, ValueError) as err:
        print(f"{command}: {err}", file=sys.stderr)
        return 2

    manifest = RunManifest(
        config_hash=config_hash(cfg),
        seed=cfg.ensemble.seed,
        code_version=__version__,
        study=command,
        outputs=outputs,
        timings={"wall_time_s": time.perf_counter() - t0},
    )
    (out_dir / "manifest.json").write_text(json.dumps(manifest.to_json_dict(), indent=2, default=float) + "\n")
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
        cfg = parse_config(args.config) if args.config else default_config()
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.snapshot_stride is not None:
        cfg = replace(cfg, snapshot_stride=args.snapshot_stride)
    return run(args.command, cfg, seed_override=args.seed)
