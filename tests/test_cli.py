import json
from dataclasses import replace

import numpy as np
import pytest

from logac import cli
from logac import grid as gr

GOLDEN_DEFAULTS = {
    "version": 1,
    "potential": {"kind": "logarithmic", "c": 2.0, "K": 0.6530477748538479},
    "noise": {"family": "sine", "modes": 16, "decay_exponent": 2.0, "amplitude": 0.5, "flatness": 1},
    "grid": {"extent": [1.0], "cells": [128]},
    "stepper": {
        "dt": 0.001,
        "t_end": 0.5,
        "outer_newton_tol": 1e-10,
        "outer_newton_max": 50,
        "linear_tol": 1e-11,
        "linear_max": 500,
    },
    "ensemble": {"replicates": 64, "seed": 12345, "lambda_levels": [0.2, 0.1, 0.05, 0.025]},
    "u0": {"kind": "cosine", "m0": 0.0, "amplitude": 0.5, "mode": 1, "width": 0.2, "modes": 4, "clamp": 0.05},
    "g": {"kind": "zero", "value": 0.0, "path": ""},
    "output_dir": "out",
    "snapshot_stride": 0,
}


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def small_run_payload(tmp_path, **extra):
    payload = {
        "version": 1,
        "grid": {"extent": [1.0], "cells": [16]},
        "stepper": {"dt": 1e-3, "t_end": 0.01},
        "ensemble": {"replicates": 4, "seed": 7, "lambda_levels": [0.2, 0.1, 0.05]},
        "noise": {"modes": 4, "amplitude": 0.3},
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(extra)
    return payload


class TestParseConfig:
    def test_minimal_config_fills_golden_defaults(self, tmp_path):
        path = write_config(tmp_path, {"version": 1})
        cfg = cli.parse_config(path)
        assert cli.config_to_dict(cfg) == GOLDEN_DEFAULTS

    def test_round_trip_identity(self, tmp_path):
        path = write_config(tmp_path, small_run_payload(tmp_path))
        cfg = cli.parse_config(path)
        path2 = write_config(tmp_path, cli.config_to_dict(cfg), name="cfg2.json")
        assert cli.parse_config(path2) == cfg

    def test_low_c_rejected_naming_constraint(self, tmp_path):
        path = write_config(tmp_path, {"version": 1, "potential": {"kind": "logarithmic", "c": 0.5}})
        with pytest.raises(cli.ConfigError, match="c must be > 1"):
            cli.parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.parse_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.parse_config(p)

    def test_unknown_field_named(self, tmp_path):
        path = write_config(tmp_path, {"version": 1, "noise": {"modez": 4}})
        with pytest.raises(cli.ConfigError, match="modez"):
            cli.parse_config(path)

    def test_bad_decay_exponent_field_precise(self, tmp_path):
        path = write_config(tmp_path, {"version": 1, "noise": {"decay_exponent": 1.0}})
        with pytest.raises(cli.ConfigError, match="config noise"):
            cli.parse_config(path)

    def test_bad_constant_datum(self, tmp_path):
        path = write_config(tmp_path, {"version": 1, "u0": {"kind": "constant", "m0": 1.0}})
        with pytest.raises(cli.ConfigError, match=r"\|m0\| < 1"):
            cli.parse_config(path)


class TestConfigHash:
    def test_hash_ignores_output_fields(self):
        cfg = cli.default_config()
        moved = replace(cfg, output_dir="elsewhere", snapshot_stride=10)
        assert cli.config_hash(cfg) == cli.config_hash(moved)

    def test_hash_tracks_semantic_fields(self):
        cfg = cli.default_config()
        seen = {cli.config_hash(cfg)}
        bumped_seed = replace(cfg, ensemble=replace(cfg.ensemble, seed=1))
        bumped_reps = replace(cfg, ensemble=replace(cfg.ensemble, replicates=8))
        for other in (bumped_seed, bumped_reps):
            h = cli.config_hash(other)
            assert h not in seen
            seen.add(h)

    def test_hash_stable_across_processes(self):
        # frozen value guards accidental formatting drift in the canonical form
        assert cli.config_hash(cli.default_config()) == (
            "469320257e1eb237a1e0c7b10254d4bc1d19be1346fbd9d82fb476bb09bad99c"
        )


class TestRunCommands:
    def test_oracles_roundtrip(self, tmp_path):
        path = write_config(tmp_path, small_run_payload(tmp_path))
        cfg = cli.parse_config(path)
        assert cli.run("oracles", cfg) == 0
        out = tmp_path / "out"
        assert (out / "oracles.csv").exists()
        assert (out / "oracles.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == cli.config_hash(cfg)
        assert manifest["study"] == "oracles"

    def test_same_seed_byte_identical_csv(self, tmp_path):
        payload = small_run_payload(tmp_path)
        cfg = cli.parse_config(write_config(tmp_path, payload))
        cfg_a = replace(cfg, output_dir=str(tmp_path / "a"))
        cfg_b = replace(cfg, output_dir=str(tmp_path / "b"))
        assert cli.run("uniform", cfg_a) == 0
        assert cli.run("uniform", cfg_b) == 0
        csv_a = (tmp_path / "a" / "uniform.csv").read_bytes()
        csv_b = (tmp_path / "b" / "uniform.csv").read_bytes()
        assert csv_a == csv_b

    def test_seed_override_changes_hash_and_rows(self, tmp_path):
        payload = small_run_payload(tmp_path)
        cfg = cli.parse_config(write_config(tmp_path, payload))
        cfg_a = replace(cfg, output_dir=str(tmp_path / "a"))
        cfg_b = replace(cfg, output_dir=str(tmp_path / "b"))
        assert cli.run("uniform", cfg_a) == 0
        assert cli.run("uniform", cfg_b, seed_override=8) == 0
        man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man_a["config_hash"] != man_b["config_hash"]
        assert (tmp_path / "a" / "uniform.csv").read_bytes() != (tmp_path / "b" / "uniform.csv").read_bytes()

    def test_derivative_command_demands_suitable_noise(self, tmp_path, capsys):
        cfg = cli.parse_config(write_config(tmp_path, small_run_payload(tmp_path)))
        assert cli.run("derivative", cfg) == 2
        assert "poly_flat" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path):
        cfg = cli.parse_config(write_config(tmp_path, small_run_payload(tmp_path)))
        assert cli.run("frobnicate", cfg) == 2

    def test_simulate_emits_snapshots(self, tmp_path):
        payload = small_run_payload(tmp_path, snapshot_stride=5)
        cfg = cli.parse_config(write_config(tmp_path, payload))
        assert cli.run("simulate", cfg) == 0
        out = tmp_path / "out"
        snaps = sorted((out / "snapshots").glob("step_*.acf"))
        assert [s.name for s in snaps] == ["step_000000.acf", "step_000005.acf", "step_000010.acf"]
        g, u = gr.load_field(out / "final.acf")
        assert g.cells == (16,)
        assert np.all(np.isfinite(u))
        summary = json.loads((out / "simulate.json").read_text())
        assert summary["steps"] == 10
        assert summary["lambda"] == 0.05


class TestMainEntry:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["not-a-command"])
        assert exc.value.code == 2

    def test_main_runs_oracles(self, tmp_path):
        code = cli.main(["oracles", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "oracles.csv").exists()

    def test_main_missing_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["uniform", "--config", str(tmp_path / "none.json")]) == 2
