import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from logac import cli
from logac import grid as gr
from test_pinned import CONFIG

GOLDEN_DEFAULTS = {
    "version": 1,
    "potential": {"c": 2.0},
    "noise": {"family": "sine", "modes": 16, "decay_exponent": 2.0, "amplitude": 0.5, "flatness": 1},
    "grid": {"extent": [1.0], "cells": [128]},
    "stepper": {"dt": 0.001, "t_end": 0.5},
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


def snapshot_bytes(dim, n1, n2, h1, h2):
    """A snapshot file's bytes: the 32-byte header as given, then 16 zero values."""
    return struct.pack("<4sIIIdd", b"ACF1", dim, n1, n2, h1, h2) + np.zeros(16).tobytes()


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


def run_module(cwd, *args):
    """`python -m logac ARGS` in a new interpreter that imports logac from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "logac", *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=300)


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
        path = write_config(tmp_path, {"version": 1, "potential": {"c": 0.5}})
        with pytest.raises(cli.ConfigError, match="c must be > 1"):
            cli.parse_config(path)

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert cli.config_from_dict(json.loads(block)) == cli.default_config()

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

    def test_integral_float_seed_parses_as_int(self):
        # the seed keys the counter streams; the config door stores a JSON 77.0 as the int 77
        seed = cli.config_from_dict({"version": 1, "ensemble": {"seed": 77.0}}).ensemble.seed
        assert type(seed) is int and seed == 77

    def test_bad_constant_datum(self, tmp_path):
        path = write_config(tmp_path, {"version": 1, "u0": {"kind": "constant", "m0": 1.0}})
        with pytest.raises(cli.ConfigError, match=r"\|m0\| < 1"):
            cli.parse_config(path)

    @pytest.mark.parametrize("version", [True, "1"])
    def test_version_is_typed_like_any_integer_field(self, version):
        # True == 1 and "1" reads as 1 in the message: neither is the integer 1
        with pytest.raises(cli.ConfigError, match=f"config root: version must be an integer, got {version!r}"):
            cli.config_from_dict({"version": version})

    def test_non_object_root_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, [])
        assert cli.main(["uniform", "--config", str(path)]) == 2
        assert "config root must be a JSON object" in capsys.readouterr().err

    def test_integral_float_version_is_read(self):
        assert cli.config_from_dict({"version": 1.0}) == cli.default_config()


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

    @pytest.mark.parametrize(
        "section, field, integral, as_float",
        [
            ("potential", "c", 2, 2.0),
            ("stepper", "t_end", 1, 1.0),
            ("noise", "amplitude", 1, 1.0),
            ("grid", "extent", [2], [2.0]),
        ],
    )
    def test_integral_number_hashes_as_its_float(self, section, field, integral, as_float):
        cfgs = [cli.config_from_dict({"version": 1, section: {field: v}}) for v in (integral, as_float)]
        assert cli.config_hash(cfgs[0]) == cli.config_hash(cfgs[1])

    def test_hash_stable_across_processes(self):
        # frozen value guards accidental formatting drift in the canonical form
        assert cli.config_hash(cli.default_config()) == (
            "069c47375b1da12e4b1dd7c5e3557257a3eeb85fca31bf2e8aaf0366b3961c7b"
        )


class TestRunCommands:
    def test_oracles_roundtrip(self, tmp_path):
        path = write_config(tmp_path, small_run_payload(tmp_path))
        cfg = cli.parse_config(path)
        assert cli.run("oracles", cfg) == 0
        out = tmp_path / "out"
        assert (out / "oracles.csv").exists()
        # the time-map reference is reported in the JSON alone; the CSV keeps its rows
        reference = json.loads((out / "oracles.json").read_text())["metadata"]["ode_reference"]
        assert reference.keys() == {"value", "b_star", "newton_iters"}
        assert "ode_reference" not in (out / "oracles.csv").read_text()
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
        path = str(write_config(tmp_path, small_run_payload(tmp_path)))
        assert cli.main(["uniform", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["uniform", "--config", path, "--out", str(tmp_path / "b"), "--seed", "8"]) == 0
        man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert man_a["config_hash"] != man_b["config_hash"]
        assert (tmp_path / "a" / "uniform.csv").read_bytes() != (tmp_path / "b" / "uniform.csv").read_bytes()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_override_outside_the_key_range_exits_2(self, tmp_path, capsys, seed):
        path = str(write_config(tmp_path, small_run_payload(tmp_path)))
        assert cli.main(["uniform", "--config", path, "--seed", str(seed)]) == 2
        assert "config ensemble: ensemble seed" in capsys.readouterr().err

    def test_derivative_command_demands_suitable_noise(self, tmp_path, capsys):
        cfg = cli.parse_config(write_config(tmp_path, small_run_payload(tmp_path)))
        assert cli.run("derivative", cfg) == 2
        assert "poly_flat" in capsys.readouterr().err

    def test_derivative_at_zero_horizon_runs(self, tmp_path):
        # t_end = 0 takes no step: the gauge statistics come from the datum alone
        payload = small_run_payload(
            tmp_path,
            noise={"family": "poly_flat", "modes": 4, "amplitude": 0.25, "flatness": 3},
            u0={"kind": "constant", "m0": 0.2},
            stepper={"dt": 1e-3, "t_end": 0.0},
        )
        assert cli.run("derivative", cli.config_from_dict(payload)) == 0
        rows = json.loads((tmp_path / "out" / "derivative.json").read_text())["rows"]
        assert [r["mean"] for r in rows if r["quantity"] == "int_abs_gauge_prime"] == [0.0, 0.0]

    @pytest.mark.parametrize("value, code", [(0.3, 0), (1e300, 3)], ids=["exit-0", "exit-3"])
    def test_floating_point_rule_is_restored(self, tmp_path, value, code):
        payload = small_run_payload(tmp_path, g={"kind": "constant", "value": value})
        before = np.geterr()
        assert cli.run("uniform", cli.config_from_dict(payload)) == code
        assert np.geterr() == before

    @pytest.mark.parametrize(
        "stepper, levels, extra",
        [
            ({"dt": 0.2, "t_end": 2.0}, [0.005, 0.002, 0.001], {}),
            (
                {"dt": 0.5, "t_end": 5.0},
                [0.002, 0.001, 0.0005],
                {"grid": {"extent": [1.0, 1.0], "cells": [12, 12]}, "noise": {**CONFIG["noise"], "amplitude": 2.0}},
            ),
        ],
        ids=["1d-dt0.2", "2d-dt0.5"],
    )
    def test_long_steps_at_small_levels_run(self, tmp_path, stepper, levels, extra):
        # dt/lam up to 1000: beta_lam is the graph solve's own root, so its residual is not amplified by 1/lam
        payload = {**CONFIG, **extra, "stepper": stepper, "output_dir": str(tmp_path / "out")}
        payload["ensemble"] = {**CONFIG["ensemble"], "lambda_levels": levels}
        assert cli.run("uniform", cli.config_from_dict(payload)) == 0
        rows = json.loads((tmp_path / "out" / "uniform.json").read_text())["rows"]
        assert rows and all(math.isfinite(r[k]) for r in rows for k in ("mean", "se"))

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

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"version": 1, "ensemble": {"lambda_levels": 0.2}}, "config ensemble: lambda_levels"),
            ({"version": 1, "grid": {"cells": 32}}, "config grid: cells"),
        ],
    )
    def test_scalar_for_a_list_exits_2(self, tmp_path, capsys, payload, named):
        # exit 1 means a failed study assertion; a mistyped config is a usage error
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ensemble": {"replicates": 4.0}},
            {"noise": {"modes": 4.0}},
            {"u0": {"kind": "random_fourier", "modes": 3.0}},
            {"u0": {"kind": "cosine", "mode": 2.0}},
        ],
    )
    def test_integral_float_runs_as_its_integer_twin(self, tmp_path, overrides):
        csvs = []
        for name in ("float", "int"):
            payload = small_run_payload(tmp_path / name)
            for section, fields in overrides.items():
                if name == "int":
                    fields = {k: int(v) if isinstance(v, float) else v for k, v in fields.items()}
                payload[section] = {**payload.get(section, {}), **fields}
            assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload, f"{name}.json"))]) == 0
            csvs.append((tmp_path / name / "out" / "uniform.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("potential", "kind", "logarithmic"),
            ("potential", "K", None),
            ("stepper", "outer_newton_tol", 1e-10),
            ("stepper", "outer_newton_max", 50),
            ("stepper", "linear_tol", 1e-11),
            ("stepper", "linear_max", 500),
        ],
    )
    def test_removed_field_exits_2(self, tmp_path, capsys, section, field, value):
        # the solver controls are stepper constants and K is derived from c; no config names them
        payload = small_run_payload(tmp_path)
        payload[section] = {**payload.get(section, {}), field: value}
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"config section {section!r} has unknown fields [{field!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"ensemble": {"replicates": None}}, "config ensemble"),
            ({"noise": {"modes": math.inf}}, "config noise"),
            ({"grid": {"cells": [None]}}, "config grid"),
            ({"snapshot_stride": None}, "config snapshot_stride"),
            ({"stepper": {"t_end": math.inf}}, "config stepper: t_end must be finite"),
            ({"stepper": {"t_end": math.nan}}, "config stepper: t_end must be finite"),
            ({"potential": {"c": None}}, "config potential"),
            ({"grid": {"cells": [16.7]}}, "config grid: cells"),
            ({"ensemble": {"seed": True}}, "config ensemble: seed"),
            ({"stepper": {"dt": True}}, "config stepper: dt"),
            ({"noise": {"modes": False}}, "config noise: modes"),
            ({"g": {"value": True}}, "config g: value"),
            ({"u0": {"amplitude": "0.3"}}, "config u0: amplitude"),
            ({"output_dir": 3}, "config output_dir"),
            ({"g": {"kind": "constant", "value": math.nan}}, "config g: value must be finite"),
            ({"grid": {"extent": [math.nan]}}, "config grid: extent[0] must be finite"),
            ({"u0": {"kind": "random_fourier", "amplitude": math.inf}}, "config u0: amplitude must be finite"),
            ({"noise": {"amplitude": math.inf}}, "config noise: amplitude must be finite"),
            ({"u0": {"kind": "sawtooth"}}, "config u0: u0 kind must be one of"),
            ({"u0": {"kind": "cosine", "amplitude": 1.0}}, "config u0: u0 amplitude must satisfy |amplitude| < 1"),
            ({"u0": {"kind": "cosine", "mode": 0}}, "config u0: u0 cosine mode must be >= 1"),
            ({"u0": {"kind": "smooth_bump", "width": 0.0}}, "config u0: u0 smooth_bump width must be positive"),
            ({"u0": {"kind": "random_fourier", "modes": 0}}, "config u0: u0 random_fourier modes must be >= 1"),
            ({"u0": {"kind": "random_fourier", "clamp": 1.0}}, "config u0: u0 random_fourier clamp must lie in (0, 1)"),
            ({"g": {"kind": "wave"}}, "config g: g kind must be one of"),
            ({"g": {"kind": "file"}}, "config g: g kind 'file' needs a path"),
            ({"noise": {"amplitude": -0.1}}, "config noise: noise amplitude must be >= 0"),
            ({"noise": {"family": "poly_flat", "flatness": 0}}, "config noise: noise flatness must be >= 1"),
            ({"grid": {"extent": [1.0, 1.0]}}, "config grid: extent and cells must have the same length"),
            ({"stepper": {"t_end": -0.1}}, "config stepper: t_end must be nonnegative and finite"),
            ({"colour": "blue"}, "config has unknown top-level fields ['colour']"),
            ({"noise": 3}, "config section 'noise' must be an object"),
            ({"version": 2}, "unsupported config version 2"),
            ({"stepper": {"dt": 1e-300, "t_end": 1e300}}, "config stepper: t_end / dt must be a finite step count"),
        ],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, payload, named):
        # a value of another JSON type than its default's, a bool for a number, a
        # non-integral number for an integer, or a non-finite number is a usage
        # error, never a truncation
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, {"version": 1, **payload}))]) == 2
        assert named in capsys.readouterr().err

    def test_non_finite_forcing_file_exits_2(self, tmp_path, capsys):
        g = gr.Grid(extent=(1.0,), cells=(16,))
        forcing = np.zeros(16)
        forcing[5] = np.nan
        path = tmp_path / "g.acf"
        gr.save_field(path, g, forcing)
        payload = small_run_payload(tmp_path, g={"kind": "file", "path": str(path)})
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"forcing snapshot {path} holds non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("h1", [math.nan, math.inf])
    def test_non_finite_forcing_spacing_exits_2(self, tmp_path, capsys, h1):
        # a snapshot header spacing of NaN or inf matches no grid, whatever its cell count
        path = tmp_path / "g.acf"
        path.write_bytes(struct.pack("<4sIIIdd", b"ACF1", 1, 16, 0, h1, 0.0) + np.zeros(16).tobytes())
        payload = small_run_payload(tmp_path, g={"kind": "file", "path": str(path)})
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert "grid extent must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob, message",
        [
            (
                snapshot_bytes(2, 16, 1, 1 / 16, 1.0),
                "snapshot {path}: grid needs at least 2 cells per axis, got (16, 1)",
            ),
            (
                snapshot_bytes(1, 16, 0, math.nan, 0.0),
                "snapshot {path}: grid extent must be positive and finite, got (nan,)",
            ),
            (snapshot_bytes(3, 16, 16, 1 / 16, 1 / 16), "snapshot {path}: unsupported snapshot dimension 3"),
            (b"ACF1" + bytes(27), "truncated snapshot header in {path}"),
        ],
        ids=["one-cell-axis", "nan-spacing", "dimension-3", "truncated-header"],
    )
    def test_forcing_header_without_a_grid_names_the_file(self, tmp_path, capsys, blob, message):
        path = tmp_path / "g.acf"
        path.write_bytes(blob)
        payload = small_run_payload(tmp_path, g={"kind": "file", "path": str(path)})
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert message.format(path=path) in capsys.readouterr().err

    def test_forcing_snapshot_runs_as_its_field(self, tmp_path):
        # a snapshot of the constant 0.3 field forces the run exactly as the constant kind does
        path = tmp_path / "g.acf"
        gr.save_field(path, gr.Grid(extent=(1.0,), cells=(16,)), np.full(16, 0.3))
        csvs = []
        for name, g in (("file", {"kind": "file", "path": str(path)}), ("constant", {"kind": "constant", "value": 0.3})):
            payload = small_run_payload(tmp_path, g=g, output_dir=str(tmp_path / name))
            assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload, f"{name}.json"))]) == 0
            csvs.append((tmp_path / name / "uniform.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_forcing_snapshot_of_another_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.acf"
        written, run = gr.Grid(extent=(1.0,), cells=(32,)), gr.Grid(extent=(1.0,), cells=(16,))
        gr.save_field(path, written, np.zeros(32))
        payload = small_run_payload(tmp_path, g={"kind": "file", "path": str(path)})
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"forcing snapshot {path} was written for grid {written}, run uses {run}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_missing_forcing_file_exits_2(self, tmp_path, capsys):
        # exit 1 means a failed study check; a forcing snapshot that cannot be read is a usage error
        path = tmp_path / "absent.acf"
        payload = small_run_payload(tmp_path, g={"kind": "file", "path": str(path)})
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"cannot read snapshot {path}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_ragged_forcing_payload_exits_2(self, tmp_path, capsys):
        # 16 values and 3 stray bytes are not a whole number of float64 values
        path = tmp_path / "g.acf"
        gr.save_field(path, gr.Grid(extent=(1.0,), cells=(16,)), np.zeros(16))
        path.write_bytes(path.read_bytes() + bytes(3))
        payload = small_run_payload(tmp_path, g={"kind": "file", "path": str(path)})
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"snapshot {path} has 131 payload bytes, not 16 float64 values" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["is_a_file", "below_a_file", "report_is_a_dir"])
    def test_unusable_output_dir_exits_2(self, tmp_path, capsys, where):
        # the outputs cannot be made or written: a usage error named by its path, and no manifest
        blocker = tmp_path / "taken"
        out = blocker / "out" if where == "below_a_file" else blocker
        if where == "report_is_a_dir":
            (blocker / "oracles.csv").mkdir(parents=True)
        else:
            blocker.write_text("")
        assert cli.main(["oracles", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("oracles: ") and str(out) in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, size", [("uniform", "284. PiB"), ("cauchy", "213. PiB")])
    def test_run_too_large_to_allocate_exits_2(self, tmp_path, capsys, command, size):
        # 10^16 replicates of the 4 default levels: the first statistics array exceeds every x86-64 user
        # address space, so the allocation is refused before any memory is touched; a usage error, no manifest
        payload = {"version": 1, "ensemble": {"replicates": 10**16}, "output_dir": str(tmp_path / "out")}
        assert cli.main([command, "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err.startswith(f"{command}: Unable to allocate {size}")
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_negative_snapshot_stride_flag_exits_2(self, tmp_path, capsys):
        assert cli.main(["simulate", "--out", str(tmp_path), "--snapshot-stride", "-1"]) == 2
        assert "config snapshot_stride" in capsys.readouterr().err

    def test_module_entry_rejects_a_negative_stride(self, tmp_path):
        proc = run_module(tmp_path, "simulate", "--out", str(tmp_path), "--snapshot-stride", "-1")
        assert proc.returncode == 2
        assert "config snapshot_stride" in proc.stderr and "Traceback" not in proc.stderr

    def test_module_entry_solver_failure_exits_3(self, tmp_path):
        # finite but absurd forcing passes the config door; the first step's right side then overflows,
        # which the CLI's floating-point rule turns into exit 3
        payload = small_run_payload(tmp_path, g={"kind": "constant", "value": 1e300})
        payload["ensemble"] = {**payload["ensemble"], "replicates": 2}
        proc = run_module(tmp_path, "uniform", "--config", str(write_config(tmp_path, payload)))
        assert proc.returncode == 3
        assert "uniform: solver failed: overflow" in proc.stderr and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_module_entry_names_an_inadmissible_datum_shift(self, tmp_path):
        # 0.95 + 0.1, the largest default size, leaves (-1, 1): the study refuses before any lane runs
        path = write_config(tmp_path, {"u0": {"kind": "constant", "m0": 0.95}})
        proc = run_module(tmp_path, "dependence", "--config", str(path))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr == "dependence: a datum shift of 0.1 pushes the initial datum out of (-1, 1)\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_cauchy_on_identical_paths_fails_its_check(self, tmp_path):
        # the origin is a fixed point: every level runs the same path, so every coupled difference is 0
        payload = small_run_payload(tmp_path, noise={"modes": 0}, u0={"kind": "constant", "m0": 0.0})
        proc = run_module(tmp_path, "cauchy", "--config", str(write_config(tmp_path, payload)))
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert "cauchy: FAILED: cauchy delta not strictly decreasing" in proc.stderr
        report = json.loads((tmp_path / "out" / "cauchy.json").read_text())
        assert len(report["failures"]) == 1 and math.isnan(report["metadata"]["successive_ratios"][0])

    @pytest.mark.parametrize("value", [1e5, 1e6, 1e8, 5e8, 1e9], ids=["1e5", "1e6", "1e8", "5e8", "1e9"])
    def test_large_forcing_runs(self, tmp_path, value):
        # |x| near 5e4 puts the resolvent's residual floor, eps*|x|, above its 1e-12 tolerance;
        # from |u| ~ 5e5 the implicit residual rounds by eps*|u| > 1e-10, so the outer Newton stops at 4*eps*max|rhs|
        payload = small_run_payload(tmp_path, g={"kind": "constant", "value": value})
        payload["ensemble"] = {**payload["ensemble"], "replicates": 2}
        payload["stepper"] = {"dt": 1e-3, "t_end": 0.5}
        assert cli.main(["uniform", "--config", str(write_config(tmp_path, payload))]) == 0
        rows = json.loads((tmp_path / "out" / "uniform.json").read_text())["rows"]
        assert rows and all(math.isfinite(r[k]) for r in rows for k in ("mean", "se"))
