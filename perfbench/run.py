#!/usr/bin/env python3
"""Benchmark of logac's Monte Carlo studies.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One process runs one workload's study back to back, in-process through
cli.run with the workload's generated JSON config and a fresh output
directory: a closed loop with one client and one compute thread.  It
keeps starting studies until --seconds have passed, after one untimed
warm-up study that fills the lazy caches.  Every study's outputs are
checked (reference.py), and all studies of a run must write
byte-identical CSVs.

--trace 0 reports the end-to-end metrics: study_s (mean seconds from
cli.run entry to the report on disk), cell_steps_per_s, setup_s (median
over SETUP_PROBES fresh processes, spread evenly over the run, of the
time from process start until the first study could be called) and
peak_rss_mb.  The times are scaled to a reference host speed measured
by a calibration kernel timed between studies (calibration.py); the
wall-clock figures are printed beside them.

--trace 1 alternates untraced and traced studies and reports the
per-layer metrics of spans.py, with trace.overhead_frac = traced study_s
over untraced study_s, minus 1.  Tracing must not change a result bit.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Provenance and every sample go to
.perfbench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from logac import cli  # noqa: E402
from logac import datagen as dg  # noqa: E402

import calibration  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
CAL_RUNS = 3  # calibration kernel runs before each study
E2E_UNITS = {"study_s": "s", "cell_steps_per_s": "cell-steps/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def prepare(name: str, seed: int, work_dir: Path) -> cli.RunConfig:
    """A user's set-up: write and parse the workload's config, generate u0."""
    path = work_dir / "config.json"
    path.write_text(json.dumps(workloads.config_dict(name, seed)))
    cfg = cli.parse_config(path)
    e = cfg.ensemble
    dg.make_u0_batch(e.u0, e.grid, e.seed, e.replicates)
    return cfg


def run_study(command: str, cfg: cli.RunConfig, out_dir: Path) -> tuple[float, int]:
    """(seconds from cli.run entry to the report on disk, exit status)."""
    cfg = replace(cfg, output_dir=str(out_dir))
    t0 = time.perf_counter()
    code = cli.run(command, cfg)
    return time.perf_counter() - t0, code


def measure_setup(name: str, seed: int, probe_dir: Path) -> float:
    """Start-to-ready seconds of one fresh set-up process."""
    probe_dir.mkdir()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(probe_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.communicate(timeout=120)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} without reporting ready")
    return seconds


class Session:
    """Runs and checks the studies of one benchmark run."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.command = workloads.WORKLOADS[name].command
        self.work_dir = work_dir
        self.cfg = prepare(name, seed, work_dir)
        self.pinned = reference.load_pinned().get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.first_csv: bytes | None = None

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"{self.name} study {self.attempted}: {p}", file=sys.stderr)

    def study(self, cfg: cli.RunConfig) -> float:
        """Run and check one study; returns its study_s."""
        self.attempted += 1
        out_dir = self.work_dir / f"study{self.attempted}"
        t0 = time.perf_counter()
        try:
            seconds, code = run_study(self.command, cfg, out_dir)
            problems = reference.problems(self.command, out_dir, code, self.pinned)
            if code == 0:
                csv = (out_dir / f"{self.command}.csv").read_bytes()
                self.first_csv = self.first_csv or csv
                if csv != self.first_csv:
                    problems.append("CSV bytes differ from the first study of this run")
        except Exception:
            traceback.print_exc()
            seconds, problems = time.perf_counter() - t0, ["raised"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.fail(problems)
        return seconds


def until(seconds: float, sample) -> list:
    """Call sample() at least once and until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    out = [sample()]
    while time.perf_counter() < deadline:
        out.append(sample())
    return out


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    """Studies back to back, each after CAL_RUNS runs of the calibration kernel.

    The set-up probes are spread evenly over the run.  Mean study time and
    mean kernel time are averages over the same stretch of the run, so a
    host phase moves both; scaling by their ratio removes it.
    """
    cfg = session.cfg
    calibration.kernel_s()
    session.study(cfg)  # warm-up
    start = time.perf_counter()
    setup: list[float] = []
    cal: list[float] = []

    def probe():
        setup.append(measure_setup(session.name, session.seed, session.work_dir / f"setup{len(setup)}"))

    def sample():
        if len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            probe()
        cal.extend(calibration.kernel_s() for _ in range(CAL_RUNS))
        return session.study(cfg)

    study = until(seconds, sample)
    while len(setup) < SETUP_PROBES:
        probe()
    scale = calibration.REFERENCE_S / statistics.mean(cal)
    study_s = statistics.mean(study) * scale
    metrics = {
        "study_s": study_s,
        "cell_steps_per_s": workloads.cell_steps(session.command, cfg) / study_s,
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"setup_s": setup, "study_s": study, "cal_s": cal, "scale": scale}


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    cfg = session.cfg
    session.study(cfg)  # warm-up
    recorder = spans.Recorder()

    def pair():
        untraced = session.study(cfg)
        recorder.spans.clear()
        recorder.install()
        try:
            traced = session.study(prepare(session.name, session.seed, session.work_dir))
        finally:
            recorder.uninstall()
        return untraced, traced, spans.layer_metrics(recorder.spans)

    pairs = until(seconds, pair)
    samples = [layers for _, _, layers in pairs]
    counts = [{k: v for k, v in s.items() if spans.LAYER_UNITS[k] != "s"} for s in samples]
    if any(c != counts[0] for c in counts):
        session.fail([f"layer counts differ between traced studies: {counts}"])
    metrics = dict(counts[0])
    metrics.update({k: statistics.median(s[k] for s in samples) for k in samples[0] if k not in metrics})
    untraced = [u for u, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    spans.write_spans(OUT_ROOT / f"spans-{session.name}-seed{session.seed}.csv", recorder.spans)
    return metrics, {"untraced_study_s": untraced, "traced_study_s": traced, "layers": samples}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(session: Session) -> dict:
    cfg = session.cfg
    caches = _cache_sizes()
    ws = workloads.working_set(session.command, cfg)
    if "L3" in caches:
        ws["largest_over_l3"] = max(ws.values()) / caches["L3"]
    return {
        "commit": _git_commit(),
        "workload": session.name,
        "seed": session.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cell_steps_per_study": workloads.cell_steps(session.command, cfg),
        "working_set_computed": ws,
    }


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    k = n - 11
    return f"p{100 * (k + 1) / n:.0f} {sorted(samples)[k]!r} s (n={n})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="logac study benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        session = Session(args.workload, args.seed, work_dir)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples = measure(session, args.seconds)
        prov = provenance(session)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = spans.LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    result_path = OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({**result, "provenance": prov, "samples": samples}, indent=1) + "\n")

    print(f"provenance {json.dumps(prov)}")
    print(f"failed_frac {session.failed / session.attempted!r} ({session.failed}/{session.attempted} study runs)")
    if not args.trace:
        wall = samples["study_s"]
        print(f"wall-clock study_s median {statistics.median(wall)!r} s, {_tail(wall)}")
        print(f"wall-clock setup_s median {statistics.median(samples['setup_s'])!r} s")
        print(f"host speed scale {samples['scale']!r} (calibration kernel mean {statistics.mean(samples['cal_s'])!r} s)")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
