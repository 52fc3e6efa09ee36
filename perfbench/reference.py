"""Output checks for one study run, and the values pinned for them.

Every run must exit 0 with an empty `failures` list (the study verdict)
and finite numbers in every report row.  For a pinned seed the increment
digests must also match exactly and every row mean must match to REL_TOL.
REL_TOL leaves room for round-off and solver-tolerance changes (the outer
Newton tolerance is 1e-10) and catches any change of the computed result.

Regenerate the pins from a commit whose results are trusted:

    python3 perfbench/reference.py [SEED ...]
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

PINNED_PATH = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-6
ABS_TOL = 1e-12


def summarize(command: str, out_dir: Path) -> dict:
    """The checked facts of one study report: verdict, digests and row values."""
    report = json.loads((out_dir / f"{command}.json").read_text())
    meta = report["metadata"]
    if "increments_digests" in meta:
        digests = list(meta["increments_digests"])
    else:
        digests = [meta["increments_digest"]] if "increments_digest" in meta else []
    rows = {f"{r['quantity']}|{r['lam']!r}": [r["mean"], r["se"], r["ci_lo"], r["ci_hi"]] for r in report["rows"]}
    return {"failures": report["failures"], "digests": digests, "rows": rows}


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def problems(command: str, out_dir: Path, code: int, pinned: dict | None) -> list[str]:
    """Every way the run's outputs miss their checks; empty when correct."""
    if code != 0:
        return [f"cli.run exited {code}"]
    found = summarize(command, out_dir)
    out = [f"study verdict failed: {f}" for f in found["failures"]]
    out += [f"non-finite value in row {key}" for key, vals in found["rows"].items() if not all(map(math.isfinite, vals))]
    if pinned is None:
        return out
    if found["digests"] != pinned["digests"]:
        out.append(f"increments digests {found['digests']} differ from pinned {pinned['digests']}")
    means = {key: vals[0] for key, vals in found["rows"].items()}
    if means.keys() != pinned["means"].keys():
        out.append(f"report rows {sorted(means)} differ from pinned {sorted(pinned['means'])}")
    for key in means.keys() & pinned["means"].keys():
        if not math.isclose(means[key], pinned["means"][key], rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"mean of {key} is {means[key]!r}, pinned {pinned['means'][key]!r}")
    return out


def main(argv: list[str]) -> int:
    import run  # run imports this module
    import workloads

    seeds = [int(s) for s in argv] or [workloads.DEFAULT_SEED]
    pinned = {name: {} for name in workloads.WORKLOADS}
    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
        for name, wl in workloads.WORKLOADS.items():
            for seed in seeds:
                work_dir = Path(tmp) / f"{name}-{seed}"
                work_dir.mkdir()
                cfg = run.prepare(name, seed, work_dir)
                _, code = run.run_study(wl.command, cfg, work_dir / "out")
                bad = problems(wl.command, work_dir / "out", code, None)
                if bad:
                    print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                    return 1
                found = summarize(wl.command, work_dir / "out")
                pinned[name][str(seed)] = {
                    "digests": found["digests"],
                    "means": {key: vals[0] for key, vals in found["rows"].items()},
                }
                print(f"pinned {name} seed {seed}", flush=True)
    PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
