"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder replaces each traced function at the module attribute its
callers look it up by (`nz.resolvent`, `st._pcg`, `gr.helmholtz_solve`,
...), so every call made through that name becomes a span: name, start,
end, the index of the enclosing span, and an optional work count taken
from the arguments.  Spans stay in memory; the benchmark writes them out
when it exits.  Newton, CG and backtrack counts are derived from span
parentage, never from the program's own state, so they repeat exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from logac import cli
from logac import datagen as dg
from logac import experiments as ex
from logac import grid as gr
from logac import noise as nz
from logac import potential as pot
from logac import stepper as st

NAME, START, END, PARENT, WORK = range(5)

# (module, attribute, work count from the call's arguments)
TARGETS = (
    (cli, "parse_config", None),
    (cli, "run", None),
    (cli, "_write_report", None),
    (dg, "make_u0_batch", None),
    (ex, "_run_lanes", None),
    (st, "step", None),
    (st, "_monotone_solve", lambda g, lam, rhs, *a, **k: np.size(rhs)),
    (st, "_pcg", None),
    (pot, "yosida_pair", lambda lam, x, *a, **k: np.size(x)),
    (pot, "yosida_eval", lambda level, x: np.size(x)),
    (pot, "resolvent_map", None),
    (nz, "resolvent", None),
    (nz, "sample_increment_block", lambda seed, reps, step, spec, dt: reps * spec.modes),
    (nz, "counter_normals", lambda seed, purpose, a, b, n: n),
    (nz, "mix_modes", lambda spec, v, dw, field_ndim: spec.modes * np.size(v)),
    (gr, "helmholtz_solve", None),
    (gr, "laplacian_neumann", None),
    (gr, "norms", None),
    (gr, "h_norm_sq", None),
    (gr, "grad_norm_sq", None),
)

# per-layer metric -> unit; BENCHMARK.json lists the same names
LAYER_UNITS = {
    "noise.draw_s": "s",
    "noise.draw_calls": "count",
    "noise.normals_drawn": "count",
    "noise.mix_s": "s",
    "noise.mix_calls": "count",
    "noise.mix_terms": "count",
    "potential.resolvent_s": "s",
    "potential.resolvent_calls": "count",
    "potential.yosida_s": "s",
    "potential.yosida_calls": "count",
    "potential.yosida_points": "count",
    "stepper.solve_self_s": "s",
    "stepper.solve_calls": "count",
    "stepper.newton_iters": "count",
    "stepper.residual_evals": "count",
    "stepper.backtracks": "count",
    "stepper.trial_accept_ratio": "ratio",
    "stepper.backtrack_exhausted": "count",
    "stepper.pcg_self_s": "s",
    "stepper.cg_iters": "count",
    "grid.helmholtz_s": "s",
    "grid.helmholtz_calls": "count",
    "grid.laplacian_s": "s",
    "grid.laplacian_calls": "count",
    "grid.quadrature_s": "s",
    "stepper.step_s": "s",
    "stepper.step_calls": "count",
    "experiments.engine_self_s": "s",
    "datagen.u0_s": "s",
    "cli.config_s": "s",
    "cli.report_write_s": "s",
    "trace.overhead_frac": "frac",
}

# _monotone_solve tries at most this many residual evaluations per Newton iteration
BACKTRACK_LIMIT = 12


class Recorder:
    """Wraps the traced functions and collects their spans in one list."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module, attr, work in TARGETS:
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer times and counts of one traced sample (all but trace.overhead_frac)."""
    names = [s[NAME] for s in spans]
    parents = [names[s[PARENT]] if s[PARENT] >= 0 else "" for s in spans]
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    trials = defaultdict(list)  # solve span -> residual evaluations per Newton iteration
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        child_time[p] += dur[i]
        if parents[i] == "stepper._monotone_solve":
            if names[i] == "stepper._pcg":
                trials[p].append(0)
            elif names[i] == "grid.laplacian_neumann" and trials[p]:
                trials[p][-1] += 1

    def pick(*wanted, parent=None):
        return [i for i, n in enumerate(names) if n in wanted and (parent is None or parents[i] in parent)]

    def total(idx):
        return float(sum(dur[i] for i in idx))

    def self_time(idx):
        return float(sum(dur[i] - child_time[i] for i in idx))

    def work(idx):
        return int(sum(spans[i][WORK] for i in idx))

    draws = pick("noise.sample_increment_block") + pick("noise.counter_normals", parent={"stepper.step"})
    mix = pick("noise.mix_modes")
    resolvent = pick("potential.resolvent_map", "noise.resolvent")
    yosida = pick("potential.yosida_pair", "potential.yosida_eval")
    solves = pick("stepper._monotone_solve")
    pcg = pick("stepper._pcg")
    residuals = pick("grid.laplacian_neumann", parent={"stepper._monotone_solve"})
    preconditioner = pick("grid.helmholtz_solve", parent={"stepper._pcg"})
    helmholtz = pick("grid.helmholtz_solve")
    laplacian = pick("grid.laplacian_neumann")
    quadrature = pick(
        "grid.norms",
        "grid.h_norm_sq",
        "grid.grad_norm_sq",
        "grid.laplacian_neumann",
        parent={"experiments._run_lanes", "stepper.step"},
    )
    steps = pick("stepper.step")
    trial_steps = len(residuals) - len(solves)
    return {
        "noise.draw_s": total(draws),
        "noise.draw_calls": len(draws),
        "noise.normals_drawn": work(draws),
        "noise.mix_s": total(mix),
        "noise.mix_calls": len(mix),
        "noise.mix_terms": work(mix),
        "potential.resolvent_s": total(resolvent),
        "potential.resolvent_calls": len(resolvent),
        "potential.yosida_s": total(yosida),
        "potential.yosida_calls": len(yosida),
        "potential.yosida_points": work(yosida),
        "stepper.solve_self_s": self_time(solves),
        "stepper.solve_calls": len(solves),
        "stepper.newton_iters": len(pcg),
        "stepper.residual_evals": len(residuals),
        "stepper.backtracks": trial_steps - len(pcg),
        "stepper.trial_accept_ratio": len(pcg) / trial_steps if trial_steps else 1.0,
        "stepper.backtrack_exhausted": sum(n == BACKTRACK_LIMIT for per_solve in trials.values() for n in per_solve),
        "stepper.pcg_self_s": self_time(pcg),
        "stepper.cg_iters": len(preconditioner) - len(pcg),
        "grid.helmholtz_s": total(helmholtz),
        "grid.helmholtz_calls": len(helmholtz),
        "grid.laplacian_s": total(laplacian),
        "grid.laplacian_calls": len(laplacian),
        "grid.quadrature_s": total(quadrature),
        "stepper.step_s": total(steps),
        "stepper.step_calls": len(steps),
        "experiments.engine_self_s": self_time(pick("experiments._run_lanes")),
        "datagen.u0_s": total(pick("datagen.make_u0_batch")),
        "cli.config_s": total(pick("cli.parse_config")),
        "cli.report_write_s": total(pick("cli._write_report")),
    }


def write_spans(path, spans: list[list]) -> None:
    """One line per span: index, name, start, end, parent index, work."""
    with open(path, "w") as fh:
        fh.write("index,name,start,end,parent,work\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[WORK]}\n")
