"""Tracing for the benchmark's traced run, kept entirely outside rotavg.

Spans are recorded by temporarily replacing public rotavg callables at the
module or class attribute through which their callers look them up (for
example `pipeline.acd_solve`, not `solver.acd_solve`, because the pipeline
imported the name). SO(3) maps are called per camera or per edge, so they get
counters instead of spans. Everything is kept in memory; `Tracer.spans` is
written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from rotavg import cli, pipeline, robust, so3, solver, synth, viewgraph


def _on_solve(result, counts):
    counts["solver.sweeps"] += result.sweeps_run
    counts["solver.camera_updates"] += result.sweeps_run * result.rotations.shape[0]


def _on_refine(result, counts):
    counts["robust.iters"] += result.iters_run
    counts["robust.halvings"] += sum(result.halving_trace)


# (owner, attribute, span name, hook reading the call's result)
SPAN_TARGETS = [
    (synth, "generate_scene", "synth.generate", None),
    (pipeline, "run_pipeline", "pipeline.run", None),
    (cli, "run_pipeline", "pipeline.run", None),
    (pipeline, "assemble_blocks", "viewgraph.assemble", None),
    (viewgraph.ConnectionBlocks, "neighbor_tables", "viewgraph.neighbor_tables", None),
    (cli, "load_view_graph", "viewgraph.load", None),
    (cli, "load_rotations", "viewgraph.load", None),
    (viewgraph, "save_view_graph", "viewgraph.save", None),
    (viewgraph, "save_rotations", "viewgraph.save", None),
    (cli, "save_rotations", "viewgraph.save", None),
    (pipeline, "acd_solve", "solver.acd", _on_solve),
    (solver, "objective", "solver.objective", None),
    (pipeline, "robust_refine", "robust.refine", _on_refine),
    (robust, "solve_normal_equations", "robust.normal_build", None),
    (robust.spla, "spsolve", "robust.linsolve", None),
    (robust._EdgeModel, "residuals", "robust.residuals", None),
    (cli.metrics, "evaluate", "metrics.evaluate", None),
]

# (owner, attribute, counter name)
COUNT_TARGETS = [
    (so3, "exp_so3", "so3.exp_calls"),
    (so3, "log_so3", "so3.log_calls"),
    (so3, "project_so3", "so3.project_calls"),
]


class Tracer:
    """In-memory spans `[name, start, end, parent, run]` and per-run counters.

    `parent` is the index in `spans` of the enclosing span, or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._run: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def run(self, run_id: str):
        """Trace everything rotavg does inside the block under `run_id`."""
        self._run = run_id
        self.counts[run_id] = Counter()
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._run = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._run])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _install(self):
        for owner, attr, name, hook in SPAN_TARGETS:
            self._patch(owner, attr, self._timed(getattr(owner, attr), name, hook))
        for owner, attr, name in COUNT_TARGETS:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result, self.counts[self._run])
            return result

        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[self._run][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self, run_id: str) -> dict[str, dict[str, float]]:
        """Per span name within one run: total seconds, self seconds and calls.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_time: Counter = Counter()
        for _, start, end, parent, run in self.spans:
            if run == run_id and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _, run) in enumerate(self.spans):
            if run != run_id:
                continue
            rec = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[idx]
            rec["calls"] += 1
        return out
