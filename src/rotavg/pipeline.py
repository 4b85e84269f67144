"""High-level solve pipeline shared by the CLI and tests."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .robust import RefineResult, RobustConfig, robust_refine
from .solver import SolveResult, SolverConfig, acd_solve, make_init
from .viewgraph import ViewGraph, assemble_blocks, chain_init, check_choice, spanning_tree

ROBUST_STAGES = ("none", "irls", "airls")


@dataclass
class PipelineResult:
    rotations: np.ndarray
    solve: SolveResult
    refine: RefineResult | None
    timings_ms: dict[str, float]


@contextmanager
def stage(timings: dict[str, float], name: str):
    """Record the block's wall time in milliseconds as `timings[name]`."""
    t0 = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - t0) * 1e3


def run_pipeline(
    graph: ViewGraph,
    cfg: SolverConfig,
    robust_kind: str = "none",
    robust_cfg: RobustConfig | None = None,
) -> PipelineResult:
    """Assemble, solve with coordinate descent, optionally refine robustly.

    Each stage's data is released when the stage ends: the connection blocks,
    their neighbor tables and the initial stack go as soon as `acd_solve`
    returns, so refinement holds only the graph and its own arrays. The
    stages' wall times are `timings_ms["assemble"]`, `["init"]` (the start
    stack, a spanning-tree chain for `init="mst"`), `["solve"]` and, with a
    robust stage, `["refine"]`.

    `robust_kind` (one of ROBUST_STAGES) sets the refinement mode, replacing
    `robust_cfg.mode`: "airls" refines aniso, "irls" iso. Only `tau_deg` is read.
    """
    check_choice(robust_kind, "robust stage", ROBUST_STAGES)
    if robust_kind == "airls":  # before any stage: a ValueError naming an edge without a Hessian
        graph.hessian_stack()
    timings: dict[str, float] = {}

    with stage(timings, "assemble"):
        blocks = assemble_blocks(graph, cfg.mode)

    with stage(timings, "init"):
        if cfg.init == "mst":
            init = chain_init(graph, spanning_tree(graph))
        else:
            init = make_init(cfg.init, graph.n, cfg.shuffle_seed)
    with stage(timings, "solve"):
        solve = acd_solve(blocks, cfg, init)
    del blocks, init

    refine = None
    rotations = solve.rotations
    if robust_kind != "none":
        mode = "aniso" if robust_kind == "airls" else "iso"
        with stage(timings, "refine"):
            refine = robust_refine(graph, rotations, replace(robust_cfg or RobustConfig(), mode=mode))
        rotations = refine.rotations

    return PipelineResult(rotations, solve, refine, timings)
