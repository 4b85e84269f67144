"""High-level solve pipeline shared by the CLI and tests."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .robust import RefineResult, RobustConfig, robust_refine
from .solver import SolveResult, SolverConfig, acd_solve, make_init
from .viewgraph import ViewGraph, assemble_blocks, chain_init, spanning_tree


@dataclass
class PipelineResult:
    rotations: np.ndarray
    solve: SolveResult
    refine: RefineResult | None
    timings_ms: dict[str, float]


def run_pipeline(
    graph: ViewGraph,
    cfg: SolverConfig,
    robust_kind: str = "none",
    robust_cfg: RobustConfig | None = None,
) -> PipelineResult:
    """Assemble, solve with coordinate descent, optionally refine robustly."""
    if robust_kind not in ("none", "irls", "airls"):
        raise ValueError(f"unknown robust stage {robust_kind!r}")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    blocks = assemble_blocks(graph, cfg.mode)
    timings["assemble"] = (time.perf_counter() - t0) * 1e3

    if cfg.init == "mst":
        init = chain_init(graph, spanning_tree(graph))
    else:
        init = make_init(cfg.init, graph.n, cfg.shuffle_seed)
    t0 = time.perf_counter()
    solve = acd_solve(blocks, cfg, init)
    timings["solve"] = (time.perf_counter() - t0) * 1e3

    refine = None
    rotations = solve.rotations
    if robust_kind != "none":
        mode = "aniso" if robust_kind == "airls" else "iso"
        t0 = time.perf_counter()
        refine = robust_refine(graph, rotations, replace(robust_cfg or RobustConfig(), mode=mode))
        timings["refine"] = (time.perf_counter() - t0) * 1e3
        rotations = refine.rotations

    return PipelineResult(rotations, solve, refine, timings)

