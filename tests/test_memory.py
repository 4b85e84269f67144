"""Traced memory of the per-edge stages: the streamed kernels keep the peak above a
stage's inputs to a few arrays the stage returns or keeps, plus O(EDGE_BLOCK).

Each bound is a number of bytes per edge plus a fixed allowance for the block
temporaries, checked at two sizes, so that the edge-proportional part, not
only the total at one size, is bounded.
"""

import gc
import tracemalloc

import pytest

from rotavg.pipeline import run_pipeline
from rotavg.robust import RobustConfig, robust_refine
from rotavg.solver import SolverConfig, acd_solve, make_init
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import assemble_blocks

# About 18,000 and 36,000 edges: 18 and 35 edge blocks.
SPECS = [SceneSpec(kind="general", n=1200, p=0.025, seed=1),
         SceneSpec(kind="general", n=2400, p=0.0125, seed=1)]
FIXED = 2 * 2**20


def traced_peak(fn):
    """(fn(), the traced peak above the memory held when fn was called)."""
    gc.collect()  # a collection inside the traced call moves its peak
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def runs():
    """Per size: the scene, generated traced, then a traced aniso ACD solve from zeros
    on its connection blocks, a traced aniso IRLS from the solve's rotations and a
    traced "airls" pipeline, which holds each stage's arrays only while it runs."""
    out = []
    for spec in SPECS:
        scene, gen_peak = traced_peak(lambda: generate_scene(spec))
        g = scene.graph
        nb = assemble_blocks(g, "aniso")
        solve, acd_peak = traced_peak(lambda: acd_solve(nb, SolverConfig(), make_init("zeros", g.n)))
        del nb
        refine, irls_peak = traced_peak(lambda: robust_refine(g, solve.rotations, RobustConfig(mode="aniso")))
        _, pipeline_peak = traced_peak(lambda: run_pipeline(g, SolverConfig(), "airls", RobustConfig()))
        out.append(dict(edges=len(g.i_idx), generate=gen_peak, acd=acd_peak, irls=irls_peak,
                        pipeline=pipeline_peak, newton=sum(solve.newton_trace), iters=refine.iters_run))
    return out


# Measured at about 18,000 and 36,000 edges, in bytes per edge: generation 232
# and 216 (723 and 721 with a stacked draw and a copying validator), ACD 285 and
# 352 (463 and 462 with the neighbor tables kept through the Newton steps, 605 and
# 604 with the Newton system's edge-sized stacks too; the larger scene sweeps after
# a Newton step, next to the pattern), IRLS 464 and 461 (656 with the weighted
# precisions, their negation and the effective precisions held for all edges), and
# the airls pipeline 469 and 466, set by its IRLS stage (724 and 721 with the
# connection blocks and their tables held through refinement).
@pytest.mark.parametrize("stage, b_per_edge", [("generate", 200), ("acd", 370), ("irls", 440),
                                               ("pipeline", 540)])
def test_peak_per_edge(runs, stage, b_per_edge):
    for run in runs:
        assert run[stage] <= b_per_edge * run["edges"] + FIXED, (run["edges"], run[stage] / run["edges"])
    assert all(run["newton"] >= 2 for run in runs) and all(run["iters"] >= 2 for run in runs)
    assert runs[1]["edges"] > 1.9 * runs[0]["edges"]
