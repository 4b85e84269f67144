"""Tests for the high-level solve pipeline."""

import dataclasses

import numpy as np
import pytest

from rotavg import so3
from rotavg.pipeline import run_per_component, run_pipeline
from rotavg.robust import RobustConfig
from rotavg.solver import SolverConfig
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import EdgeMeasurement, ViewGraph


@pytest.mark.parametrize("robust_kind", ["irls", "airls"])
def test_robust_config_not_mutated(robust_kind):
    graph = generate_scene(SceneSpec(kind="general", n=8, p=0.8, seed=2)).graph
    cfg = RobustConfig(max_outer_iters=3)
    before = dataclasses.asdict(cfg)
    res = run_pipeline(graph, SolverConfig(), robust_kind, cfg)
    assert dataclasses.asdict(cfg) == before
    assert res.refine is not None and res.refine.iters_run >= 1


def test_nan_relative_rotation_rejected():
    """A NaN measurement is refused when the graph is built, not inside the SVD."""
    rel_nan = np.eye(3)
    rel_nan[0, 1] = np.nan
    with pytest.raises(ValueError, match=r"edge \(1,2\): relative rotation not finite"):
        run_pipeline(
            ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(1, 2, rel_nan)]),
            SolverConfig(mode="iso"),
        )


def test_per_component_solves_each_component_alone():
    """Each component is solved as its own graph, with its edges in graph order."""
    rng = np.random.default_rng(3)
    gt = np.stack([so3.random_rotation(rng) for _ in range(7)])
    hess = [2.0 * np.eye(3), None, 3.0 * np.eye(3), None, np.eye(3)]
    pairs = [(0, 2), (1, 3), (2, 5), (0, 5), (3, 6)]  # components {0,2,5}, {1,3,6}, {4}
    g = ViewGraph(7, [EdgeMeasurement(i, j, gt[j] @ gt[i].T, h) for (i, j), h in zip(pairs, hess)])
    cfg = SolverConfig(mode="iso")
    with pytest.warns(UserWarning, match="vertex 0 has no incident edges"):  # camera 4 alone
        got = run_per_component(g, cfg)
    for comp, ids in (([0, 2, 5], [0, 2, 3]), ([1, 3, 6], [1, 4])):
        local = {v: k for k, v in enumerate(comp)}
        sub = ViewGraph(len(comp), [
            EdgeMeasurement(local[pairs[e][0]], local[pairs[e][1]], g.rel[e], hess[e]) for e in ids
        ])
        np.testing.assert_array_equal(got[comp], run_pipeline(sub, cfg).rotations)
    np.testing.assert_array_equal(got[4], np.eye(3))
