"""Tests for the high-level solve pipeline."""

import dataclasses

import numpy as np
import pytest

from rotavg.pipeline import run_pipeline
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
