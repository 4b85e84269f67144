"""Tests for the high-level solve pipeline."""

import dataclasses
import time

import numpy as np
import pytest

from rotavg import metrics, pipeline, so3
from rotavg.pipeline import run_pipeline
from rotavg.robust import RobustConfig
from rotavg.solver import SolverConfig, acd_solve, make_init
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import EdgeMeasurement, ViewGraph, assemble_blocks, chain_init, spanning_tree


@pytest.mark.parametrize("robust_kind", ["irls", "airls"])
def test_robust_config_not_mutated(robust_kind):
    graph = generate_scene(SceneSpec(kind="general", n=8, p=0.8, seed=2)).graph
    cfg = RobustConfig(tau_deg=3.0)
    before = dataclasses.asdict(cfg)
    res = run_pipeline(graph, SolverConfig(), robust_kind, cfg)
    assert dataclasses.asdict(cfg) == before
    assert res.refine is not None and res.refine.iters_run >= 1


def test_airls_checks_hessians_before_acd(monkeypatch):
    """"airls" on a graph with an edge without a Hessian fails before ACD runs,
    naming that edge, even when ACD itself needs no Hessians."""
    g = generate_scene(SceneSpec(kind="general", n=8, p=0.8, seed=2)).graph
    has_hessian = np.arange(len(g.i_idx)) != 3
    g = ViewGraph.from_arrays(g.n, g.i_idx, g.j_idx, g.rel, g.hess, has_hessian)
    monkeypatch.setattr(pipeline, "acd_solve", lambda *args: pytest.fail("ACD ran"))
    with pytest.raises(ValueError, match=rf"edge \({g.i_idx[3]},{g.j_idx[3]}\) has none"):
        run_pipeline(g, SolverConfig(mode="iso"), "airls")


@pytest.mark.parametrize("init", ["zeros", "mst"])
def test_init_is_timed_and_the_solve_unchanged(init, monkeypatch):
    """Every run times its start stack as timings_ms["init"], the spanning tree and
    chain of an mst start included; the solve is that of acd_solve from the same start."""
    g = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=1)).graph
    cfg = SolverConfig(init=init)
    start = chain_init(g, spanning_tree(g)) if init == "mst" else make_init(init, g.n)
    direct = acd_solve(assemble_blocks(g, cfg.mode), cfg, start)

    def slow_chain_init(*args):
        time.sleep(0.05)
        return chain_init(*args)

    monkeypatch.setattr(pipeline, "chain_init", slow_chain_init)
    res = run_pipeline(g, cfg, "irls")
    assert set(res.timings_ms) == {"assemble", "init", "solve", "refine"}
    assert all(t >= 0 for t in res.timings_ms.values())
    assert (res.timings_ms["init"] >= 50.0) == (init == "mst")
    assert np.array_equal(res.solve.rotations, direct.rotations)
    for name in ("objective_trace", "max_step_trace", "newton_trace", "cg_trace", "status"):
        assert getattr(res.solve, name) == getattr(direct, name)


def test_nan_relative_rotation_rejected():
    """A NaN measurement is refused when the graph is built, not inside the SVD."""
    rel_nan = np.eye(3)
    rel_nan[0, 1] = np.nan
    with pytest.raises(ValueError, match=r"edge \(1,2\): relative rotation not finite"):
        run_pipeline(
            ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(1, 2, rel_nan)]),
            SolverConfig(mode="iso"),
        )


def aligned_gap_deg(est, ref):
    """Largest camera angle between `est` and `ref` after aligning est's gauge to ref."""
    return float(so3.angular_distance_deg(metrics.gauge_align(est, ref), ref).max())


def test_per_component_solves_each_component_alone():
    """One solve of a disconnected graph matches each component solved as its own
    graph, after aligning that component's gauge. The lone camera 4 keeps the
    identity, and the warnings name cameras by their ids in the whole graph."""
    rng = np.random.default_rng(3)
    gt = np.stack([so3.random_rotation(rng) for _ in range(7)])
    hess = [2.0 * np.eye(3), None, 3.0 * np.eye(3), None, np.eye(3)]
    pairs = [(0, 2), (1, 3), (2, 5), (0, 5), (3, 6)]  # components {0,2,5}, {1,3,6}, {4}
    g = ViewGraph(7, [EdgeMeasurement(i, j, gt[j] @ gt[i].T, h) for (i, j), h in zip(pairs, hess)])
    cfg = SolverConfig(mode="iso")
    with pytest.warns(UserWarning) as caught:
        got = run_pipeline(g, cfg).rotations
    messages = [str(w.message) for w in caught]
    assert "1 vertices have no incident edges, e.g. [4]; using identity" in messages
    assert sum("is unreachable from the seeded component" in m for m in messages) == 1
    for comp, ids in (([0, 2, 5], [0, 2, 3]), ([1, 3, 6], [1, 4])):
        local = {v: k for k, v in enumerate(comp)}
        sub = ViewGraph(len(comp), [
            EdgeMeasurement(local[pairs[e][0]], local[pairs[e][1]], g.rel[e], hess[e]) for e in ids
        ])
        assert aligned_gap_deg(got[comp], run_pipeline(sub, cfg).rotations) < 1e-8
    np.testing.assert_array_equal(got[4], np.eye(3))


@pytest.mark.filterwarnings("ignore:vertex", "ignore:1 vertices have no incident edges")
@pytest.mark.parametrize("init", ["zeros", "random", "mst"])
@pytest.mark.parametrize("robust_kind, tol_deg", [("none", 1e-8), ("irls", 1e-5)])
def test_disconnected_graph_matches_separate_solves(robust_kind, tol_deg, init):
    """Noisy 40- and 30-camera scenes side by side, plus a lone camera: ACD and iso
    IRLS match the separate solves to their tolerances in each component's gauge."""
    a, b = (generate_scene(SceneSpec(kind="general", n=n, p=0.3, seed=s)).graph
            for n, s in ((40, 1), (30, 101)))
    cfg = SolverConfig(init=init, shuffle_seed=1)
    g = ViewGraph.from_arrays(71, np.r_[a.i_idx, b.i_idx + 40], np.r_[a.j_idx, b.j_idx + 40],
                              np.r_[a.rel, b.rel], np.r_[a.hess, b.hess])
    got = run_pipeline(g, cfg, robust_kind).rotations
    for comp, sub in ((slice(0, 40), a), (slice(40, 70), b)):
        assert aligned_gap_deg(got[comp], run_pipeline(sub, cfg, robust_kind).rotations) < tol_deg
    assert so3.is_rotation(got[70])


@pytest.mark.parametrize("init", ["zeros", "mst"])
@pytest.mark.parametrize("robust_kind", ["none", "irls", "airls"])
def test_empty_graph(robust_kind, init):
    res = run_pipeline(ViewGraph(0), SolverConfig(init=init), robust_kind)
    assert res.rotations.shape == (0, 3, 3)
    assert res.refine is None or res.refine.status == "converged"
