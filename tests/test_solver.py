"""Tests for the coordinate-descent solver, its oracle, and initializations."""

import inspect
import re
import warnings

import numpy as np
import pytest

from rotavg import robust, so3, solver
from rotavg.solver import (
    SolveResult,
    SolverConfig,
    acd_solve,
    bcd_oracle_update,
    coordinate_update,
    make_init,
    objective,
    write_trace_csv,
)
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import ConnectionBlocks, EdgeMeasurement, ViewGraph, assemble_blocks

from conftest import dense_blocks


def consistent_graph(n, rng, p=1.0, hessian=None):
    """Complete (or thinned) graph whose measurements match a random ground truth."""
    gt = np.stack([so3.random_rotation(rng) for _ in range(n)])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if p < 1.0 and rng.random() > p and j != i + 1:
                continue
            edges.append(EdgeMeasurement(i, j, gt[j] @ gt[i].T, hessian))
    return ViewGraph(n, edges), gt


def random_spd(rng):
    v = so3.random_rotation(rng)
    return v @ np.diag(rng.uniform(1.0, 10.0, 3)) @ v.T


def nan_block_path():
    """Path 0-1-2 whose (1,2) connection block is all NaN."""
    lower = np.stack([np.eye(3), np.full((3, 3), np.nan)])
    return ConnectionBlocks(3, np.array([0, 1]), np.array([1, 2]), lower)


class TestSolverConfig:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(objective_tol=0.0)
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(step_tol_deg=-1.0)
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(objective_tol=float("nan"))
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(step_tol_deg=float("nan"))

    def test_rejects_zero_sweeps(self):
        with pytest.raises(ValueError, match="max_sweeps"):
            SolverConfig(max_sweeps=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), "3", None])
    def test_rejects_non_integer_sweeps(self, value):
        with pytest.raises(ValueError, match="max_sweeps must be an integer >= 1"):
            SolverConfig(max_sweeps=value)

    def test_numpy_integer_sweeps_pass(self):
        assert SolverConfig(max_sweeps=np.int64(3)).max_sweeps == 3

    @pytest.mark.parametrize("value", [-1, 2.5, "3", float("nan")])
    def test_rejects_invalid_shuffle_seed(self, value):
        with pytest.raises(ValueError, match="shuffle_seed must be an integer >= 0"):
            SolverConfig(shuffle_seed=value)

    def test_numpy_integer_shuffle_seed_passes(self):
        assert SolverConfig(shuffle_seed=np.int64(3)).shuffle_seed == 3

    @pytest.mark.parametrize("field, value, match", [
        ("init", "centroid", "unknown init 'centroid'"),
        ("init", "Zeros", "unknown init 'Zeros'"),
        ("mode", "h2i", "unknown mode 'h2i'"),
        ("mode", "ANISO", "unknown mode 'ANISO'"),
    ])
    def test_rejects_unknown_init_and_mode(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**{field: value})


class TestMakeInit:
    def test_zeros(self):
        np.testing.assert_array_equal(make_init("zeros", 4), np.zeros((4, 3, 3)))

    def test_identity(self):
        stack = make_init("identity", 3)
        for r in stack:
            np.testing.assert_array_equal(r, np.eye(3))

    def test_random_reproducible(self):
        a = make_init("random", 5, seed=7)
        b = make_init("random", 5, seed=7)
        np.testing.assert_array_equal(a, b)
        for r in a:
            assert so3.is_rotation(r)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="init kind"):
            make_init("centroid", 3)


class TestObjective:
    def test_two_cameras_consistent(self):
        rng = np.random.default_rng(0)
        r0, r1 = so3.random_rotation(rng), so3.random_rotation(rng)
        g = ViewGraph(2, [EdgeMeasurement(0, 1, r1 @ r0.T)])
        nb = assemble_blocks(g, "iso")
        assert objective(nb, np.stack([r0, r1])) == pytest.approx(-6.0, abs=1e-12)

    def test_zero_stack(self):
        g = ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3))])
        nb = assemble_blocks(g, "iso")
        assert objective(nb, np.zeros((2, 3, 3))) == 0.0

    def test_gauge_invariance(self):
        rng = np.random.default_rng(1)
        g, gt = consistent_graph(5, rng)
        nb = assemble_blocks(g, "iso")
        q = so3.random_rotation(rng)
        assert objective(nb, gt @ q[None]) == pytest.approx(objective(nb, gt), abs=1e-9)

    def test_matches_dense_evaluation(self):
        rng = np.random.default_rng(2)
        n = 4
        g, gt = consistent_graph(n, rng, hessian=None)
        nb = assemble_blocks(g, "iso")
        dense = np.zeros((3 * n, 3 * n))
        for e in range(nb.num_edges):
            i, j = int(nb.i_idx[e]), int(nb.j_idx[e])
            dense[3 * j : 3 * j + 3, 3 * i : 3 * i + 3] = nb.lower[e]
            dense[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = nb.lower[e].T
        stack = np.vstack(list(gt))
        want = -np.trace(dense @ stack @ stack.T)
        assert objective(nb, gt) == pytest.approx(want, rel=1e-12)


class TestCoordinateUpdate:
    def test_two_camera_update(self):
        rng = np.random.default_rng(3)
        rel = so3.random_rotation(rng)
        g = ViewGraph(2, [EdgeMeasurement(0, 1, rel)])
        nb = assemble_blocks(g, "iso")
        r = np.stack([np.eye(3), np.eye(3)])
        np.testing.assert_allclose(coordinate_update(nb, r, 1), rel, atol=1e-12)

    def test_isolated_vertex_gets_identity(self):
        g = ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3))])
        nb = assemble_blocks(g, "iso")
        r = make_init("identity", 3)
        with pytest.warns(UserWarning, match="no incident edges"):
            got = coordinate_update(nb, r, 2)
        np.testing.assert_array_equal(got, np.eye(3))

    def test_fixed_point_on_consistent_data(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g, gt = consistent_graph(5, rng)
            nb = assemble_blocks(g, "iso")
            for k in range(5):
                got = coordinate_update(nb, gt, k)
                assert np.linalg.norm(got - gt[k]) <= 1e-9

    def test_never_increases_objective(self):
        rng = np.random.default_rng(5)
        g, _ = consistent_graph(6, rng)
        nb = assemble_blocks(g, "iso")
        r = make_init("random", 6, seed=11)
        for _ in range(50):
            k = int(rng.integers(6))
            before = objective(nb, r)
            r[k] = coordinate_update(nb, r, k)
            assert objective(nb, r) <= before + 1e-9

    @pytest.mark.parametrize("k", [1, 2])
    def test_nan_block_raises(self, k):
        """A failed SVD raises; it is not read as an all-zero gathered term."""
        with pytest.raises(np.linalg.LinAlgError):
            coordinate_update(nan_block_path(), make_init("identity", 3), k)


class TestAcdSolve:
    def test_one_svd_per_camera_per_sweep(self, monkeypatch):
        """One SVD per camera per sweep and none per Newton step; the result
        says which iterations were Newton steps. A rejected Newton attempt
        evaluates its iterate, takes no SVD and leaves its iteration to a sweep."""
        sc = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=2))
        nb = assemble_blocks(sc.graph, "aniso")
        full = acd_solve(nb, SolverConfig(), make_init("identity", 30))
        # Stop after the last Newton step, before any later rejected attempt.
        last_newton = max(k for k, newton in enumerate(full.newton_trace) if newton)
        events = []  # "s" per SVD, "N" per Newton attempt, "o" per objective
        real_dgesdd, real_objective, real_newton = so3.dgesdd, solver.objective, solver._newton_iterate

        def counting_dgesdd(m):
            events.append("s")
            return real_dgesdd(m)

        def marking_objective(nb, r):
            events.append("o")
            return real_objective(nb, r)

        def marking_newton(nb, pattern, r):
            events.append("N")
            return real_newton(nb, pattern, r)

        monkeypatch.setattr(so3, "dgesdd", counting_dgesdd)
        monkeypatch.setattr(solver, "objective", marking_objective)
        monkeypatch.setattr(solver, "_newton_iterate", marking_newton)
        res = acd_solve(nb, SolverConfig(max_sweeps=last_newton + 1), make_init("identity", 30))
        assert res.sweeps_run == last_newton + 1
        assert res.newton_trace == full.newton_trace[: last_newton + 1]
        assert 0 < sum(res.newton_trace) < res.sweeps_run
        # One objective before the first iteration; per iteration, a kept Newton
        # step is an attempt and its objective, and a sweep is 30 SVDs and an
        # objective, after a rejected attempt and its objective if one was made.
        sweep = "(?:No)?" + "s" * 30 + "o"
        assert re.fullmatch("o" + "".join("No" if nt else sweep for nt in res.newton_trace),
                            "".join(events))
        assert events.count("N") > sum(res.newton_trace)  # this scene rejects an attempt

    def test_zero_start_evaluates_no_objective_before_the_first_sweep(self, monkeypatch):
        """From zeros the objective runs once per iteration and once per rejected Newton
        attempt; the all-zero start is not evaluated."""
        sc = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=2))
        nb = assemble_blocks(sc.graph, "aniso")
        events = []  # "s" per SVD, "N" per Newton attempt, "o" per objective
        real_dgesdd, real_objective, real_newton = so3.dgesdd, solver.objective, solver._newton_iterate
        monkeypatch.setattr(so3, "dgesdd", lambda m: events.append("s") or real_dgesdd(m))
        monkeypatch.setattr(solver, "objective", lambda nb, r: events.append("o") or real_objective(nb, r))
        monkeypatch.setattr(solver, "_newton_iterate",
                            lambda nb, pattern, r: events.append("N") or real_newton(nb, pattern, r))
        res = acd_solve(nb, SolverConfig(), make_init("zeros", 30))
        assert res.status == "converged" and any(res.newton_trace)
        # Per iteration: a kept Newton step is an attempt and its objective; a sweep is
        # SVDs and an objective, after a rejected attempt and its objective if one was made.
        assert re.fullmatch("".join("No" if nt else "(?:No)?s+o" for nt in res.newton_trace),
                            "".join(events))

    @pytest.mark.parametrize("init", ["zeros", "identity"])
    def test_nan_block_raises(self, init):
        with pytest.raises(np.linalg.LinAlgError):
            acd_solve(nan_block_path(), SolverConfig(max_sweeps=2), make_init(init, 3))

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(6)
        g, gt = consistent_graph(12, rng, hessian=None)
        nb = assemble_blocks(g, "iso")
        res = acd_solve(nb, SolverConfig(mode="iso"), make_init("zeros", 12))
        q = res.rotations[0].T @ gt[0]
        for est, true in zip(res.rotations @ q[None], gt):
            assert so3.angular_distance_deg(est, true) <= 1e-7
        assert res.status == "converged"

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        g, _ = consistent_graph(8, rng)
        nb = assemble_blocks(g, "iso")
        res = acd_solve(nb, SolverConfig(mode="iso"), make_init("random", 8, seed=3))
        diffs = np.diff(np.array(res.objective_trace))
        assert np.all(diffs <= 1e-9)

    def test_all_blocks_valid_after_first_sweep(self):
        rng = np.random.default_rng(8)
        g, _ = consistent_graph(10, rng)
        nb = assemble_blocks(g, "iso")
        res = acd_solve(
            nb, SolverConfig(mode="iso", max_sweeps=1), make_init("zeros", 10)
        )
        for r in res.rotations:
            assert so3.is_rotation(r)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        g, _ = consistent_graph(6, rng)
        nb = assemble_blocks(g, "iso")
        cfg = SolverConfig(mode="iso", shuffle_seed=5)
        a = acd_solve(nb, cfg, make_init("zeros", 6))
        b = acd_solve(nb, cfg, make_init("zeros", 6))
        np.testing.assert_array_equal(a.rotations, b.rotations)
        assert a.objective_trace == b.objective_trace

    def test_gauge_covariance(self):
        rng = np.random.default_rng(10)
        g, _ = consistent_graph(5, rng)
        nb = assemble_blocks(g, "iso")
        cfg = SolverConfig(mode="iso", shuffle_seed=2, max_sweeps=5,
                           objective_tol=1e-300, step_tol_deg=1e-300)
        init = make_init("random", 5, seed=1)
        q = so3.random_rotation(rng)
        plain = acd_solve(nb, cfg, init)
        shifted = acd_solve(nb, cfg, init @ q[None])
        np.testing.assert_allclose(shifted.rotations, plain.rotations @ q[None], atol=1e-9)
        np.testing.assert_allclose(
            shifted.objective_trace, plain.objective_trace, atol=1e-9
        )

    def test_iso_matches_h_twice_identity(self):
        rng = np.random.default_rng(11)
        g_iso, _ = consistent_graph(7, rng)
        edges = [
            EdgeMeasurement(e.i, e.j, e.rel, 2 * np.eye(3)) for e in g_iso.edges
        ]
        g_aniso = ViewGraph(7, edges)
        cfg_i = SolverConfig(mode="iso", shuffle_seed=4)
        cfg_a = SolverConfig(mode="aniso", shuffle_seed=4)
        a = acd_solve(assemble_blocks(g_iso, "iso"), cfg_i, make_init("zeros", 7))
        b = acd_solve(assemble_blocks(g_aniso, "aniso"), cfg_a, make_init("zeros", 7))
        np.testing.assert_array_equal(a.rotations, b.rotations)

    def test_disconnected_component_warns_and_completes(self):
        g = ViewGraph(
            4,
            [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(2, 3, np.eye(3))],
        )
        nb = assemble_blocks(g, "iso")
        with pytest.warns(UserWarning, match="unreachable"):
            res = acd_solve(nb, SolverConfig(mode="iso", max_sweeps=3), make_init("zeros", 4))
        for r in res.rotations:
            assert so3.is_rotation(r)

    @pytest.mark.parametrize("shuffle_seed", range(6))
    def test_isolated_vertex_does_not_take_the_seed(self, shuffle_seed):
        """Vertex 0 is visited first, in the middle or last across these seeds."""
        g = ViewGraph(3, [EdgeMeasurement(1, 2, np.eye(3))])
        cfg = SolverConfig(mode="iso", max_sweeps=2, shuffle_seed=shuffle_seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = acd_solve(assemble_blocks(g, "iso"), cfg, make_init("zeros", 3))
        messages = [str(w.message) for w in caught]
        assert messages == ["1 vertices have no incident edges, e.g. [0]; using identity"]
        assert res.max_step_trace[0] == 180.0
        assert all(so3.is_rotation(r) for r in res.rotations)

    def test_many_lone_cameras_warn_once(self):
        """200 lone cameras next to a connected scene: one warning per solve, with
        the count and the first ids; every lone camera gets the identity."""
        g = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=4)).graph
        g = ViewGraph.from_arrays(230, g.i_idx, g.j_idx, g.rel, g.hess)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = acd_solve(assemble_blocks(g, "aniso"), SolverConfig(), make_init("zeros", 230))
        assert [str(w.message) for w in caught] == [
            "200 vertices have no incident edges, e.g. [30, 31, 32, 33, 34]; using identity"]
        np.testing.assert_array_equal(res.rotations[30:], np.tile(np.eye(3), (200, 1, 1)))

    def test_partly_zero_init_completes_in_first_sweep(self):
        scene = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=4))
        assert scene.graph.is_connected()
        init = make_init("random", 30, seed=4)
        init[::3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = acd_solve(assemble_blocks(scene.graph, "aniso"), SolverConfig(max_sweeps=1), init)
        assert all(so3.is_rotation(r) for r in res.rotations)
        assert res.max_step_trace == [180.0]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", ["random", "partly_zero", "isolated_random", "isolated_zeros"])
    def test_max_step_is_largest_angle_of_the_sweep(self, case, seed):
        """The step of sweep s is the largest angle between the stacks after s-1
        and s sweeps, or exactly 180 if a camera starts the sweep unassigned.
        Shuffles are seeded by (seed, sweep), so max_sweeps=s stops after sweep s."""
        g = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=seed)).graph
        n = 30
        if case.startswith("isolated"):
            n = 31  # vertex 30 has no edges
            g = ViewGraph.from_arrays(n, g.i_idx, g.j_idx, g.rel, g.hess)
        nb = assemble_blocks(g, "aniso")
        init = make_init("zeros" if case == "isolated_zeros" else "random", n, seed=seed)
        if case == "partly_zero":
            init[::3] = 0.0
        prev = init
        for s in range(1, 6):
            cfg = SolverConfig(max_sweeps=s, shuffle_seed=seed,
                               objective_tol=1e-300, step_tol_deg=1e-300)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the isolated vertex warns
                res = acd_solve(nb, cfg, init)
            assert res.sweeps_run == s
            if np.any(prev, axis=(1, 2)).all():
                want = so3.angular_distance_deg(prev, res.rotations).max()
                assert abs(res.max_step_trace[-1] - want) <= 1e-9
            else:
                assert res.max_step_trace[-1] == 180.0
            prev = res.rotations

    def test_empty_graph(self):
        res = acd_solve(assemble_blocks(ViewGraph(0, []), "iso"), SolverConfig(mode="iso"),
                        make_init("zeros", 0))
        assert res.rotations.shape == (0, 3, 3)
        assert (res.max_step_trace, res.sweeps_run, res.status) == ([0.0], 1, "converged")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_applies_coordinate_update(self, seed):
        """The update a sweep applies is coordinate_update, bit for bit."""
        scene = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=seed))
        nb = assemble_blocks(scene.graph, "aniso")
        init = make_init("random", 30, seed=seed)
        res = acd_solve(nb, SolverConfig(max_sweeps=1, shuffle_seed=seed), init)
        r = init.copy()
        for k in np.random.default_rng([seed, 0]).permutation(30):
            r[k] = coordinate_update(nb, r, k)
        assert np.array_equal(res.rotations, r)
        assert res.objective_trace == [objective(nb, r)]

    def test_trace_csv(self, tmp_path):
        res = SolveResult(
            rotations=make_init("identity", 2),
            objective_trace=[-1.0, -2.0],
            max_step_trace=[10.0, 0.5],
            sweeps_run=2,
            status="converged",
            newton_trace=[False, True],
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sweep,objective,max_step_deg,newton"
        assert lines[1:] == ["1,-1,10,0", "2,-2,0.5,1"]


def sweeps_only(nb, init, seed, sweeps):
    """The iterates of plain sweeps from a stack that holds a rotation at every camera."""
    indices, coeffs = nb.neighbor_tables()
    r = init.copy()
    for s in range(sweeps):
        for k in np.random.default_rng([seed, s]).permutation(nb.n):
            new_rk = solver._gather_project(indices, coeffs, r, k)
            if new_rk is not None:
                r[k] = new_rk
    return r


class TestNewtonPolish:
    TIGHT = dict(objective_tol=1e-300, step_tol_deg=1e-300)

    def pulled_back(self, nb, r, x):
        """objective(R_k exp(x_k)) over the free cameras' x, camera 0 pinned."""
        full = np.zeros((nb.n, 3))
        full[1:] = x.reshape(-1, 3)
        return objective(nb, r @ so3.exp_so3(full))

    def test_derivatives_match_central_differences(self):
        """The analytic gradient and Hessian against central differences; the
        error shrinks as h^2."""
        sc = generate_scene(SceneSpec(kind="general", n=8, p=0.6, seed=3))
        nb = assemble_blocks(sc.graph, "aniso")
        r = make_init("random", 8, seed=1)
        hess, rhs, diag = solver.newton_system(nb, robust._NormalPattern(nb), r)
        hess, grad = hess.toarray(), -rhs
        assert np.array_equal(hess, hess.T)
        assert np.array_equal(diag, hess.reshape(7, 3, 7, 3)[np.arange(7), :, np.arange(7)])
        basis, errors = np.eye(21), []
        for h in (1e-2, 1e-3):
            f = lambda x: self.pulled_back(nb, r, h * x)  # noqa: E731
            fd_grad = np.array([f(e) - f(-e) for e in basis]) / (2 * h)
            fd_hess = np.array([[f(a + b) - f(a - b) - f(b - a) + f(-a - b) for b in basis]
                                for a in basis]) / (4 * h * h)
            errors.append((np.abs(fd_grad - grad).max(), np.abs(fd_hess - hess).max()))
        scale = np.abs(hess).max()
        for coarse, fine in zip(*errors):
            assert fine <= 1e-5 * scale and 50 <= coarse / fine <= 150

    def test_iso_matches_h_twice_identity(self):
        """H = 2I gives the iso connection blocks, so the Newton steps are bit-identical."""
        sc = generate_scene(SceneSpec(kind="general", n=40, p=0.4, seed=77))
        g2 = ViewGraph.from_arrays(40, sc.graph.i_idx, sc.graph.j_idx, sc.graph.rel,
                                   np.tile(2 * np.eye(3), (len(sc.graph.i_idx), 1, 1)))
        iso = acd_solve(assemble_blocks(sc.graph, "iso"),
                        SolverConfig(mode="iso", max_sweeps=12, **self.TIGHT), make_init("zeros", 40))
        aniso = acd_solve(assemble_blocks(g2, "aniso"),
                          SolverConfig(max_sweeps=12, **self.TIGHT), make_init("zeros", 40))
        assert sum(iso.newton_trace) >= 2
        assert np.array_equal(iso.rotations, aniso.rotations)
        for name in ("objective_trace", "max_step_trace", "newton_trace"):
            assert getattr(iso, name) == getattr(aniso, name)

    def test_newton_reaches_the_sweeps_minimum(self):
        sc = generate_scene(SceneSpec(kind="general", n=60, p=0.2, seed=5))
        nb = assemble_blocks(sc.graph, "aniso")
        res = acd_solve(nb, SolverConfig(), make_init("zeros", 60))
        assert res.status == "converged" and sum(res.newton_trace) >= 2
        assert res.newton_trace[:3] == [False, False, True]  # Newton after the first assigned sweep
        assert all(so3.is_rotation(r) for r in res.rotations)
        final = res.objective_trace[-1]
        assert np.all(np.diff(res.objective_trace) <= 1e-12 * abs(final))  # objective_tol
        more = objective(nb, sweeps_only(nb, res.rotations, 0, 200))
        assert abs(more - final) <= 1e-13 * abs(final)

    @pytest.mark.parametrize("n, p, seed, mode", [(60, 0.2, 5, "aniso"), (120, 0.1, 11, "aniso"),
                                                  (200, 0.05, 3, "aniso"), (150, 0.1, 7, "iso")])
    def test_exact_newton_step_certifies_convergence(self, n, p, seed, mode):
        """Newton CG stops at NEWTON_CG_RTOL, yet at the rotations of a converged
        solve an exact (CG_RTOL) Newton step moves no camera by step_tol_deg."""
        nb = assemble_blocks(generate_scene(SceneSpec(kind="general", n=n, p=p, seed=seed)).graph, mode)
        cfg = SolverConfig(mode=mode)
        res = acd_solve(nb, cfg, make_init("zeros", n))
        assert res.status == "converged" and any(res.newton_trace)
        x, _ = robust.block_jacobi_cg(*solver.newton_system(nb, robust._NormalPattern(nb), res.rotations))
        assert np.degrees(np.linalg.norm(x.reshape(-1, 3), axis=1).max()) < cfg.step_tol_deg

    def test_newton_cg_is_inexact_and_irls_cg_exact(self, monkeypatch):
        """Every CG of a Newton step stops at NEWTON_CG_RTOL; IRLS keeps CG_RTOL."""
        rtols, real_cg = [], robust.block_jacobi_cg

        def recording_cg(*args, **kwargs):
            call = inspect.signature(real_cg).bind(*args, **kwargs)
            call.apply_defaults()  # IRLS leaves rtol at its default
            rtols.append(call.arguments["rtol"])
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(robust, "block_jacobi_cg", recording_cg)
        monkeypatch.setattr(solver, "block_jacobi_cg", recording_cg)
        g = generate_scene(SceneSpec(kind="general", n=60, p=0.2, seed=5)).graph
        res = acd_solve(assemble_blocks(g, "aniso"), SolverConfig(), make_init("zeros", 60))
        assert any(res.newton_trace) and set(rtols) == {solver.NEWTON_CG_RTOL}
        for mode in ("iso", "aniso"):
            rtols.clear()
            robust.robust_refine(g, res.rotations, robust.RobustConfig(mode=mode))
            assert rtols and set(rtols) == {robust.CG_RTOL}

    @pytest.mark.parametrize("case", ["cg_fails", "cg_capped"])
    def test_no_newton_step_keeps_the_sweeps(self, case, monkeypatch):
        """A step CG cannot give is rejected: the iterates are those of the sweeps, bit for bit."""
        g = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=1)).graph
        if case == "cg_fails":
            monkeypatch.setattr(solver, "block_jacobi_cg", lambda *a, **kw: (None, 0))
        else:
            monkeypatch.setattr(solver, "NEWTON_CG_MAXITER", 1)
        nb = assemble_blocks(g, "aniso")
        init = make_init("random", 30, seed=1)
        res = acd_solve(nb, SolverConfig(max_sweeps=12, **self.TIGHT), init)
        assert not any(res.newton_trace)
        assert np.array_equal(res.rotations, sweeps_only(nb, init, 0, 12))
        # The cg_trace counts a rejected attempt's iterations: one for the capped CG.
        assert set(res.cg_trace) == ({0} if case == "cg_fails" else {0, 1})
        monkeypatch.undo()  # the scene takes Newton steps under the same rule
        connected = acd_solve(nb, SolverConfig(max_sweeps=12, **self.TIGHT), init)
        assert any(connected.newton_trace)
        assert all(c > 1 for c, newton in zip(connected.cg_trace, connected.newton_trace) if newton)

    @pytest.mark.parametrize("n, p, seed, mode, init", [(30, 0.3, 1, "aniso", "zeros"),
                                                        (60, 0.2, 9, "iso", "identity")])
    def test_sweep_after_newton_rebuilds_the_tables(self, n, p, seed, mode, init, monkeypatch):
        """Newton steps run without the neighbor tables; a sweep after one rebuilds them.
        Solves on blocks that were solved on before, and a coordinate update after
        them, equal those on fresh blocks bit for bit."""
        g = generate_scene(SceneSpec(kind="general", n=n, p=p, seed=seed)).graph
        nb, cfg = assemble_blocks(g, mode), SolverConfig(mode=mode)
        tables_held, newton_iterate = [], solver._newton_iterate

        def recording(nb, pattern, r):
            tables_held.append(nb._tables is not None)
            return newton_iterate(nb, pattern, r)

        monkeypatch.setattr(solver, "_newton_iterate", recording)
        runs = [acd_solve(nb, cfg, make_init(init, n)) for _ in range(2)]
        monkeypatch.undo()
        fresh = acd_solve(assemble_blocks(g, mode), cfg, make_init(init, n))
        assert tables_held and not any(tables_held)
        pattern = "".join("N" if newton else "s" for newton in fresh.newton_trace)
        assert "Ns" in pattern
        for res in runs:
            assert np.array_equal(res.rotations, fresh.rotations)
            for name in ("objective_trace", "max_step_trace", "newton_trace", "cg_trace", "status"):
                assert getattr(res, name) == getattr(fresh, name)
        r, other = make_init("random", n, seed=2), assemble_blocks(g, mode)
        for k in range(n):
            assert np.array_equal(coordinate_update(nb, r, k), coordinate_update(other, r, k))

    @pytest.mark.filterwarnings("ignore:1 vertices have no incident edges", "ignore:.*is unreachable")
    @pytest.mark.parametrize("case", ["disconnected", "isolated_vertex"])
    @pytest.mark.parametrize("init", ["zeros", "random"])
    def test_disconnected_graph_takes_newton_steps(self, case, init, monkeypatch):
        """Two copies of a scene side by side, or a scene and a lone camera: Newton
        steps keep each component's smallest camera (0 and 30) and the solve reaches
        the objective of the separate solves (a lone camera adds nothing to it)."""
        g = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=1)).graph
        alone = acd_solve(assemble_blocks(g, "aniso"), SolverConfig(), make_init(init, 30, seed=1))
        if case == "disconnected":
            n, copies = 60, 2
            g = ViewGraph.from_arrays(n, np.r_[g.i_idx, g.i_idx + 30], np.r_[g.j_idx, g.j_idx + 30],
                                      np.r_[g.rel, g.rel], np.r_[g.hess, g.hess])
        else:
            n, copies = 31, 1
            g = ViewGraph.from_arrays(n, g.i_idx, g.j_idx, g.rel, g.hess)
        kept, newton_iterate = [], solver._newton_iterate

        def recording(nb, pattern, r):
            r_new, iterations = newton_iterate(nb, pattern, r)
            assert np.flatnonzero(~pattern.free).tolist() == [0, 30]
            kept.append(r_new is not None and np.array_equal(r_new[[0, 30]], r[[0, 30]]))
            return r_new, iterations

        monkeypatch.setattr(solver, "_newton_iterate", recording)
        res = acd_solve(assemble_blocks(g, "aniso"), SolverConfig(), make_init(init, n, seed=1))
        assert res.status == "converged" and sum(res.newton_trace) >= 2 and all(kept)
        assert res.objective_trace[-1] == pytest.approx(copies * alone.objective_trace[-1], rel=1e-12)


class TestBcdOracle:
    def near_feasible_instance(self, n, rng, noise=0.1, perturb_deg=20.0):
        g, gt = consistent_graph(n, rng)
        edges = [
            EdgeMeasurement(
                e.i, e.j, e.rel @ so3.exp_so3(noise * rng.standard_normal(3))
            )
            for e in g.edges
        ]
        nb = assemble_blocks(ViewGraph(n, edges), "iso")
        r = np.stack(
            [
                true @ so3.exp_so3(np.radians(perturb_deg) * _unit(rng))
                for true in gt
            ]
        )
        return nb, r

    def test_matches_coordinate_update(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for trial in range(30):
            n = int(rng.integers(4, 9))
            nb, r = self.near_feasible_instance(n, rng)
            k = int(rng.integers(n))
            s_star = bcd_oracle_update(nb, r, k)
            direct = coordinate_update(nb, r, k)
            others = [m for m in range(n) if m != k]
            want = r[others].reshape(-1, 3) @ direct.T
            worst = max(worst, np.linalg.norm(s_star - want))
        assert worst <= 1e-8

    def test_two_camera_case(self):
        rng = np.random.default_rng(13)
        rel = so3.random_rotation(rng)
        nb = assemble_blocks(ViewGraph(2, [EdgeMeasurement(0, 1, rel)]), "iso")
        r = np.stack([so3.random_rotation(rng), np.eye(3)])
        s_star = bcd_oracle_update(nb, r, 1)
        assert s_star.shape == (3, 3)
        direct = coordinate_update(nb, r, 1)
        np.testing.assert_allclose(s_star, r[0] @ direct.T, atol=1e-8)

    def test_inner_gram_is_psd(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            nb, r = self.near_feasible_instance(n, rng)
            k = int(rng.integers(n))
            others = [m for m in range(n) if m != k]
            blocks = dense_blocks(nb)
            w = np.vstack([blocks[m, :, k] for m in others])
            b = r[others].reshape(-1, 3) @ r[others].reshape(-1, 3).T
            gram = w.T @ b @ w
            np.testing.assert_allclose(gram, gram.T, atol=1e-9)
            assert np.linalg.eigvalsh(gram).min() >= -1e-9


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)
