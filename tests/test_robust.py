"""Tests for the IRLS robust refinement stage."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from rotavg import robust, so3, solver
from rotavg.robust import (
    RobustConfig,
    _EdgeModel,
    irls_weight,
    robust_cost,
    robust_refine,
    solve_normal_equations,
    write_robust_trace_csv,
)
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import EdgeMeasurement, ViewGraph, assemble_blocks

from conftest import scipy_cg


def random_spd(rng):
    v = so3.random_rotation(rng)
    return v @ np.diag(rng.uniform(1.0, 10.0, 3)) @ v.T


def noisy_graph(n, rng, sigma=0.05, with_hessians=True, outliers=0):
    gt = np.stack([so3.random_rotation(rng) for _ in range(n)])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            rel = gt[j] @ gt[i].T @ so3.exp_so3(sigma * rng.standard_normal(3))
            h = random_spd(rng) if with_hessians else None
            edges.append(EdgeMeasurement(i, j, rel, h))
    for e_id in rng.choice(len(edges), size=outliers, replace=False):
        e = edges[e_id]
        edges[e_id] = EdgeMeasurement(e.i, e.j, so3.random_rotation(rng), e.hessian)
    return ViewGraph(n, edges), gt


def residual_tangent(rel, r_i, r_j):
    """Batched residual of the single edge (0, 1) between cameras r_i, r_j."""
    model = _EdgeModel(ViewGraph(2, [EdgeMeasurement(0, 1, rel)]), "iso")
    return model.residuals(np.stack([r_i, r_j]))[0]


def whitener(h):
    """Upper-triangular D with D^T D = clamped h, undoing the trace normalization."""
    model = _EdgeModel(ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3), h)]), "aniso")
    return model.dn[0] * np.sqrt(np.trace(model.h[0]) / 3.0)


class TestKernels:
    def test_geman_mcclure_values(self):
        assert robust_cost(np.array([0.0]), 1.0) == 0.0
        assert robust_cost(np.array([2.0]), 2.0) == pytest.approx(0.5)
        assert robust_cost(np.array([1e6 * 3.0]), 3.0) > 0.999999

    def test_geman_mcclure_monotone(self):
        xs = np.linspace(0, 10, 200)
        vals = [robust_cost(np.array([x]), 1.5) for x in xs]
        assert np.all(np.diff(vals) > 0)

    def test_irls_weight_values(self):
        assert irls_weight(0.0, 1.0) == 1.0
        assert irls_weight(2.0, 2.0) == pytest.approx(0.25)

    def test_irls_weight_range(self):
        xs = np.linspace(0, 100, 500)
        w = irls_weight(xs, 0.7)
        assert np.all(w > 0) and np.all(w <= 1)


class TestResidualTangent:
    def test_consistent_triple_is_zero(self):
        rng = np.random.default_rng(0)
        r_i, r_j = so3.random_rotation(rng), so3.random_rotation(rng)
        np.testing.assert_allclose(
            residual_tangent(r_j @ r_i.T, r_i, r_j), np.zeros(3), atol=1e-12
        )

    def test_identity_cameras(self):
        eps = np.array([0.03, -0.01, 0.02])
        got = residual_tangent(so3.exp_so3(eps), np.eye(3), np.eye(3))
        np.testing.assert_allclose(got, eps, atol=1e-12)

    def test_norm_preserved_under_conjugation(self):
        # 20 independent edges (2k, 2k+1) evaluated in one batched call.
        rng = np.random.default_rng(1)
        r = np.stack([so3.random_rotation(rng) for _ in range(40)])
        deltas = 0.4 * rng.standard_normal((20, 3))
        edges = [
            EdgeMeasurement(2 * k, 2 * k + 1, r[2 * k + 1] @ so3.exp_so3(d) @ r[2 * k].T)
            for k, d in enumerate(deltas)
        ]
        got = _EdgeModel(ViewGraph(40, edges), "iso").residuals(r)
        np.testing.assert_allclose(
            np.linalg.norm(got, axis=1), np.linalg.norm(deltas, axis=1), rtol=0, atol=1e-9
        )

    def test_matches_per_edge_log(self):
        # Outlier edges give residual angles across (0, pi].
        rng = np.random.default_rng(11)
        g, gt = noisy_graph(9, rng, sigma=0.1, outliers=12)
        r = np.stack([x @ so3.exp_so3(0.2 * rng.standard_normal(3)) for x in gt])
        want = np.stack([so3.log_so3(r[e.j].T @ e.rel @ r[e.i]) for e in g.edges])
        got = _EdgeModel(g, "iso").residuals(r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestCholeskyFactor:
    def test_reconstructs_hessian(self):
        h = random_spd(np.random.default_rng(2))
        d = whitener(h)
        assert np.allclose(np.triu(d), d)  # upper triangular
        np.testing.assert_allclose(d.T @ d, h, rtol=1e-12, atol=1e-12)

    def test_semidefinite_input_repaired(self):
        h = np.diag([4.0, 1.0, 0.0])
        d = whitener(h)
        assert np.all(np.isfinite(d))
        np.testing.assert_allclose((d.T @ d), h, atol=1e-6)

    def test_normalized_by_trace(self):
        rng = np.random.default_rng(12)
        g, _ = noisy_graph(5, rng)
        model = _EdgeModel(g, "aniso")
        np.testing.assert_allclose(
            np.einsum("eba,ebc->eac", model.dn, model.dn).trace(axis1=1, axis2=2),
            np.full(len(g.edges), 3.0),
            rtol=1e-12,
        )

    def test_zero_trace_hessian_rejected(self):
        edges = [
            EdgeMeasurement(0, 1, np.eye(3), np.eye(3)),
            EdgeMeasurement(0, 2, np.eye(3), np.zeros((3, 3))),
            EdgeMeasurement(1, 2, np.eye(3), np.eye(3)),
        ]
        g = ViewGraph(3, edges)
        with pytest.raises(ValueError, match=r"edge \(0,2\).*trace"):
            robust_refine(g, np.tile(np.eye(3), (3, 1, 1)), RobustConfig(mode="aniso"))


def forbid_products(monkeypatch, on_product):
    """Make every matrix `_NormalPattern` builds call `on_product` when multiplied: CG
    multiplies in every iteration, so no call means no CG iteration ran."""
    class Forbidden:
        def __matmul__(self, other):
            on_product()

    monkeypatch.setattr(robust._NormalPattern, "matrix", lambda self, data, diag: Forbidden())


class TestNormalEquations:
    def test_gauss_newton_against_dense_solve(self):
        rng = np.random.default_rng(3)
        g, _ = noisy_graph(5, rng, sigma=0.1, with_hessians=False)
        e_count = len(g.edges)
        weights = np.ones(e_count)
        precisions = np.tile(np.eye(3), (e_count, 1, 1))
        omegas = 0.1 * rng.standard_normal((e_count, 3))
        delta, _ = solve_normal_equations(robust._NormalPattern(g), weights, precisions.__getitem__, omegas)
        np.testing.assert_array_equal(delta[0], np.zeros(3))
        # Dense reference: least squares on J delta = stacked residuals with
        # row blocks (delta_j - delta_i) and camera 0 eliminated.
        m = g.n - 1
        jac = np.zeros((3 * e_count, 3 * m))
        rhs = omegas.ravel()
        for e_id, e in enumerate(g.edges):
            if e.i >= 1:
                jac[3 * e_id : 3 * e_id + 3, 3 * (e.i - 1) : 3 * e.i] = -np.eye(3)
            if e.j >= 1:
                jac[3 * e_id : 3 * e_id + 3, 3 * (e.j - 1) : 3 * e.j] = np.eye(3)
        want, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        np.testing.assert_allclose(delta[1:].ravel(), want, atol=1e-8)

    @pytest.mark.parametrize(
        "cg_fails, iso", [(False, False), (True, False), (False, True), (True, True)],
        ids=["cg", "direct_fallback", "iso-cg", "iso-direct_fallback"],
    )
    def test_weight_spread_against_dense_solve(self, cg_fails, iso, monkeypatch):
        # Weights over 1e-6..1 and anisotropic precisions: least squares on
        # the rows sqrt(w_e) D_e (delta_j - delta_i - omega_e), camera 0 pinned.
        # Iso passes no precisions and is checked against D_e = I; on the CG
        # path it equals the block solve with identity precisions bit for bit.
        real_spsolve, spsolves = robust.spla.spsolve, []
        monkeypatch.setattr(robust.spla, "spsolve", lambda *a: spsolves.append(1) or real_spsolve(*a))
        if cg_fails:  # CG runs out after one iteration, and spsolve solves
            cg = robust.block_jacobi_cg
            monkeypatch.setattr(robust, "block_jacobi_cg", lambda *a: cg(*a, maxiter=1))
        rng = np.random.default_rng(13)
        g, _ = noisy_graph(8, rng, sigma=0.1)
        e_count = len(g.edges)
        weights = 10.0 ** rng.uniform(-6.0, 0.0, e_count)
        precisions = np.stack([random_spd(rng) for _ in range(e_count)])
        omegas = 0.1 * rng.standard_normal((e_count, 3))
        pattern = robust._NormalPattern(g)
        if iso:
            precisions = np.tile(np.eye(3), (e_count, 1, 1))
        delta, iterations = solve_normal_equations(pattern, weights, None if iso else precisions.__getitem__,
                                                   omegas)
        assert len(spsolves) == cg_fails and (iterations == 1 if cg_fails else iterations > 1)
        if iso and not cg_fails:
            block, _ = solve_normal_equations(pattern, weights, precisions.__getitem__, omegas)
            assert np.array_equal(delta, block)
        np.testing.assert_array_equal(delta[0], np.zeros(3))
        m = g.n - 1
        jac = np.zeros((3 * e_count, 3 * m))
        rhs = np.zeros(3 * e_count)
        for e_id, e in enumerate(g.edges):
            d = np.sqrt(weights[e_id]) * np.linalg.cholesky(precisions[e_id]).T
            rows = slice(3 * e_id, 3 * e_id + 3)
            if e.i >= 1:
                jac[rows, 3 * (e.i - 1) : 3 * e.i] = -d
            jac[rows, 3 * (e.j - 1) : 3 * e.j] = d
            rhs[rows] = d @ omegas[e_id]
        want, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
        np.testing.assert_allclose(delta[1:].ravel(), want, atol=1e-8)

    @pytest.mark.parametrize("iso", [False, True], ids=["aniso", "iso"])
    def test_assembled_system_matches_per_edge_sum(self, iso):
        # Camera 0 on three edges; camera 5's only edge goes to camera 0.
        # Iso assembles the scalar Laplacian L, and the system is L kron I3.
        pairs = [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        g = ViewGraph(6, [EdgeMeasurement(i, j, np.eye(3)) for i, j in pairs])
        rng = np.random.default_rng(14)
        e_count = len(pairs)
        weights = 10.0 ** rng.uniform(-6.0, 0.0, e_count)
        precisions = np.stack([random_spd(rng) for _ in range(e_count)])
        omegas = 0.1 * rng.standard_normal((e_count, 3))
        pattern = robust._NormalPattern(g)
        if iso:
            precisions = np.tile(np.eye(3), (e_count, 1, 1))
            block, _ = solve_normal_equations(pattern, weights, precisions.__getitem__, omegas)
            assert np.array_equal(solve_normal_equations(pattern, weights, None, omegas)[0], block)
        a, rhs, _ = pattern.assemble(weights, None if iso else precisions.__getitem__, omegas)
        a, rhs = (np.kron(a.toarray(), np.eye(3)), rhs.ravel()) if iso else (a.toarray(), rhs)
        m = g.n - 1
        want_a, want_rhs = np.zeros((m, 3, m, 3)), np.zeros((m, 3))
        for (i, j), w, p, om in zip(pairs, weights, precisions, omegas):
            wp = w * p
            for r, c, sign in ((i, i, 1.0), (j, j, 1.0), (i, j, -1.0), (j, i, -1.0)):
                if r >= 1 and c >= 1:
                    want_a[r - 1, :, c - 1, :] += sign * wp
            if i >= 1:
                want_rhs[i - 1] -= wp @ om
            want_rhs[j - 1] += wp @ om
        want_a = want_a.reshape(3 * m, 3 * m)
        assert a.shape == want_a.shape
        np.testing.assert_allclose(a, want_a, rtol=1e-14, atol=1e-14 * np.abs(want_a).max())
        np.testing.assert_allclose(rhs, want_rhs.ravel(), rtol=1e-14, atol=1e-14 * np.abs(want_rhs).max())

    @pytest.mark.parametrize(
        "pairs, pinned", [([(0, 1), (1, 2), (0, 2)], [0, 3]), ([(0, 1), (2, 3)], [0, 2])],
        ids=["isolated_vertex", "split_pair"],
    )
    def test_pinned_camera_per_component_has_zero_step(self, pairs, pinned):
        """The smallest camera of each component is pinned; the step of each
        component is that of its own system solved alone."""
        rng = np.random.default_rng(16)
        g = ViewGraph(4, [EdgeMeasurement(i, j, np.eye(3)) for i, j in pairs])
        pattern = robust._NormalPattern(g)
        assert np.flatnonzero(~pattern.free).tolist() == pinned and pattern.m == 4 - len(pinned)
        weights, omegas = rng.uniform(0.1, 1.0, len(pairs)), rng.standard_normal((len(pairs), 3))
        precisions = np.stack([random_spd(rng) for _ in pairs])
        delta, _ = solve_normal_equations(pattern, weights, precisions.__getitem__, omegas)
        assert not delta[pinned].any() and np.all(delta[pattern.free] != 0.0)
        for comp in g.components():
            ids = [e for e, (i, _) in enumerate(pairs) if i in comp]
            sub = ViewGraph(len(comp), [
                EdgeMeasurement(comp.index(pairs[e][0]), comp.index(pairs[e][1]), np.eye(3)) for e in ids
            ])
            alone, _ = solve_normal_equations(robust._NormalPattern(sub), weights[ids],
                                              precisions[ids].__getitem__, omegas[ids])
            np.testing.assert_allclose(delta[comp], alone, rtol=1e-10, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:Matrix is exactly singular")
    @pytest.mark.parametrize("weight", [0.0, np.nan], ids=["zero", "nan"])
    @pytest.mark.parametrize("iso", [False, True], ids=["aniso", "iso"])
    def test_unweighted_camera_is_singular(self, iso, weight, monkeypatch):
        # The pattern is connected, but every edge of camera 3 has this weight.
        # The diagonal check rejects it before CG runs, also on the block path
        # with NaN weights, whose inverse LAPACK computes without error.
        forbid_products(monkeypatch, lambda: pytest.fail("CG ran"))
        rng = np.random.default_rng(15)
        g, _ = noisy_graph(5, rng)
        e_count = len(g.edges)
        weights = rng.uniform(0.1, 1.0, e_count)
        weights[(g.i_idx == 3) | (g.j_idx == 3)] = weight
        precisions = None if iso else np.stack([random_spd(rng) for _ in range(e_count)]).__getitem__
        with pytest.raises(ValueError, match="singular"):
            solve_normal_equations(
                robust._NormalPattern(g), weights, precisions, 0.1 * np.ones((e_count, 3))
            )

    def test_nan_block_raises_before_cg(self, monkeypatch):
        """NaN weights at camera 3 of an n=40 graph: the block path raises at
        once instead of running CG to its iteration limit."""
        cg_calls = []
        forbid_products(monkeypatch, lambda: cg_calls.append(1))
        g = generate_scene(SceneSpec(kind="general", n=40, p=0.3, seed=1)).graph
        weights = np.ones(len(g.i_idx))
        weights[(g.i_idx == 3) | (g.j_idx == 3)] = np.nan
        omegas = np.full((len(weights), 3), 0.1)
        with pytest.raises(ValueError, match="singular"):
            solve_normal_equations(robust._NormalPattern(g), weights, g.hessian_stack().__getitem__, omegas)
        assert cg_calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diagonal_block_raises(self, bad):
        """LAPACK inverts an infinite block to a finite one; the check reads both."""
        diag = np.tile(np.eye(3), (2, 1, 1))
        diag[1, 0, 0] = bad
        with pytest.raises(np.linalg.LinAlgError):
            robust.block_jacobi_cg(None, np.ones(6), diag)

    def test_pinned_gauge_makes_system_nonsingular(self):
        rng = np.random.default_rng(4)
        g, _ = noisy_graph(6, rng, sigma=0.05)
        e_count = len(g.edges)
        delta, _ = solve_normal_equations(
            robust._NormalPattern(g),
            rng.uniform(0.1, 1.0, e_count),
            np.stack([random_spd(rng) for _ in range(e_count)]).__getitem__,
            0.05 * rng.standard_normal((e_count, 3)),
        )
        assert np.all(np.isfinite(delta))


class TestBlockJacobiCG:
    """The in-house CG against `scipy.sparse.linalg.cg` (`conftest.scipy_cg`): the same
    x bit for bit, and as many iterations as scipy's callback counts."""

    @pytest.fixture(scope="class")
    def systems(self):
        """The Newton system after two sweeps of a general scene, and the aniso (3x3
        blocks) and iso (scalar) IRLS systems at that iterate."""
        g = generate_scene(SceneSpec(kind="general", n=60, p=0.2, seed=5)).graph
        nb = assemble_blocks(g, "aniso")
        r = solver.acd_solve(nb, solver.SolverConfig(max_sweeps=2), solver.make_init("zeros", 60)).rotations
        pattern = robust._NormalPattern(g)
        out = {"newton": solver.newton_system(nb, pattern, r)}
        for mode in ("aniso", "iso"):
            model = _EdgeModel(g, mode)
            omegas = model.residuals(r)
            weights = irls_weight(model.whitened_norms(r, omegas), np.radians(5.0))
            out[mode] = pattern.assemble(weights, model.effective_precisions(r), omegas)
        return out

    @pytest.mark.parametrize("rtol", [1e-4, 1e-12])
    @pytest.mark.parametrize("system", ["newton", "aniso", "iso"])
    def test_matches_scipy(self, systems, system, rtol):
        x, iterations = robust.block_jacobi_cg(*systems[system], rtol=rtol)
        want, count = scipy_cg(*systems[system], rtol=rtol)
        assert x is not None and np.array_equal(x, want)
        assert iterations == count > 1

    @pytest.mark.parametrize("system", ["newton", "aniso", "iso"])
    def test_capped_maxiter_runs_out(self, systems, system):
        """A CG that uses all its iterations fails, as scipy's does."""
        assert robust.block_jacobi_cg(*systems[system], maxiter=3) == (None, 3)
        assert scipy_cg(*systems[system], maxiter=3) == (None, 3)

    @pytest.mark.parametrize("system", ["newton", "iso"])
    def test_zero_rhs_takes_no_iteration(self, systems, system):
        a, rhs, diag = systems[system]
        x, iterations = robust.block_jacobi_cg(a, np.zeros_like(rhs), diag)
        want, count = scipy_cg(a, np.zeros_like(rhs), diag)
        assert np.array_equal(x, want) and not x.any() and x.shape == (rhs.size,)
        assert iterations == count == 0

    def test_indefinite_system_matches_scipy(self):
        """At a random start the Newton matrix is indefinite: CG goes on as scipy's
        does, to the same x in as many iterations."""
        g = generate_scene(SceneSpec(kind="general", n=30, p=0.3, seed=2)).graph
        nb = assemble_blocks(g, "aniso")
        a, rhs, diag = solver.newton_system(nb, robust._NormalPattern(nb),
                                            solver.make_init("random", 30, seed=1))
        assert np.linalg.eigvalsh(a.toarray())[0] < 0
        x, iterations = robust.block_jacobi_cg(a, rhs, diag)
        want, count = scipy_cg(a, rhs, diag)
        assert x is not None and np.array_equal(x, want) and iterations == count


def lexsort_pattern(g):
    """(indices, indptr, diag_slot, upper_slot, lower_slot) of the free-camera block
    pattern, slots ordered by np.lexsort on (row, column); each edge at the pinned
    camera 0 gets a spare slot of its own past the end, in edge order."""
    m = g.n - 1
    fi, fj = g.i_idx - 1, g.j_idx - 1
    free = np.flatnonzero(fi >= 0)
    rows = np.concatenate([np.arange(m), fi[free], fj[free]])
    cols = np.concatenate([np.arange(m), fj[free], fi[free]])
    order = np.lexsort((cols, rows))
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    upper, lower = np.full((2, len(fj)), len(order))
    upper[free], lower[free] = slot[m:m + len(free)], slot[m + len(free):]
    upper[fi < 0] = lower[fi < 0] = len(order) + np.arange(np.count_nonzero(fi < 0))
    indptr = np.searchsorted(rows[order], np.arange(m + 1))
    return cols[order], indptr, slot[:m], upper, lower


class TestNormalPattern:
    @pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (30, 0.2, 1), (60, 0.1, 2), (120, 0.05, 3)])
    def test_slots_match_lexsort_reference(self, n, p, seed):
        g = generate_scene(SceneSpec(kind="general", n=n, p=p, seed=seed)).graph
        assert (g.i_idx == 0).any()  # edges at the pinned camera write to the spare slot
        pattern = robust._NormalPattern(g)
        want = lexsort_pattern(g)
        got = (pattern.indices, pattern.indptr, pattern.diag_slot, pattern.upper_slot,
               pattern.lower_slot)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert (pattern.upper_slot[g.i_idx == 0] >= len(pattern.indices)).all()
        assert pattern.slots == len(pattern.indices) + np.count_nonzero(g.i_idx == 0)

    @pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (30, 0.2, 1), (120, 0.05, 3)])
    def test_incidence_and_cover_match_coo_reference(self, n, p, seed):
        """The incidence, written directly, equals scipy's COO conversion in values,
        index arrays and dtypes; `cover` shares its row pointers and sums each free
        camera's lower-slot blocks in the incidence's (edge) order."""
        g = generate_scene(SceneSpec(kind="general", n=n, p=p, seed=seed)).graph
        pattern = robust._NormalPattern(g)
        m, edges = g.n - 1, len(g.i_idx)
        at_i = np.flatnonzero(g.i_idx > 0)
        rows = np.concatenate([g.i_idx[at_i] - 1, g.j_idx - 1])
        cols = np.concatenate([at_i, np.arange(edges)])
        sign = np.concatenate([-np.ones(len(at_i)), np.ones(edges)])
        want = sp.csr_matrix((sign, (rows, cols)), shape=(m, edges))
        got = pattern.incidence
        assert got.format == "csr" and got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        cover = pattern.cover
        assert cover.shape == (m, pattern.slots) and cover.indptr is got.indptr
        assert cover.indices.dtype == np.int32 and cover.data.dtype == np.float64
        values = np.random.default_rng(seed).standard_normal((pattern.slots, 9))
        want_sum = abs(want) @ values[pattern.lower_slot]
        assert (cover @ values).tobytes() == want_sum.tobytes()


class TestRobustRefine:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="tau_deg"):
            RobustConfig(tau_deg=0.0)

    @pytest.mark.parametrize("field, value, match", [
        ("tau_deg", float("nan"), "tau_deg must be positive"),
        ("tau_deg", -1.0, "tau_deg must be positive"),
        ("tau_deg", float("inf"), "tau_deg must be positive and finite"),
        ("mode", "Aniso", "unknown robust mode 'Aniso'"),
        ("mode", "airls", "unknown robust mode 'airls'"),
    ])
    def test_config_rejects_nan_negative_and_unknown_mode(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            RobustConfig(**{field: value})

    @pytest.mark.parametrize("start", ["twice_identity", "reflection", "zero", "nan"])
    def test_rejects_start_off_so3(self, start):
        """A start off SO(3) fails before the refinement runs, naming its camera."""
        g = generate_scene(SceneSpec(kind="general", n=12, p=0.6, seed=3)).graph
        r0 = np.tile(np.eye(3), (12, 1, 1))
        r0[4] = {"twice_identity": 2.0 * np.eye(3), "reflection": np.diag([1.0, 1.0, -1.0]),
                 "zero": np.zeros((3, 3)), "nan": np.full((3, 3), np.nan)}[start]
        with pytest.raises(ValueError, match=r"initial stack, camera 4: rotation off SO\(3\)"):
            robust_refine(g, r0, RobustConfig(mode="aniso"))

    def test_start_near_so3_is_projected(self):
        """A start within the rotation-file tolerance refines as its projection does."""
        g = generate_scene(SceneSpec(kind="general", n=12, p=0.6, seed=3)).graph
        r0 = so3.quaternion_rotation(np.random.default_rng(1).standard_normal((12, 4)))
        near = r0.copy()
        near[4] *= 1.0 + 1e-8
        cfg = RobustConfig(mode="aniso")
        assert so3.rotation_defect(near[4]) > so3.ROTATION_TOL
        got = robust_refine(g, near, cfg)
        assert np.array_equal(near[4], r0[4] * (1.0 + 1e-8))  # the caller's stack is not touched
        near[4] = so3.project_so3(near[4])
        assert np.array_equal(got.rotations, robust_refine(g, near, cfg).rotations)

    def test_fixed_point_on_noiseless_data(self):
        rng = np.random.default_rng(5)
        g, gt = noisy_graph(6, rng, sigma=0.0)
        res = robust_refine(g, gt, RobustConfig(mode="iso"))
        np.testing.assert_allclose(res.rotations, gt, atol=1e-9)
        assert res.cost_trace[0] == pytest.approx(0.0, abs=1e-15)
        assert res.status == "converged"

    def test_stalled_keeps_last_iterate(self, monkeypatch):
        """A step that raises the cost even after every halving ends the refinement."""
        rng = np.random.default_rng(5)
        g, gt = noisy_graph(6, rng, sigma=0.0)
        step = np.zeros((6, 3))
        step[1:] = [0.3, -0.2, 0.1]
        monkeypatch.setattr(robust, "solve_normal_equations", lambda *args: (step, 0))
        model = _EdgeModel(g, "iso")
        c0 = robust_cost(model.whitened_norms(gt, model.residuals(gt)), np.radians(5.0))
        res = robust_refine(g, gt, RobustConfig(mode="iso", tau_deg=5.0))
        assert res.status == "stalled" and res.iters_run == 1
        assert np.array_equal(res.rotations, gt)
        assert res.cost_trace == [c0, c0]
        assert res.halving_trace == [robust.MAX_HALVINGS]
        assert res.max_step_trace == [0.0]
        assert res.cg_trace == [0]  # the stub's count, one per iteration

    def test_cost_trace_non_increasing(self):
        rng = np.random.default_rng(6)
        g, gt = noisy_graph(10, rng, sigma=0.1, outliers=6)
        for mode in ("iso", "aniso"):
            res = robust_refine(g, gt, RobustConfig(mode=mode))
            assert np.all(np.diff(np.array(res.cost_trace)) <= 1e-8)

    def test_downweights_outliers(self):
        rng = np.random.default_rng(7)
        g, gt = noisy_graph(12, rng, sigma=0.02, outliers=10)
        start = np.stack(
            [r @ so3.exp_so3(0.05 * rng.standard_normal(3)) for r in gt]
        )
        res = robust_refine(g, start, RobustConfig(mode="iso"))
        before = np.mean(
            [so3.angular_distance_deg(a, b) for a, b in zip(start, gt)]
        )
        after = np.mean(
            [so3.angular_distance_deg(a, b) for a, b in zip(res.rotations, gt)]
        )
        assert after < before

    def test_iso_ignores_hessians(self):
        rng = np.random.default_rng(8)
        g, gt = noisy_graph(6, rng, sigma=0.1)
        stripped = ViewGraph(
            g.n, [dataclasses.replace(e, hessian=None) for e in g.edges]
        )
        a = robust_refine(g, gt, RobustConfig(mode="iso"))
        b = robust_refine(stripped, gt, RobustConfig(mode="iso"))
        np.testing.assert_array_equal(a.rotations, b.rotations)

    def test_aniso_requires_hessians(self):
        rng = np.random.default_rng(9)
        g, gt = noisy_graph(4, rng, with_hessians=False)
        with pytest.raises(ValueError, match="Hessian"):
            robust_refine(g, gt, RobustConfig(mode="aniso"))

    def test_one_pattern_per_refinement(self, monkeypatch):
        """Each call builds one normal-equation pattern for all its iterations;
        two refinements of one graph give the same bits."""
        rng = np.random.default_rng(11)
        g, gt = noisy_graph(8, rng, sigma=0.1, outliers=3)
        start = np.stack([r @ so3.exp_so3(0.05 * rng.standard_normal(3)) for r in gt])
        built = []
        pattern_type = robust._NormalPattern
        monkeypatch.setattr(robust, "_NormalPattern", lambda g: built.append(g) or pattern_type(g))
        for mode in ("iso", "aniso"):
            built.clear()
            a = robust_refine(g, start, RobustConfig(mode=mode))
            assert built == [g] and a.iters_run > 1
            b = robust_refine(g, start, RobustConfig(mode=mode))
            assert len(built) == 2
            for field in dataclasses.fields(a):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name

    @pytest.mark.parametrize("mode", ["iso", "aniso"])
    def test_disconnected_graph_matches_separate_refinements(self, mode):
        """Two noisy graphs side by side, plus a lone camera. Each component's smallest
        camera keeps its start rotation, so no gauge alignment is needed: iso
        refinement matches the separate refinements within 1e-5 deg. Aniso refinement
        can stall on the joint cost where a component alone would not, so it only
        keeps the pinned cameras and a non-increasing cost."""
        rng = np.random.default_rng(17)
        (a, gt_a), (b, gt_b) = noisy_graph(6, rng, outliers=2), noisy_graph(5, rng, outliers=1)
        g = ViewGraph(12, list(a.edges) + [
            EdgeMeasurement(e.i + 6, e.j + 6, e.rel, e.hessian) for e in b.edges])
        start = np.concatenate([gt_a, gt_b, np.eye(3)[None]])
        start = start @ so3.exp_so3(0.05 * rng.standard_normal((12, 3)))
        res = robust_refine(g, start, RobustConfig(mode=mode))
        assert np.array_equal(res.rotations[[0, 6, 11]], start[[0, 6, 11]])
        assert np.all(np.diff(res.cost_trace) <= 1e-12)
        if mode == "iso":
            for comp, sub in ((slice(0, 6), a), (slice(6, 11), b)):
                alone = robust_refine(sub, start[comp], RobustConfig(mode=mode)).rotations
                assert so3.angular_distance_deg(res.rotations[comp], alone).max() < 1e-5

    def test_trace_csv(self, tmp_path):
        rng = np.random.default_rng(10)
        g, gt = noisy_graph(5, rng, sigma=0.1)
        res = robust_refine(g, gt, RobustConfig(mode="iso"))
        path = tmp_path / "rt.csv"
        write_robust_trace_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,robust_cost,max_step_deg,halvings"
        assert len(lines) == len(res.max_step_trace) + 1
        assert lines[1] == f"1,{res.cost_trace[1]:.17g},{res.max_step_trace[0]:.17g},{res.halving_trace[0]}"
