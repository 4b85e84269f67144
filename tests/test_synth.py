"""Tests for synthetic scene generation and the tangent-space noise model."""

import itertools
import tracemalloc

import numpy as np
import pytest

from rotavg import so3, synth
from rotavg.synth import (
    SceneSpec,
    apply_noise,
    generate_scene,
    perturb_hessian,
    perturbed_graph,
    sample_hessian,
)
from rotavg.viewgraph import EdgeMeasurement, chain_init, spanning_tree


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            SceneSpec(kind="grid")
        for bad in (1, -3, 2.5, float("nan"), "3"):
            with pytest.raises(ValueError, match="number of cameras n must be an integer >= 2"):
                SceneSpec(n=bad)
        assert SceneSpec(n=np.int64(2)).n == 2
        with pytest.raises(ValueError, match="p must be"):
            SceneSpec(p=1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            SceneSpec(perturb_gamma=-0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            SceneSpec(perturb_sigma_deg=float("nan"))
        for name in ("perturb_sigma_deg", "perturb_gamma"):
            with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
                SceneSpec(**{name: float("inf")})
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
                SceneSpec(noise_scale=bad)
        assert SceneSpec(noise_scale=0.0).noise_scale == 0.0

    def test_loop_needs_three_cameras(self):
        """A two-camera loop would list edge (0, 1) twice."""
        want = "number of cameras n of a loop scene must be an integer >= 3, got 2"
        with pytest.raises(ValueError, match=want):
            SceneSpec(kind="loop", n=2)
        assert len(generate_scene(SceneSpec(kind="loop", n=3)).graph.edges) == 3
        assert SceneSpec(kind="general", n=2).n == 2

    def test_seed_validation(self):
        for bad in (-1, 1.5, float("nan"), "3", None):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                SceneSpec(seed=bad)
        assert SceneSpec(seed=np.uint32(2**32 - 1)).seed == 2**32 - 1


class TestSampleHessian:
    def test_eigenvalue_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            h = sample_hessian(rng)
            w = np.linalg.eigvalsh(h)
            assert w.min() >= 10.0 - 1e-9
            assert w.max() <= 1e4 + 1e-6
            np.testing.assert_allclose(h, h.T, atol=1e-12)

    def test_deterministic(self):
        a = sample_hessian(np.random.default_rng(7))
        b = sample_hessian(np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestPerturbHessian:
    def test_zero_perturbation_is_identity(self):
        rng = np.random.default_rng(1)
        h = sample_hessian(rng)
        got = perturb_hessian(h, 0.0, 0.0, np.random.default_rng(2))
        np.testing.assert_allclose(got, h, atol=1e-9)

    def test_eigenvalues_preserved_when_gamma_zero(self):
        rng = np.random.default_rng(3)
        h = sample_hessian(rng)
        got = perturb_hessian(h, 30.0, 0.0, rng)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(got), np.linalg.eigvalsh(h), atol=1e-9
        )

    def test_eigenvalue_increase_bounded(self):
        rng = np.random.default_rng(4)
        h = sample_hessian(rng)
        gamma = 0.5
        bound = gamma * np.mean(np.linalg.eigvalsh(h))
        got = perturb_hessian(h, 0.0, gamma, rng)
        dw = np.linalg.eigvalsh(got) - np.linalg.eigvalsh(h)
        assert np.all(dw >= -1e-9)
        assert np.all(dw <= bound + 1e-9)

    def test_result_spd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            got = perturb_hessian(sample_hessian(rng), 20.0, 0.3, rng)
            assert np.linalg.eigvalsh(got).min() > 0


class TestApplyNoise:
    def test_zero_scale_exact(self):
        rng = np.random.default_rng(6)
        rel = so3.random_rotation(rng)
        np.testing.assert_array_equal(
            apply_noise(rel, sample_hessian(rng), 0.0, rng), rel
        )

    def test_covariance_matches_inverse_hessian(self):
        """The stacked noise path generate_scene uses; acceptance criterion 9
        checks the same covariance through apply_noise, one draw at a time."""
        rng = np.random.default_rng(42)
        h = sample_hessian(rng)
        rel = so3.random_rotation(rng)
        n = 100_000
        noisy = synth._noisy(np.broadcast_to(rel, (n, 3, 3)), np.broadcast_to(h, (n, 3, 3)),
                             rng.standard_normal((n, 3)), 1.0)
        deltas = so3.log_so3(rel.T @ noisy)
        emp = deltas.T @ deltas / n
        want = np.linalg.inv(h)
        rel_err = np.linalg.norm(emp - want) / np.linalg.norm(want)
        assert rel_err <= 0.05

    def test_variance_ordering_follows_precision(self):
        rng = np.random.default_rng(8)
        v = so3.random_rotation(rng)
        h = v @ np.diag([1000.0, 100.0, 10.0]) @ v.T
        rel = np.eye(3)
        deltas = np.stack(
            [so3.log_so3(rel.T @ apply_noise(rel, h, 1.0, rng)) for _ in range(20_000)]
        )
        proj = deltas @ v  # components along the eigenvectors
        variances = proj.var(axis=0)
        assert variances[0] < variances[1] < variances[2]


class TestLoopScene:
    def test_structure(self):
        sc = generate_scene(SceneSpec(kind="loop", n=100, seed=0))
        assert len(sc.graph.edges) == 100
        assert sc.graph.is_connected()
        degree = np.zeros(100, dtype=int)
        for e in sc.graph.edges:
            degree[e.i] += 1
            degree[e.j] += 1
        assert np.all(degree == 2)

    def test_noiseless_chaining_recovers_ground_truth(self):
        sc = generate_scene(SceneSpec(kind="loop", n=20, noise_scale=0.0, seed=1))
        stack = chain_init(sc.graph, spanning_tree(sc.graph))
        q = stack[0].T @ sc.ground_truth[0]
        for est, true in zip(stack @ q[None], sc.ground_truth):
            assert so3.angular_distance_deg(est, true) <= 1e-7

    def test_noiseless_cycle_consistency(self):
        sc = generate_scene(SceneSpec(kind="loop", n=100, noise_scale=0.0, seed=2))
        rel = {(e.i, e.j): e.rel for e in sc.graph.edges}
        acc = np.eye(3)
        for k in range(99):
            acc = rel[(k, k + 1)] @ acc
        acc = rel[(0, 99)].T @ acc
        np.testing.assert_allclose(acc, np.eye(3), atol=1e-9)


class TestGeneralScene:
    def test_complete_graph_edge_count(self):
        sc = generate_scene(SceneSpec(kind="general", n=100, p=1.0, seed=3))
        assert len(sc.graph.edges) == 4950

    def test_edge_count_concentrates(self):
        p, n = 0.4, 60
        mean = p * n * (n - 1) / 2
        sigma = np.sqrt(n * (n - 1) / 2 * p * (1 - p))
        counts = [
            len(generate_scene(SceneSpec(kind="general", n=n, p=p, seed=s)).graph.edges)
            for s in range(20)
        ]
        assert abs(np.mean(counts) - mean) <= 4 * sigma

    def test_connected_with_hessians(self):
        sc = generate_scene(SceneSpec(kind="general", n=30, p=0.2, seed=4))
        assert sc.graph.is_connected()
        assert sc.graph.has_hessians
        for e in sc.graph.edges:
            assert so3.is_rotation(e.rel)

    def test_edge_mask_memory_grows_with_edges(self):
        """The candidate-pair uniforms are drawn in blocks: at n=3000 one draw of
        all 4.5 million would alone take 36 MB."""
        tracemalloc.start()
        try:
            generate_scene(SceneSpec(kind="general", n=3000, p=0.005, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_persistent_disconnection_errors(self):
        with pytest.raises(RuntimeError, match="connected"):
            generate_scene(SceneSpec(kind="general", n=60, p=0.01, seed=5))


class TestGenerateScene:
    def test_dispatch_and_determinism(self):
        spec = SceneSpec(kind="general", n=20, p=0.5, seed=6)
        a, b = generate_scene(spec), generate_scene(spec)
        np.testing.assert_array_equal(a.ground_truth, b.ground_truth)
        for ea, eb in zip(a.graph.edges, b.graph.edges):
            np.testing.assert_array_equal(ea.rel, eb.rel)
            np.testing.assert_array_equal(ea.hessian, eb.hessian)

    def test_perturbed_graph_keeps_measurements(self):
        sc = generate_scene(SceneSpec(kind="general", n=15, p=0.5, seed=7))
        pg = perturbed_graph(sc, 10.0, 0.2, seed=8)
        for orig, pert in zip(sc.graph.edges, pg.edges):
            np.testing.assert_array_equal(orig.rel, pert.rel)
            assert not np.allclose(orig.hessian, pert.hessian)

    @pytest.mark.parametrize("kind, sigma_deg, gamma", [("general", 30.0, 0.5), ("loop", 10.0, 0.0),
                                                        ("general", 0.0, 0.2)])
    def test_spec_perturbation_applied(self, kind, sigma_deg, gamma):
        """A perturbed spec gives perturbed_graph of the unperturbed scene, seeded from seed + 1."""
        plain = SceneSpec(kind=kind, n=15, p=0.5 if kind == "general" else None, seed=21)
        spec = SceneSpec(**{**vars(plain), "perturb_sigma_deg": sigma_deg, "perturb_gamma": gamma})
        base, sc = generate_scene(plain), generate_scene(spec)
        want = perturbed_graph(base, sigma_deg, gamma, 22)
        assert np.array_equal(sc.ground_truth, base.ground_truth)
        for a, b in ((sc.graph.rel, want.rel), (sc.graph.hess, want.hess), (sc.graph.i_idx, want.i_idx)):
            assert np.array_equal(a, b)
        assert not np.array_equal(sc.graph.hess, base.graph.hess)


def reference_hessian(rng):
    """sample_hessian as it drew before its draws were stacked: three uniform calls,
    then four normals."""
    a = rng.uniform(10.0, 100.0)
    b = rng.uniform(2.0 * a, 100.0 * a)
    lam, v = rng.uniform(a, b, size=3), so3.quaternion_rotation(rng.standard_normal(4))
    return (v * lam) @ v.T


def reference_perturb(h, sigma_deg, gamma, rng):
    """perturb_hessian as it drew before its draws were stacked: three normals and
    normal(0, sigma) for the axis and angle, then uniform(0, gamma m) increments."""
    lam, v = np.linalg.eigh(h)
    if sigma_deg > 0:
        axis, angle = rng.standard_normal(3), rng.normal(0.0, sigma_deg)
        v = so3.exp_so3(np.radians(angle) * so3.unit(axis)) @ v
    if gamma > 0:
        lam = lam + rng.uniform(0.0, gamma * lam.mean(), size=3)
    return (v * lam) @ v.T


def reference_scene(spec):
    """generate_scene one edge at a time: reference_hessian, apply_noise and
    EdgeMeasurement, drawing in generation order, then reference_perturb on a
    generator seeded from spec.seed + 1 if the spec perturbs. Returns the ground
    truth, the edges, the number of graphs drawn and the generators used."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "loop":
        gt = np.stack([so3.exp_so3([0.0, 0.0, 2.0 * np.pi * k / n]) for k in range(n)])
        candidates = lambda: sorted([(k, k + 1) for k in range(n - 1)] + [(0, n - 1)])
    else:
        p = spec.p if spec.p is not None else rng.uniform(0.1, 1.0)
        gt = np.stack([so3.random_rotation(rng) for _ in range(n)])
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        candidates = lambda: [ij for ij, m in zip(all_pairs, rng.random(len(all_pairs)) < p) if m]
    for attempt in itertools.count(1):  # redraw disconnected general graphs wholesale
        edges = []
        for i, j in candidates():
            h = reference_hessian(rng)
            edges.append(EdgeMeasurement(i, j, apply_noise(gt[j] @ gt[i].T, h, spec.noise_scale, rng), h))
        reached, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for w in [e.j for e in edges if e.i == v] + [e.i for e in edges if e.j == v]:
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
        if len(reached) == n:
            break
    rngs = [rng]
    sigma_deg, gamma = spec.perturb_sigma_deg, spec.perturb_gamma
    if sigma_deg > 0 or gamma > 0:
        rngs.append(np.random.default_rng(spec.seed + 1))
        edges = [EdgeMeasurement(e.i, e.j, e.rel, reference_perturb(e.hessian, sigma_deg, gamma, rngs[1]))
                 for e in edges]
    return gt, edges, attempt, rngs


@pytest.fixture()
def made_generators(monkeypatch):
    """The generators that np.random.default_rng makes while the test runs."""
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    return made


def assert_graph_equals_edges(g, edges):
    assert g.n >= 1 and len(g.edges) == len(edges)
    np.testing.assert_array_equal(g.i_idx, [e.i for e in edges])
    np.testing.assert_array_equal(g.j_idx, [e.j for e in edges])
    assert np.array_equal(g.rel, np.stack([e.rel for e in edges]))
    assert np.array_equal(g.hessian_stack(), np.stack([e.hessian for e in edges]))


PARITY_SPECS = [
    SceneSpec(kind="loop", n=12, noise_scale=1.0, seed=11),
    SceneSpec(kind="loop", n=12, noise_scale=0.0, seed=12),
    SceneSpec(kind="general", n=20, p=0.3, noise_scale=1.0, seed=13),
    SceneSpec(kind="general", n=20, p=0.3, noise_scale=0.0, seed=14),
    SceneSpec(kind="general", n=15, p=None, seed=15),
    # 1000+ edges, 7000+ normals: the ziggurat rejects and redraws mid-stream
    SceneSpec(kind="general", n=60, p=0.6, seed=16),
    SceneSpec(kind="loop", n=12, perturb_sigma_deg=10.0, perturb_gamma=0.3, seed=17),
    # 179,700 candidate pairs: the edge mask is drawn in three blocks
    SceneSpec(kind="general", n=600, p=0.01, seed=26),
    SceneSpec(kind="general", n=16, p=0.12, seed=2),  # needs redraws
]


class TestStackedParity:
    """The stacked generator gives exactly the per-edge reference, bit for bit,
    and leaves its generators where the reference leaves them."""

    @pytest.mark.parametrize("spec", PARITY_SPECS, ids=lambda s: f"{s.kind}-n{s.n}-seed{s.seed}")
    def test_generate_scene(self, spec, made_generators):
        gt, edges, attempts, rngs = reference_scene(spec)
        del made_generators[:]
        sc = generate_scene(spec)
        assert np.array_equal(sc.ground_truth, gt)
        assert_graph_equals_edges(sc.graph, edges)
        assert (attempts > 1) == (spec is PARITY_SPECS[-1])
        if spec is PARITY_SPECS[5]:
            assert len(edges) >= 1000
        if spec is PARITY_SPECS[7]:
            assert spec.n * (spec.n - 1) // 2 > 2 * synth._PAIR_BLOCK
        assert [r.bit_generator.state for r in made_generators] == [r.bit_generator.state for r in rngs]

    @pytest.mark.parametrize("sigma_deg, gamma", [(0.0, 0.0), (10.0, 0.0), (0.0, 0.3), (10.0, 0.3)])
    @pytest.mark.parametrize("spec", [PARITY_SPECS[k] for k in (0, 2, 4, 5)], ids=lambda s: s.kind)
    def test_perturbed_graph(self, spec, sigma_deg, gamma, made_generators):
        sc = generate_scene(spec)
        rng, scalar_rng = np.random.default_rng(99), np.random.default_rng(99)
        want = [
            EdgeMeasurement(e.i, e.j, e.rel, reference_perturb(e.hessian, sigma_deg, gamma, rng))
            for e in sc.graph.edges
        ]
        del made_generators[:]
        assert_graph_equals_edges(perturbed_graph(sc, sigma_deg, gamma, seed=99), want)
        assert made_generators[0].bit_generator.state == rng.bit_generator.state
        for e, w in zip(sc.graph.edges, want):
            assert np.array_equal(perturb_hessian(e.hessian, sigma_deg, gamma, scalar_rng), w.hessian)
        assert scalar_rng.bit_generator.state == rng.bit_generator.state

    def test_sample_hessian(self):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(500):
            assert np.array_equal(sample_hessian(rng), reference_hessian(ref))
        assert rng.bit_generator.state == ref.bit_generator.state
