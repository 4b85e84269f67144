"""Synthetic benchmark scenes: loop and general random view graphs.

Noise model: each edge gets a sampled SPD precision matrix H, and the
measured relative rotation is the true one right-perturbed by a zero-mean
Gaussian tangent noise with covariance H^{-1}. The H attached to the edge is
the generating one, so the reported uncertainty is exact.

Draw order, which defines every scene as much as its seed does:
- generate_scene seeds a generator from spec.seed. A general scene draws p
  when it is unset, then the ground truth as `standard_normal((n, 4))`, then
  per attempt one `random()` per camera pair, row-major, for the edge mask.
- Then, edge by edge: `random(5)` for the eigenvalues, then one
  `standard_normal` call for the 4 quaternion entries of the eigenvectors and,
  when noise_scale != 0, the 3 entries of the tangent noise.
- perturbed_graph draws from its own generator (seeded from spec.seed + 1 by
  generate_scene), edge by edge: `standard_normal(4)` for the axis and angle
  when sigma > 0, then `random(3)` for the eigenvalue increments when gamma > 0.
numpy's `uniform(lo, hi)` is `lo + (hi - lo) * random()` and `normal(0, s)` is
`0.0 + s * standard_normal()`, so these give the numbers of the laws' uniform
and normal draws bit for bit, and consecutive normals (or uniforms) fill one
array as they fill several.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3
from .viewgraph import ViewGraph, blockwise, check_choice, check_count, check_real, edge_blocks

SCENE_KINDS = ("loop", "general")
EIGENVALUE_LOWER_LO = 10.0
EIGENVALUE_LOWER_HI = 100.0
MAX_REDRAWS = 100
# Pairs per edge-mask draw, so memory is O(block + |E|); the fastest of 2^12-2^20.
_PAIR_BLOCK = 1 << 16


@dataclass
class SceneSpec:
    kind: str = "general"
    n: int = 100
    p: float | None = None  # general scenes: edge fraction, U(0.1, 1) when unset
    noise_scale: float = 1.0
    perturb_sigma_deg: float = 0.0
    perturb_gamma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_choice(self.kind, "scene kind", SCENE_KINDS)
        if self.kind == "loop":  # n = 2 would list edge (0, 1) twice
            check_count(self.n, "number of cameras n of a loop scene", minimum=3)
        else:
            check_count(self.n, "number of cameras n", minimum=2)
        check_count(self.seed, "seed", minimum=0)
        if self.p is not None:
            check_real(self.p, "edge fraction p", lambda p: 0.0 < p <= 1.0, "in (0, 1]")
        for name in ("noise_scale", "perturb_sigma_deg", "perturb_gamma"):
            check_real(getattr(self, name), name, lambda x: 0 <= x < np.inf, "finite and nonnegative")


@dataclass
class SyntheticScene:
    graph: ViewGraph
    ground_truth: np.ndarray  # (n, 3, 3)
    spec: SceneSpec


def _compose(v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(V * lam) V^T over leading axes: eigenvectors and eigenvalues to a symmetric matrix."""
    return (v * lam[..., None, :]) @ np.swapaxes(v, -1, -2)


def _eigenvalues(u: np.ndarray) -> np.ndarray:
    """The eigenvalue law on uniforms (..., 5) to (..., 3): a ~ U(10, 100),
    b ~ U(2a, 100a), then three U(a, b), as numpy's `uniform` computes them."""
    a = EIGENVALUE_LOWER_LO + (EIGENVALUE_LOWER_HI - EIGENVALUE_LOWER_LO) * u[..., :1]
    b = 2.0 * a + (100.0 * a - 2.0 * a) * u[..., 1:2]
    return a + (b - a) * u[..., 2:]


def sample_hessian(rng: np.random.Generator) -> np.ndarray:
    """Random SPD precision: eigenvalues U(a,b) with b ~ U(2a,100a), a ~ U(10,100)."""
    lam = _eigenvalues(rng.random(5))
    return _compose(so3.quaternion_rotation(rng.standard_normal(4)), lam)


def _perturb_draws(count: int, sigma_deg: float, gamma: float, rng) -> tuple:
    """The perturbation's draws for `count` edges, edge by edge: normals (count, 4)
    for the axis and angle, uniforms (count, 3) for the eigenvalue increments.
    A part that is off draws nothing and stays zero."""
    x, u = np.zeros((count, 4)), np.zeros((count, 3))
    for xk, uk in zip(x, u):
        if sigma_deg > 0:
            rng.standard_normal(out=xk)
        if gamma > 0:
            rng.random(out=uk)
    return x, u


def _perturbed(lam, v, x, u, sigma_deg: float, gamma: float) -> np.ndarray:
    """(V * lam) V^T of eigenpairs perturbed by draws (x, u), over leading axes: v turned
    N(0, sigma) degrees about a random axis, lam raised by U(0, gamma * mean(lam)).
    numpy's normal(0, s) is 0.0 + s x, and its uniform(0, s) is s u."""
    if sigma_deg > 0:
        v = so3.exp_so3(np.radians(0.0 + sigma_deg * x[..., 3:]) * so3.unit(x[..., :3])) @ v
    if gamma > 0:
        lam = lam + gamma * lam.mean(axis=-1, keepdims=True) * u
    return _compose(v, lam)


def _noisy(rel_true, h, z, noise_scale: float) -> np.ndarray:
    """rel_true exp(noise_scale L^-T z), h = L L^T, over leading axes: cov L^-T L^-1 = h^-1."""
    chol_t = np.linalg.cholesky(h).swapaxes(-1, -2)
    delta = np.linalg.solve(chol_t, z[..., None])[..., 0]
    return rel_true @ so3.exp_so3(noise_scale * delta)


def apply_noise(
    rel_true: np.ndarray,
    h: np.ndarray,
    noise_scale: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Right-perturb a true relative rotation by N(0, h^{-1}) tangent noise."""
    if noise_scale == 0.0:
        return np.array(rel_true, copy=True)
    return _noisy(rel_true, h, rng.standard_normal(3), noise_scale)


def _scene_graph(n: int, gt, i, j, noise_scale: float, rng) -> ViewGraph:
    """The graph on edges (i, j): every edge's draws in the module's draw order,
    two generator calls per edge, then the law's arithmetic stacked, one edge
    block at a time into the arrays the graph keeps."""
    rel, hess = np.empty((len(i), 3, 3)), np.empty((len(i), 3, 3))
    for e in edge_blocks(len(i)):
        u, g = np.empty((len(i[e]), 5)), np.empty((len(i[e]), 4 if noise_scale == 0.0 else 7))
        for uk, gk in zip(u, g):
            rng.random(out=uk)
            rng.standard_normal(out=gk)
        rel[e] = gt[j[e]] @ np.swapaxes(gt[i[e]], 1, 2)
        hess[e] = _compose(so3.quaternion_rotation(g[:, :4]), _eigenvalues(u))
        if noise_scale != 0.0:
            rel[e] = _noisy(rel[e], hess[e], g[:, 4:], noise_scale)
    return ViewGraph._adopt(n, i, j, rel, hess)


def _loop_scene(spec: SceneSpec, rng: np.random.Generator) -> SyntheticScene:
    """Cameras evenly spaced on a circle, each connected to its two neighbors.

    Ground-truth orientations rotate uniformly about the circle normal; only
    relative rotations matter, so any smooth assignment is equivalent.
    """
    n = spec.n
    gt = so3.exp_so3(np.outer(2.0 * np.pi * np.arange(n) / n, [0.0, 0.0, 1.0]))
    i, j = np.array(sorted([(k, k + 1) for k in range(n - 1)] + [(0, n - 1)])).T
    return SyntheticScene(_scene_graph(n, gt, i, j, spec.noise_scale, rng), gt, spec)


def _general_scene(spec: SceneSpec, rng: np.random.Generator) -> SyntheticScene:
    """Haar-random orientations with each camera pair observed with probability p.

    Disconnected draws are redone wholesale (up to MAX_REDRAWS) so the edge
    law stays Bernoulli conditioned on connectivity.
    """
    n = spec.n
    p = spec.p if spec.p is not None else rng.uniform(0.1, 1.0)
    gt = so3.quaternion_rotation(rng.standard_normal((n, 4)))  # as n random_rotation calls
    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2  # row-major index of pair (i, i + 1)
    pairs = n * (n - 1) // 2

    for _ in range(MAX_REDRAWS):
        k = np.concatenate([start + np.flatnonzero(rng.random(min(_PAIR_BLOCK, pairs - start)) < p)
                            for start in range(0, pairs, _PAIR_BLOCK)])
        i = np.searchsorted(row_start, k, side="right") - 1
        graph = _scene_graph(n, gt, i, k - row_start[i] + i + 1, spec.noise_scale, rng)
        if graph.is_connected():
            return SyntheticScene(graph, gt, spec)
    raise RuntimeError(
        f"failed to draw a connected graph after {MAX_REDRAWS} attempts "
        f"(n={n}, p={p:.3g})"
    )


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Dispatch on spec.kind with a generator seeded from spec.seed, then perturb
    the Hessians as the spec asks, with perturbed_graph seeded from spec.seed + 1."""
    rng = np.random.default_rng(spec.seed)
    scene = (_loop_scene if spec.kind == "loop" else _general_scene)(spec, rng)
    if spec.perturb_sigma_deg > 0 or spec.perturb_gamma > 0:
        scene.graph = perturbed_graph(scene, spec.perturb_sigma_deg, spec.perturb_gamma, spec.seed + 1)
    return scene


def perturbed_graph(scene: SyntheticScene, sigma_deg: float, gamma: float, seed: int) -> ViewGraph:
    """Copy of the scene graph with every edge Hessian perturbed (`_perturbed`): per
    edge block, one stacked eigendecomposition, then the draws edge by edge."""
    rng = np.random.default_rng(seed)
    g = scene.graph

    def block(e):  # the blocks run in order, so the draws stay edge by edge
        lam, v = np.linalg.eigh(g.hess[e])
        return _perturbed(lam, v, *_perturb_draws(len(lam), sigma_deg, gamma, rng), sigma_deg, gamma)

    hess = blockwise(len(g.hessian_stack()), block, (3, 3))
    return ViewGraph.from_arrays(g.n, g.i_idx, g.j_idx, g.rel, hess)
