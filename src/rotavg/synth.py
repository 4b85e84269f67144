"""Synthetic benchmark scenes: loop and general random view graphs.

Noise model: each edge gets a sampled SPD precision matrix H, and the
measured relative rotation is the true one right-perturbed by a zero-mean
Gaussian tangent noise with covariance H^{-1}. The H attached to the edge is
the generating one, so the reported uncertainty is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import so3
from .viewgraph import ViewGraph, check_count

EIGENVALUE_LOWER_LO = 10.0
EIGENVALUE_LOWER_HI = 100.0
MAX_REDRAWS = 100


@dataclass
class SceneSpec:
    kind: str = "general"  # loop | general
    n: int = 100
    p: float | None = None  # general scenes: edge fraction, U(0.1, 1) when unset
    noise_scale: float = 1.0
    perturb_sigma_deg: float = 0.0
    perturb_gamma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("loop", "general"):
            raise ValueError(f"unknown scene kind {self.kind!r}")
        check_count(self.n, "number of cameras n", minimum=2)
        if self.p is not None and not (0.0 < self.p <= 1.0):
            raise ValueError("edge fraction p must be in (0, 1]")
        if not 0 <= self.noise_scale < np.inf:  # NaN fails too
            raise ValueError("noise_scale must be finite and nonnegative")
        for name in ("perturb_sigma_deg", "perturb_gamma"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass
class SyntheticScene:
    graph: ViewGraph
    ground_truth: np.ndarray  # (n, 3, 3)
    spec: SceneSpec


def _compose(v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(V * lam) V^T over leading axes: eigenvectors and eigenvalues to a symmetric matrix."""
    return (v * lam[..., None, :]) @ np.swapaxes(v, -1, -2)


def _hessian_draws(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """sample_hessian's draws: the eigenvalues, then the eigenvectors' quaternion."""
    a = rng.uniform(EIGENVALUE_LOWER_LO, EIGENVALUE_LOWER_HI)
    b = rng.uniform(2.0 * a, 100.0 * a)
    return rng.uniform(a, b, size=3), rng.standard_normal(4)


def sample_hessian(rng: np.random.Generator) -> np.ndarray:
    """Random SPD precision: eigenvalues U(a,b) with b ~ U(2a,100a), a ~ U(10,100)."""
    lam, q = _hessian_draws(rng)
    return _compose(so3.quaternion_rotation(q), lam)


def _perturb_draws(lam_mean: float, sigma_deg: float, gamma: float, rng) -> np.ndarray:
    """perturb_hessian's draws: axis (3), angle in degrees, eigenvalue increments (3).
    A part that is off draws nothing and stays zero."""
    d = np.zeros(7)
    if sigma_deg > 0:
        d[:3], d[3] = rng.standard_normal(3), rng.normal(0.0, sigma_deg)
    if gamma > 0:
        d[4:] = rng.uniform(0.0, gamma * lam_mean, size=3)
    return d


def _perturbed(lam, v, d, sigma_deg: float, gamma: float) -> np.ndarray:
    """perturb_hessian's arithmetic on eigenpairs (lam, v) and draws d, over leading axes."""
    if sigma_deg > 0:
        v = so3.exp_so3(np.radians(d[..., 3])[..., None] * so3.unit(d[..., :3])) @ v
    if gamma > 0:
        lam = lam + d[..., 4:]
    return _compose(v, lam)


def perturb_hessian(
    h: np.ndarray, sigma_deg: float, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    """Perturb eigenvectors (random-axis rotation, N(0, sigma) degrees) and
    eigenvalues (additive U(0, gamma * mean eigenvalue))."""
    lam, v = np.linalg.eigh(np.asarray(h, dtype=float))
    return _perturbed(lam, v, _perturb_draws(lam.mean(), sigma_deg, gamma, rng), sigma_deg, gamma)


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
    """The graph on edges (i, j): one loop draws every edge's Hessian, then its
    noise, as sample_hessian and apply_noise would; the arithmetic is stacked."""
    lam, q, z = np.empty((len(i), 3)), np.empty((len(i), 4)), np.empty((len(i), 3))
    for k in range(len(i)):
        lam[k], q[k] = _hessian_draws(rng)
        if noise_scale != 0.0:
            z[k] = rng.standard_normal(3)
    hess = _compose(so3.quaternion_rotation(q), lam)
    rel = gt[j] @ np.swapaxes(gt[i], 1, 2)
    if noise_scale != 0.0:
        rel = _noisy(rel, hess, z, noise_scale)
    return ViewGraph.from_arrays(n, i, j, rel, hess)


def gen_loop_scene(spec: SceneSpec, rng: np.random.Generator | None = None) -> SyntheticScene:
    """Cameras evenly spaced on a circle, each connected to its two neighbors.

    Ground-truth orientations rotate uniformly about the circle normal; only
    relative rotations matter, so any smooth assignment is equivalent.
    """
    if spec.kind != "loop":
        raise ValueError("spec.kind must be 'loop'")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n = spec.n
    gt = so3.exp_so3(np.outer(2.0 * np.pi * np.arange(n) / n, [0.0, 0.0, 1.0]))
    i, j = np.array(sorted([(k, k + 1) for k in range(n - 1)] + [(0, n - 1)])).T
    return SyntheticScene(_scene_graph(n, gt, i, j, spec.noise_scale, rng), gt, spec)


def gen_general_scene(spec: SceneSpec, rng: np.random.Generator | None = None) -> SyntheticScene:
    """Haar-random orientations with each camera pair observed with probability p.

    Disconnected draws are redone wholesale (up to MAX_REDRAWS) so the edge
    law stays Bernoulli conditioned on connectivity.
    """
    if spec.kind != "general":
        raise ValueError("spec.kind must be 'general'")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    n = spec.n
    p = spec.p if spec.p is not None else rng.uniform(0.1, 1.0)
    gt = so3.quaternion_rotation(rng.standard_normal((n, 4)))  # as n random_rotation calls
    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2  # row-major index of pair (i, i + 1)

    for _ in range(MAX_REDRAWS):
        k = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
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
    scene = gen_loop_scene(spec, rng) if spec.kind == "loop" else gen_general_scene(spec, rng)
    if spec.perturb_sigma_deg > 0 or spec.perturb_gamma > 0:
        scene.graph = perturbed_graph(scene, spec.perturb_sigma_deg, spec.perturb_gamma, spec.seed + 1)
    return scene


def perturbed_graph(scene: SyntheticScene, sigma_deg: float, gamma: float, seed: int) -> ViewGraph:
    """Copy of the scene graph with every edge Hessian perturbed: one stacked
    eigendecomposition, then perturb_hessian's draws edge by edge."""
    rng = np.random.default_rng(seed)
    g = scene.graph
    lam, v = np.linalg.eigh(g.hessian_stack())
    d = np.reshape([_perturb_draws(m, sigma_deg, gamma, rng) for m in lam.mean(axis=1)], (-1, 7))
    hess = _perturbed(lam, v, d, sigma_deg, gamma)
    return ViewGraph.from_arrays(g.n, g.i_idx, g.j_idx, g.rel, hess)
