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
from .viewgraph import EdgeMeasurement, ViewGraph

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
        if self.n < 2:
            raise ValueError("need at least 2 cameras")
        if self.p is not None and not (0.0 < self.p <= 1.0):
            raise ValueError("edge fraction p must be in (0, 1]")
        if self.perturb_sigma_deg < 0 or self.perturb_gamma < 0:
            raise ValueError("perturbation magnitudes must be nonnegative")


@dataclass
class SyntheticScene:
    graph: ViewGraph
    ground_truth: np.ndarray  # (n, 3, 3)
    spec: SceneSpec


def sample_hessian(rng: np.random.Generator) -> np.ndarray:
    """Random SPD precision: eigenvalues U(a,b) with b ~ U(2a,100a), a ~ U(10,100)."""
    a = rng.uniform(EIGENVALUE_LOWER_LO, EIGENVALUE_LOWER_HI)
    b = rng.uniform(2.0 * a, 100.0 * a)
    lam = rng.uniform(a, b, size=3)
    v = so3.random_rotation(rng)
    return (v * lam) @ v.T


def perturb_hessian(
    h: np.ndarray, sigma_deg: float, gamma: float, rng: np.random.Generator
) -> np.ndarray:
    """Perturb eigenvectors (random-axis rotation, N(0, sigma) degrees) and
    eigenvalues (additive U(0, gamma * mean eigenvalue))."""
    lam, v = np.linalg.eigh(np.asarray(h, dtype=float))
    if sigma_deg > 0:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        theta = np.radians(rng.normal(0.0, sigma_deg))
        v = so3.exp_so3(theta * axis) @ v
    if gamma > 0:
        lam = lam + rng.uniform(0.0, gamma * lam.mean(), size=3)
    return (v * lam) @ v.T


def apply_noise(
    rel_true: np.ndarray,
    h: np.ndarray,
    noise_scale: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Right-perturb a true relative rotation by N(0, h^{-1}) tangent noise."""
    if noise_scale == 0.0:
        return np.array(rel_true, copy=True)
    chol = np.linalg.cholesky(np.asarray(h, dtype=float))
    z = rng.standard_normal(3)
    delta = np.linalg.solve(chol.T, z)  # cov = L^-T L^-1 = h^-1
    return rel_true @ so3.exp_so3(noise_scale * delta)


def _make_edges(gt, pairs, spec, rng):
    edges = []
    for i, j in pairs:
        h = sample_hessian(rng)
        rel = apply_noise(gt[j] @ gt[i].T, h, spec.noise_scale, rng)
        edges.append(EdgeMeasurement(i, j, rel, h))
    return edges


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
    gt = np.stack([so3.exp_so3([0.0, 0.0, 2.0 * np.pi * k / n]) for k in range(n)])
    pairs = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    graph = ViewGraph(n, _make_edges(gt, sorted(pairs), spec, rng))
    return SyntheticScene(graph, gt, spec)


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
    gt = np.stack([so3.random_rotation(rng) for _ in range(n)])

    for _ in range(MAX_REDRAWS):
        mask = rng.random(n * (n - 1) // 2) < p
        pairs = [
            (i, j)
            for m, (i, j) in zip(mask, ((i, j) for i in range(n) for j in range(i + 1, n)))
            if m
        ]
        graph = ViewGraph(n, _make_edges(gt, pairs, spec, rng))
        if graph.is_connected():
            return SyntheticScene(graph, gt, spec)
    raise RuntimeError(
        f"failed to draw a connected graph after {MAX_REDRAWS} attempts "
        f"(n={n}, p={p:.3g})"
    )


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Dispatch on spec.kind with a generator seeded from spec.seed."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "loop":
        return gen_loop_scene(spec, rng)
    return gen_general_scene(spec, rng)


def perturbed_graph(scene: SyntheticScene, sigma_deg: float, gamma: float, seed: int) -> ViewGraph:
    """Copy of the scene graph with every edge Hessian perturbed."""
    rng = np.random.default_rng(seed)
    edges = [
        EdgeMeasurement(e.i, e.j, e.rel, perturb_hessian(e.hessian, sigma_deg, gamma, rng))
        for e in scene.graph.edges
    ]
    return ViewGraph(scene.graph.n, edges)

