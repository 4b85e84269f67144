"""Anisotropic coordinate descent over the view-graph objective.

Each coordinate update replaces one camera's rotation with the SO(3)
projection of the gathered neighbor term, which solves that camera's
subproblem globally; sweeps visit cameras in a fresh seeded shuffle.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .viewgraph import ConnectionBlocks

DEFAULT_MAX_SWEEPS = 1000
DEFAULT_OBJECTIVE_TOL = 1e-12
DEFAULT_STEP_TOL_DEG = 1e-7


def check_count(value, name: str) -> None:
    """Raise ValueError unless `value` is an integer >= 1; numpy integers pass."""
    try:
        ok = operator.index(value) >= 1
    except TypeError:  # 2.5, nan, "3"
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class SolverConfig:
    init: str = "zeros"  # zeros | identity | random | mst
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    objective_tol: float = DEFAULT_OBJECTIVE_TOL
    step_tol_deg: float = DEFAULT_STEP_TOL_DEG
    shuffle_seed: int = 0
    mode: str = "aniso"

    def __post_init__(self):
        if self.init not in ("zeros", "identity", "random", "mst"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.mode not in ("iso", "aniso"):
            raise ValueError(f"unknown mode {self.mode!r}")
        check_count(self.max_sweeps, "max_sweeps")
        if not (self.objective_tol > 0 and self.step_tol_deg > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")


@dataclass
class SolveResult:
    rotations: np.ndarray  # (n, 3, 3), all valid rotations
    objective_trace: list[float]
    max_step_trace: list[float] = field(default_factory=list)
    sweeps_run: int = 0
    status: str = "max_sweeps_reached"


def make_init(kind: str, n: int, seed: int = 0) -> np.ndarray:
    """Initial stack: all zeros, all identities, or seeded Haar samples."""
    if kind == "zeros":
        return np.zeros((n, 3, 3))
    if kind == "identity":
        return np.tile(np.eye(3), (n, 1, 1))
    if kind == "random":
        return so3.quaternion_rotation(np.random.default_rng(seed).standard_normal((n, 4)))
    raise ValueError(f"unknown init kind {kind!r} (mst inits come from chain_init)")


def objective(nb: ConnectionBlocks, r: np.ndarray) -> float:
    """Sparse evaluation of the stacked objective -<N, R R^T>.

    Equals -2 * sum over canonical edges of <lower_e, R_j R_i^T>.
    """
    if nb.num_edges == 0:
        return 0.0
    # R_i^T gathered into contiguous blocks makes the stacked matmul about
    # 3x faster than on a transposed view, with the same result.
    ri_t = np.transpose(r, (0, 2, 1)).take(nb.i_idx, axis=0)
    prod = r.take(nb.j_idx, axis=0) @ ri_t
    return -2.0 * float(np.einsum("eab,eab->", nb.lower, prod))


def coordinate_update(nb: ConnectionBlocks, r: np.ndarray, k: int) -> np.ndarray:
    """Optimal rotation for camera k with all other blocks fixed.

    The update acd_solve applies, with the identity where the gathered term
    is (near) zero. An isolated vertex also gets the identity, with a warning.
    """
    indices, coeffs = nb.neighbor_tables()
    if len(indices[k]) == 0:
        warnings.warn(f"vertex {k} has no incident edges; using identity")
        return np.eye(3)
    new_rk = _block_update(indices, coeffs, r, k)
    return np.eye(3) if new_rk is None else new_rk


def _block_update(indices, coeffs, r, k) -> np.ndarray | None:
    """Closed-form minimizer for camera k given the others, or None.

    Gathers G = sum over neighbors m of N_{m,k}^T R_m and returns its SO(3)
    projection `so3.nearest_rotation(G)`: None when G is (near) zero, as for
    a camera whose neighbors are all still unassigned.

    Raises:
        np.linalg.LinAlgError: if the SVD fails, e.g. on a non-finite G.
    """
    return so3.nearest_rotation(coeffs[k].dot(r.take(indices[k], axis=0).reshape(-1, 3)))


def acd_solve(nb: ConnectionBlocks, cfg: SolverConfig, init: np.ndarray) -> SolveResult:
    """Run coordinate-descent sweeps until the stopping rule or max_sweeps.

    Updates are applied in place within a sweep (Gauss-Seidel); each sweep
    visits the cameras in a fresh permutation drawn from a generator seeded
    by (shuffle_seed, sweep index). Converged means the relative objective
    decrease and the max per-camera step both fell below their tolerances.

    Zero-start handling: a gathered term that is (near) zero because all
    neighbors are still unassigned leaves the block unassigned during the
    main pass; the first such vertex of the run is seeded with the identity.
    After the main pass the sweep re-visits still-unassigned vertices until
    everything is assigned, so rotations chain outward from a single seed
    and every camera holds a valid rotation once the first sweep finishes.
    Chaining from one seed is what makes the zero start land in a good
    basin instead of scattering identity islands across the graph.
    """
    n = nb.n
    r = np.array(init, dtype=float, copy=True)
    if r.shape != (n, 3, 3):
        raise ValueError(f"init shape {r.shape} does not match n={n}")
    indices, coeffs = nb.neighbor_tables()

    obj_trace: list[float] = []
    step_trace: list[float] = []
    prev_obj = objective(nb, r)
    status = "max_sweeps_reached"
    sweeps = 0
    # Blocks equal to zero are "unassigned" (the permitted zero-init state).
    assigned = np.any(r, axis=(1, 2)).tolist()
    seeded = any(assigned)

    two_sqrt2 = 2.0 * math.sqrt(2.0)

    def update(k: int) -> float:
        """Apply camera k's block update; returns its angle in degrees.

        Returns -1.0 when all of k's neighbors are still unassigned and the
        block is left untouched (or seeded, if no seed exists yet).
        """
        nonlocal seeded
        if len(indices[k]) == 0:
            if not assigned[k]:
                warnings.warn(f"vertex {k} has no incident edges; using identity")
                r[k] = np.eye(3)
                assigned[k] = True
                return 180.0
            return 0.0
        new_rk = _block_update(indices, coeffs, r, k)
        if new_rk is None:
            if not seeded:
                r[k] = np.eye(3)
                assigned[k] = True
                seeded = True
                return 180.0
            return -1.0
        if assigned[k]:
            # Geodesic step from the chordal gap: |R1 - R2|_F = 2*sqrt(2)*sin(theta/2)
            gap = math.dist(new_rk.ravel().tolist(), r[k].ravel().tolist())
            step = math.degrees(2.0 * math.asin(min(1.0, gap / two_sqrt2)))
        else:
            step = 180.0
            assigned[k] = True
        r[k] = new_rk
        return step

    for sweep in range(cfg.max_sweeps):
        rng = np.random.default_rng([cfg.shuffle_seed, sweep])
        order = rng.permutation(n).tolist()
        max_step = 0.0
        for k in order:
            step = update(k)
            if step > max_step:
                max_step = step
        # Completion passes: chain any still-unassigned vertices within this
        # sweep so the whole stack is valid before convergence is judged.
        while not all(assigned):
            progress = False
            for k in order:
                if not assigned[k] and update(k) >= 0.0:
                    progress = True
            if not progress:
                # No unassigned vertex touches the assigned set: the graph is
                # disconnected, so seed the next component and keep chaining.
                k = next(v for v in order if not assigned[v])
                warnings.warn(
                    f"vertex {k} is unreachable from the seeded component; "
                    "starting a new identity seed"
                )
                r[k] = np.eye(3)
                assigned[k] = True
            max_step = 180.0
        cur_obj = objective(nb, r)
        obj_trace.append(cur_obj)
        step_trace.append(max_step)
        sweeps = sweep + 1
        rel_decrease = abs(prev_obj - cur_obj) / max(1.0, abs(cur_obj))
        prev_obj = cur_obj
        if rel_decrease < cfg.objective_tol and max_step < cfg.step_tol_deg:
            status = "converged"
            break

    return SolveResult(
        rotations=r,
        objective_trace=obj_trace,
        max_step_trace=step_trace,
        sweeps_run=sweeps,
        status=status,
    )


def bcd_oracle_update(nb_iso: ConnectionBlocks, r: np.ndarray, k: int) -> np.ndarray:
    """Closed-form single-column update of the rank-constrained relaxation.

    Test oracle only. Builds W (the k-th block-column of the isotropic block
    matrix without the k-th block-row) and B from the fixed valid-rotation
    blocks, forms both sign choices of B W ((W^T B W)^{1/2})^+, and returns
    the one with the larger <W, S>. On feasible points it must equal
    stack-without-k times the transposed coordinate_update result.
    """
    i_idx, j_idx, lower = nb_iso.i_idx, nb_iso.j_idx, nb_iso.lower  # lower[e] = N_ji
    w = np.zeros((nb_iso.n, 3, 3))
    w[j_idx[i_idx == k]] = lower[i_idx == k]  # N_{j,k}
    w[i_idx[j_idx == k]] = np.swapaxes(lower[j_idx == k], 1, 2)  # N_{i,k}
    w = np.delete(w, k, axis=0).reshape(-1, 3)
    r_others = np.delete(r, k, axis=0).reshape(-1, 3)  # (3(n-1), 3)
    b = r_others @ r_others.T

    bw = b @ w
    m = w.T @ bw
    m = 0.5 * (m + m.T)
    evals, evecs = np.linalg.eigh(m)
    inv_sqrt = np.where(evals > 1e-12 * max(evals[-1], 1.0), 1.0 / np.sqrt(np.maximum(evals, 1e-300)), 0.0)
    pinv_sqrt = (evecs * inv_sqrt) @ evecs.T

    best, best_score = None, -np.inf
    for sign in (1.0, -1.0):
        s = sign * bw @ pinv_sqrt
        score = float(np.sum(w * s))
        if score > best_score:
            best, best_score = s, score
    return best


def write_trace_csv(result: SolveResult, path) -> None:
    """CSV: sweep,objective,max_step_deg — one row per completed sweep."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("sweep,objective,max_step_deg\n")
        for s, (obj, step) in enumerate(
            zip(result.objective_trace, result.max_step_trace), start=1
        ):
            f.write(f"{s},{obj:.17g},{step:.17g}\n")
