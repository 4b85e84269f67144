"""Anisotropic coordinate descent over the view-graph objective.

Each coordinate update replaces one camera's rotation with the SO(3)
projection of the gathered neighbor term, which solves that camera's
subproblem globally; sweeps visit cameras in a fresh seeded shuffle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .viewgraph import ConnectionBlocks, check_count

DEFAULT_MAX_SWEEPS = 1000
DEFAULT_OBJECTIVE_TOL = 1e-12
DEFAULT_STEP_TOL_DEG = 1e-7


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

    Raises:
        np.linalg.LinAlgError: if the SVD fails, e.g. on a non-finite gathered term.
    """
    indices, coeffs = nb.neighbor_tables()
    new_rk = _gather_project(indices, coeffs, r, k)
    if new_rk is None:
        if len(indices[k]) == 0:
            warnings.warn(f"vertex {k} has no incident edges; using identity")
        return np.eye(3)
    return new_rk


def _gather_project(indices, coeffs, r, k) -> np.ndarray | None:
    """SO(3) projection of G = sum over neighbors m of N_{m,k}^T R_m; None if G is (near) zero."""
    return so3.nearest_rotation(coeffs[k].dot(r.take(indices[k], axis=0).reshape(-1, 3)))


def acd_solve(nb: ConnectionBlocks, cfg: SolverConfig, init: np.ndarray) -> SolveResult:
    """Run coordinate-descent sweeps until the stopping rule or max_sweeps.

    Updates are applied in place within a sweep (Gauss-Seidel); each sweep
    visits the cameras in a fresh permutation drawn from a generator seeded
    by (shuffle_seed, sweep index). Converged means the relative objective
    decrease and the max per-camera step both fell below their tolerances.

    The max step is measured once per sweep, from the stacks before and after
    it: the largest geodesic angle between a camera's old and new rotation,
    in degrees, or 180 if any camera was unassigned when the sweep began.

    Zero-start handling: a block equal to zero is unassigned. An unassigned
    camera whose gathered term is (near) zero, because all its neighbors are
    still unassigned, waits; the first such camera of the run is seeded with
    the identity instead. A sweep passes over its waiting cameras again, in
    order, until none waits, so rotations chain outward from a single seed
    and every camera holds a valid rotation once the first sweep finishes.
    If every camera of a pass waits, the rest of the graph is not connected
    to the assigned cameras, and the first of them becomes a new identity
    seed. Chaining from one seed is what makes the zero start land in a good
    basin instead of scattering identity islands across the graph. An
    unassigned isolated camera gets the identity, with a warning, and does
    not take the seed.
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
    # A zero block is unassigned; every block is a rotation after the first sweep.
    unassigned = not np.any(r, axis=(1, 2)).all()
    seeded = bool(r.any())

    for sweep in range(cfg.max_sweeps):
        r_prev = r.copy()
        pending = np.random.default_rng([cfg.shuffle_seed, sweep]).permutation(n).tolist()
        while pending:
            waited = []
            for k in pending:
                new_rk = _gather_project(indices, coeffs, r, k)
                if new_rk is None:
                    if r[k].any():  # assigned: keeps its rotation
                        continue
                    if len(indices[k]) == 0:
                        warnings.warn(f"vertex {k} has no incident edges; using identity")
                    elif seeded:
                        waited.append(k)
                        continue
                    else:
                        seeded = True
                    new_rk = np.eye(3)
                r[k] = new_rk
            if len(waited) == len(pending):
                k = waited.pop(0)
                warnings.warn(
                    f"vertex {k} is unreachable from the seeded component; "
                    "starting a new identity seed"
                )
                r[k] = np.eye(3)
            pending = waited
        if unassigned:
            max_step = 180.0
            unassigned = False
        else:
            # Blocks change only at their own update: the step is the angle of the largest
            # chordal gap |R - R_prev|_F = 2*sqrt(2)*sin(theta/2), taken with math.hypot
            # to within an ulp, since asin magnifies its error near 180 degrees.
            d = (r - r_prev).reshape(n, 9)
            gap = math.hypot(*d[np.einsum("ka,ka->k", d, d).argmax()].tolist()) if n else 0.0
            max_step = math.degrees(2.0 * math.asin(min(1.0, gap / (2.0 * math.sqrt(2.0)))))
        cur_obj = objective(nb, r)
        obj_trace.append(cur_obj)
        step_trace.append(max_step)
        rel_decrease = abs(prev_obj - cur_obj) / max(1.0, abs(cur_obj))
        prev_obj = cur_obj
        if rel_decrease < cfg.objective_tol and max_step < cfg.step_tol_deg:
            status = "converged"
            break

    return SolveResult(
        rotations=r,
        objective_trace=obj_trace,
        max_step_trace=step_trace,
        sweeps_run=len(obj_trace),
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
