"""Anisotropic coordinate descent over the view-graph objective.

Each coordinate update replaces one camera's rotation with the SO(3)
projection of the gathered neighbor term, which solves that camera's
subproblem globally; sweeps visit cameras in a fresh seeded shuffle.
Sweeps converge linearly, so after the first sweep from a fully assigned stack
`acd_solve` polishes with inexact Newton steps on the same objective (Absil,
Mahony & Sepulchre, 2008; CG only to NEWTON_CG_RTOL, after Dembo, Eisenstat &
Steihaug, 1982), falling back to sweeps when a step fails. `max_sweeps`
counts iterations, sweeps and Newton steps alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .robust import _NormalPattern, block_jacobi_cg
from .viewgraph import ConnectionBlocks, blockwise, check_count, edge_blocks, write_csv

DEFAULT_MAX_SWEEPS = 1000
DEFAULT_OBJECTIVE_TOL = 1e-12
DEFAULT_STEP_TOL_DEG = 1e-7
# A Newton step's CG stops at this residual relative to the gradient, or fails
# after NEWTON_CG_MAXITER iterations.
NEWTON_CG_RTOL = 1e-4
NEWTON_CG_MAXITER = 200
# Flat 3x3 indices of (B23, B32), (B31, B13) and (B12, B21), the pairs whose differences
# give the axial vector a of B.
_AXIAL = ((5, 7), (6, 2), (1, 3))


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
        check_count(self.shuffle_seed, "shuffle_seed", minimum=0)
        if not (self.objective_tol > 0 and self.step_tol_deg > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")


@dataclass
class SolveResult:
    rotations: np.ndarray  # (n, 3, 3), all valid rotations
    objective_trace: list[float]
    max_step_trace: list[float] = field(default_factory=list)
    sweeps_run: int = 0  # iterations: sweeps plus Newton steps
    status: str = "max_sweeps_reached"
    newton_trace: list[bool] = field(default_factory=list)  # per iteration: a Newton step?
    # Per iteration: the CG iterations of its Newton attempt, kept or rejected; 0 without one.
    cg_trace: list[int] = field(default_factory=list)


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
    # R_j R_i^T is formed one edge block at a time; the sum stays one einsum over
    # all edges, whose summation order a blocked sum would change. R_i^T gathered
    # into contiguous blocks makes the stacked matmul about 3x faster than on a
    # transposed view, with the same result.
    r_t = np.ascontiguousarray(np.transpose(r, (0, 2, 1)))
    prod = blockwise(nb.num_edges, lambda e: r.take(nb.j_idx[e], axis=0) @ r_t.take(nb.i_idx[e], axis=0),
                     (3, 3))
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


def newton_system(nb: ConnectionBlocks, pattern, r: np.ndarray):
    """(Hessian, -gradient, diagonal blocks) of x -> objective(nb, [R_k exp(x_k)]) at
    x = 0 over the free cameras, in `pattern`'s slots (the smallest camera of each
    component is pinned).

    Per edge, with B = R_i^T N_ji^T R_j - tr(.) I and a = (B23 - B32, B31 - B13,
    B12 - B21), the gradient gains 2a at i and -2a at j, and the Hessian gains
    2B^T at block (i, j), 2B at (j, i), and -(B + B^T) at (i, i) and (j, j).
    """
    data, a = np.empty((pattern.slots, 3, 3)), np.empty((nb.num_edges, 3))
    for e in edge_blocks(nb.num_edges):  # written into the slots: no edge-sized temporaries
        ri, rj = r.take(nb.i_idx[e], axis=0), r.take(nb.j_idx[e], axis=0)
        b = np.swapaxes(nb.lower[e] @ ri, 1, 2) @ rj
        # One column view of the flat blocks at a time: faster than a strided (E, 3) view.
        flat, trace = b.reshape(-1, 9), np.einsum("eaa->e", b)
        for k in (0, 4, 8):
            flat[:, k] -= trace
        b *= 2.0
        for k, (plus, minus) in enumerate(_AXIAL):
            np.subtract(flat[:, plus], flat[:, minus], out=a[e, k])
        data[pattern.upper_slot[e]] = np.ascontiguousarray(np.swapaxes(b, 1, 2))  # scatters faster
        data[pattern.lower_slot[e]] = b
    # The slots hold 2B: halving their sums is exact, so diag is that of the sums of B.
    diag = 0.5 * (pattern.cover @ data.reshape(-1, 9)).reshape(-1, 3, 3)
    diag = -(diag + np.swapaxes(diag, 1, 2))
    return pattern.matrix(data, diag), (pattern.incidence @ a).ravel(), diag


def _newton_iterate(nb: ConnectionBlocks, pattern, r: np.ndarray) -> tuple[np.ndarray | None, int]:
    """([R_k exp(x_k)] for the Newton step x (x_k = 0 at the pinned cameras), or None
    if CG gives no step; the CG iterations run)."""
    try:
        x, iterations = block_jacobi_cg(*newton_system(nb, pattern, r), maxiter=NEWTON_CG_MAXITER,
                                        rtol=NEWTON_CG_RTOL)
    except np.linalg.LinAlgError:  # a diagonal block not finite and invertible
        return None, 0
    if x is None:
        return None, iterations
    r_new = r.copy()
    r_new[pattern.free] = r[pattern.free] @ so3.exp_so3(x.reshape(-1, 3))
    return r_new, iterations


def acd_solve(nb: ConnectionBlocks, cfg: SolverConfig, init: np.ndarray) -> SolveResult:
    """Run sweeps, polished by Newton steps, until the stopping rule or max_sweeps iterations.

    Updates are applied in place within a sweep (Gauss-Seidel); each sweep
    visits the cameras in a fresh permutation drawn from a generator seeded
    by (shuffle_seed, iteration). Converged means the relative objective
    decrease and the max per-camera step both fell below their tolerances.

    The max step is measured once per iteration, from the stacks before and
    after it: the largest geodesic angle between a camera's old and new rotation,
    in degrees, or 180 if any camera was unassigned when the sweep began.

    Newton polish: after the first sweep that ran from a fully assigned stack
    (the first sweep, or the second from a zero start), iterations are Newton
    steps on x -> objective([R_k exp(x_k)]), the smallest camera of each
    component pinned (`newton_system`, solved by `robust.block_jacobi_cg` to a
    relative residual of NEWTON_CG_RTOL). Each is one iteration of the traces
    and of `max_sweeps`; `newton_trace` marks it. A step is rejected if a
    diagonal block is not finite and invertible, CG does not converge within
    NEWTON_CG_MAXITER iterations, or the objective rises by more than
    objective_tol (relative); that iteration is a sweep. After a rejection, or
    a kept step that did not lower the objective (the rounding floor), sweeps
    run until their step falls 10x below that iteration's step. A disconnected
    graph takes Newton steps on all its components at once, and its stopping
    rule is global.

    Newton steps read no neighbor tables: each switch to them releases the
    tables (`ConnectionBlocks.drop_neighbor_tables`) before the pattern is
    built, and a sweep after a Newton step fetches them again through
    `nb.neighbor_tables()`, which rebuilds the same tables.

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
    unassigned isolated camera gets the identity and does not take the seed;
    one warning per call counts them and names the first few.
    """
    n = nb.n
    r = np.array(init, dtype=float, copy=True)
    if r.shape != (n, 3, 3):
        raise ValueError(f"init shape {r.shape} does not match n={n}")
    indices, coeffs = nb.neighbor_tables()

    result = SolveResult(rotations=r, objective_trace=[])
    step_trace = result.max_step_trace
    # A zero block is unassigned; every block is a rotation after the first sweep.
    unassigned = not np.any(r, axis=(1, 2)).all()
    seeded = bool(r.any())
    prev_obj = objective(nb, r) if seeded else -0.0  # the objective of an all-zero stack
    # Newton: the pattern, built once, whether the next iteration is a Newton step,
    # and the sweep step below which one is tried (the zero-start sweep's is 180).
    pattern, newton, retry_below = None, False, 180.0
    lone = []  # unassigned cameras without edges, which get the identity

    for it in range(cfg.max_sweeps):
        r_prev, tried, cg_iterations = r.copy(), newton, 0
        if newton:  # a rejected step leaves this iteration to a sweep
            r_new, cg_iterations = _newton_iterate(nb, pattern, r)
            cur_obj = math.inf if r_new is None else objective(nb, r_new)
            newton = cur_obj - prev_obj <= cfg.objective_tol * max(1.0, abs(prev_obj))
            if newton:
                r = r_new
        if not newton:
            if indices is None:  # the first sweep after a Newton step
                indices, coeffs = nb.neighbor_tables()
            pending = np.random.default_rng([cfg.shuffle_seed, it]).permutation(n).tolist()
            while pending:
                waited = []
                for k in pending:
                    new_rk = _gather_project(indices, coeffs, r, k)
                    if new_rk is None:
                        if r[k].any():  # assigned: keeps its rotation
                            continue
                        if len(indices[k]) == 0:
                            lone.append(k)
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
            cur_obj = objective(nb, r)
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
        result.objective_trace.append(cur_obj)
        step_trace.append(max_step)
        result.newton_trace.append(newton)
        result.cg_trace.append(cg_iterations)
        rel_decrease = abs(prev_obj - cur_obj) / max(1.0, abs(cur_obj))
        fell, prev_obj = cur_obj < prev_obj, cur_obj
        if rel_decrease < cfg.objective_tol and max_step < cfg.step_tol_deg:
            result.status = "converged"
            break
        if tried and not (newton and fell):  # rejected, or flat: back to sweeps
            newton, retry_below = False, max_step / 10.0
        elif not newton and max_step < retry_below:
            indices = coeffs = None  # released before the pattern is built, to lower the peak
            nb.drop_neighbor_tables()
            pattern = pattern or _NormalPattern(nb)
            newton = True

    if lone:
        warnings.warn(f"{len(lone)} vertices have no incident edges, e.g. {sorted(lone)[:5]}; using identity")
    result.rotations = r
    result.sweeps_run = len(step_trace)
    return result


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
    """CSV: sweep,objective,max_step_deg,newton — one row per iteration, newton 1
    for a Newton step and 0 for a sweep."""
    write_csv(path, "sweep,objective,max_step_deg,newton", result.objective_trace,
              result.max_step_trace, result.newton_trace)
