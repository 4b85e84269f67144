"""Robust refinement of a rotation-averaging solution via IRLS.

The refinement linearizes the edge residuals in the tangent space
(right-multiplicative increments R_i <- R_i exp(delta_i)), whitens with the
Cholesky factor of the edge Hessian in the anisotropic mode, weighs each edge
with a Geman-McClure majorizer, and solves sparse block normal equations with
the smallest camera of each connected component pinned for gauge. Steps are
halved on cost increase so the robust cost trace is non-increasing.

Every per-edge and per-camera quantity is computed as array code: residuals
and the retraction use the stacked SO(3) maps, the Hessians are clamped and
whitened in one batched call each. The per-edge kernels of an iteration run
one edge block (`viewgraph.edge_blocks`) at a time and write into the arrays
they return, so their temporaries do not grow with the edge count; only the
residuals' `so3.log_so3` runs once over all edges, for its fixed cost. Each
refinement builds the block pattern of its normal equations once (the BSR
structure, the slot of each edge's two coupling blocks and the edge-camera
incidence), and each iteration only refills the block values. The system is
solved by conjugate gradients with a block-Jacobi (inverted 3x3 diagonal
block) preconditioner, after Agarwal et al., "Bundle Adjustment in the Large"
(ECCV 2010), with a direct sparse solve as fallback. The CG is this module's
own (`block_jacobi_cg`): it multiplies by the pattern's matrix directly, takes
scipy's CG steps in scipy's order, so its iterates are scipy's bit for bit,
and returns its iteration count with the step. In iso mode every precision
is the identity and the system is L_w kron I3: the slots hold the scalar
weighted Laplacian L_w, solved for three right-hand-side columns with a
1/diagonal preconditioner. The ACD Newton step
(`solver.newton_system`) fills the same pattern and calls the same CG.

Frame bookkeeping: the per-edge Hessian expresses the precision of a
right-multiplicative error at the measured relative rotation. The tangent
residual log(R_j^T R_ij R_i) equals that error conjugated by R_i, so the
anisotropic terms use the R_i-conjugated Hessian of the current iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import so3
from .viewgraph import (MODES, RowError, ViewGraph, _check_rotations, blockwise, check_choice, check_real,
                        clamp_psd, edge_blocks, write_csv)

MAX_OUTER_ITERS = 50
MAX_HALVINGS = 10
# A refinement converges once its largest camera step falls below this.
STEP_TOL_DEG = 1e-6
# Relative residual at which CG stops. At this tolerance the refined
# rotations match those of a direct sparse solve to about 1e-14.
CG_RTOL = 1e-12


@dataclass
class RobustConfig:
    tau_deg: float = 5.0
    mode: str = "iso"

    def __post_init__(self):
        check_real(self.tau_deg, "tau_deg", lambda t: 0 < t < np.inf, "positive and finite")
        check_choice(self.mode, "robust mode", MODES)


@dataclass
class RefineResult:
    rotations: np.ndarray
    cost_trace: list[float]
    max_step_trace: list[float] = field(default_factory=list)
    halving_trace: list[int] = field(default_factory=list)
    iters_run: int = 0
    status: str = "max_iters_reached"
    cg_trace: list[int] = field(default_factory=list)  # per iteration: CG iterations of its step


def irls_weight(x, tau: float):
    """Majorizer weight (tau^2 / (x^2 + tau^2))^2, normalized so w(0) = 1."""
    x = np.asarray(x, dtype=float)
    t2 = tau * tau
    w = (t2 / (x * x + t2)) ** 2
    return float(w) if w.ndim == 0 else w


def robust_cost(s_norms: np.ndarray, tau: float) -> float:
    """Sum of the Geman-McClure kernel s^2 / (s^2 + tau^2), each term in [0, 1)."""
    return float(np.sum(s_norms**2 / (s_norms**2 + tau * tau)))


class _EdgeModel:
    """Per-edge arrays: endpoints, measurements and, in aniso mode, precisions."""

    def __init__(self, g: ViewGraph, mode: str):
        self.mode = mode
        self.i_idx, self.j_idx = g.i_idx, g.j_idx
        self.rel = g.rel
        if mode == "aniso":
            h = g.hessian_stack()
            trace = np.einsum("eaa->e", h)
            bad = np.flatnonzero(~(trace > 0.0))
            if bad.size:
                k = bad[0]
                raise ValueError(
                    f"edge ({g.i_idx[k]},{g.j_idx[k]}): Hessian trace is {trace[k]:g}; aniso "
                    "refinement needs a Hessian with positive trace"
                )
            self.h = clamp_psd(h)
            # Normalizing the whitener by sqrt(tr(H)/3) keeps the robust
            # scale tau comparable between iso and aniso runs.
            scale = np.sqrt(np.einsum("eaa->e", self.h) / 3.0)
            self.dn = np.swapaxes(np.linalg.cholesky(self.h), 1, 2) / scale[:, None, None]

    def residuals(self, r: np.ndarray) -> np.ndarray:
        """Tangent residuals log(R_j^T R_ij R_i); zero iff the edge is consistent."""
        def block(e):
            rj, ri = r.take(self.j_idx[e], axis=0), r.take(self.i_idx[e], axis=0)
            return np.swapaxes(rj, 1, 2) @ self.rel[e] @ ri

        # One log_so3 call over all edges: its fixed cost per call exceeds a block's products.
        return so3.log_so3(blockwise(len(self.i_idx), block, (3, 3)))

    def whitened_norms(self, r: np.ndarray, omegas: np.ndarray) -> np.ndarray:
        """|Dn eps| per edge, eps the residual rotated back to the edge frame."""
        if self.mode == "iso":
            return np.linalg.norm(omegas, axis=1)

        def block(e):
            eps = np.einsum("eab,eb->ea", r.take(self.i_idx[e], axis=0), omegas[e])
            return np.linalg.norm(np.einsum("eab,eb->ea", self.dn[e], eps), axis=1)

        return blockwise(len(omegas), block)

    def effective_precisions(self, r: np.ndarray):
        """None in iso (identity); in aniso, a function that gives R_i^T H R_i, the
        residual's precision at the iterate, as the (len(e), 3, 3) stack of the edges
        of slice e, so that `_NormalPattern.assemble` never holds every edge's stack."""
        if self.mode == "iso":
            return None

        def precisions(e: slice) -> np.ndarray:
            ri = r.take(self.i_idx[e], axis=0)
            return np.transpose(ri, (0, 2, 1)) @ self.h[e] @ ri

        return precisions


class _NormalPattern:
    """Block structure of one graph's free-camera normal equations.

    The smallest camera of each connected component is pinned (`free` is
    False there), which fixes each component's gauge; on a connected graph
    that is camera 0. The system has one 3x3 block per free camera on the
    diagonal and one per direction of each edge between free cameras. The
    structure depends only on `g.n`, `g.i_idx` and `g.j_idx`, so a
    refinement (from a `ViewGraph`) or an ACD solve (from `ConnectionBlocks`)
    builds it once; each system only writes new values into the fixed slots
    of a BSR matrix (a CSR matrix with one scalar per slot in iso mode).
    """

    def __init__(self, g):
        self.free = np.ones(g.n, dtype=bool)
        self.free[g.smallest_cameras()] = False
        m = int(self.free.sum())
        index = np.where(self.free, np.cumsum(self.free) - 1, -1)
        # fj >= 0: j > i in the same component, so j is never its smallest camera.
        fi, fj = index[g.i_idx], index[g.j_idx]
        free = np.flatnonzero(fi >= 0)
        a, b = fi[free], fj[free]
        # Block (row, col) per slot: the diagonal, then (i, j) and (j, i) per free edge.
        rows = np.concatenate([np.arange(m), a, b])
        cols = np.concatenate([np.arange(m), b, a])
        order = np.argsort(rows.astype(np.int64) * m + cols)  # keys are unique
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        self.m, self.diag_slot = m, slot[:m].copy()  # a view would keep all of `slot`
        # Slots of each edge's (i, j) and (j, i) blocks. An edge at a pinned camera has
        # neither block: it writes both to a spare slot of its own past the end, which
        # the matrix leaves out and `cover` reads.
        self.upper_slot, self.lower_slot = np.full((2, len(fj)), len(order), dtype=np.int32)
        self.upper_slot[free], self.lower_slot[free] = slot[m:m + len(a)], slot[m + len(a):]
        pinned = np.flatnonzero(fi < 0)
        self.upper_slot[pinned] = self.lower_slot[pinned] = len(order) + np.arange(len(pinned))
        self.slots = len(order) + len(pinned)  # rows of a system's data array
        # int32, as scipy would otherwise convert them on every build.
        self.indices = cols[order].astype(np.int32)
        self.indptr = np.searchsorted(rows[order], np.arange(m + 1)).astype(np.int32)
        # Signed edge -> camera incidence, -1 at a free camera i and +1 at j, written
        # edge by edge as the columns of a CSC matrix; its CSR conversion keeps each
        # row's edges in order, so no sort is needed.
        ends = np.stack([fi, fj], axis=1).ravel()
        kept = ends >= 0
        self.incidence = sp.csc_matrix(
            (np.tile([-1.0, 1.0], len(fj))[kept], ends[kept].astype(np.int32),
             np.concatenate([[0], np.cumsum(1 + (fi >= 0))]).astype(np.int32)),
            shape=(m, len(fj))).tocsr()
        # Per free camera, the sum of its edges' lower-slot blocks in edge order, the order
        # in which the incidence sums edge values: cover @ data sums the blocks a system wrote.
        self.cover = sp.csr_matrix((np.abs(self.incidence.data), self.lower_slot[self.incidence.indices],
                                    self.incidence.indptr), shape=(m, self.slots))
        # Every matrix built from the pattern shares these arrays.
        for index_array in (self.indices, self.indptr, self.cover.indices, self.cover.indptr):
            index_array.flags.writeable = False

    def matrix(self, data: np.ndarray, diag: np.ndarray):
        """The matrix of `data`'s slots, with `diag` written into its diagonal slots;
        BSR, or m x m CSR for scalar blocks."""
        data[self.diag_slot] = diag
        fmt, size = (sp.csr_matrix, self.m) if diag.ndim == 1 else (sp.bsr_matrix, 3 * self.m)
        return fmt((data[:len(self.indices)], self.indices, self.indptr), shape=(size, size))

    def assemble(self, weights: np.ndarray, precisions, omegas: np.ndarray):
        """(A, rhs, diagonal) of the system for these edge values.

        The blocks -w_e P_e are written into the slots one edge block at a
        time, each reading its `precisions(e)` (see `solve_normal_equations`).
        Without precisions (iso), A is the m x m CSR weighted Laplacian, rhs
        has one column per tangent axis and the diagonal is a vector.
        """
        w = np.asarray(weights, dtype=float)
        if precisions is None:  # one scalar per edge: no stack to bound
            data = np.empty(self.slots)
            data[self.upper_slot] = data[self.lower_slot] = -w
            wp_omega = w[:, None] * omegas
        else:
            data, wp_omega = np.empty((self.slots, 3, 3)), np.empty((len(w), 3))
            for e in edge_blocks(len(w)):
                wh = w[e, None, None] * precisions(e)
                wp_omega[e] = np.einsum("eab,eb->ea", wh, omegas[e])
                data[self.upper_slot[e]] = data[self.lower_slot[e]] = -wh
        # The slots hold -w P: 0.0 - sum is the sum of the w P bit for bit, a zero sum as +0.0.
        diag = 0.0 - self.cover @ (data if precisions is None else data.reshape(self.slots, 9))
        rhs = self.incidence @ wp_omega
        if precisions is not None:
            diag, rhs = diag.reshape(self.m, 3, 3), rhs.ravel()
        return self.matrix(data, diag), rhs, diag


def block_jacobi_cg(a, rhs: np.ndarray, diag: np.ndarray, maxiter: int | None = None,
                    rtol: float = CG_RTOL):
    """(x, iterations): x (flat) solves a x = rhs to a residual `rtol` relative to rhs,
    by conjugate gradients preconditioned with the inverted diagonal blocks (Nocedal &
    Wright, Alg. 5.3, from x = 0), or is None if CG gives no finite x within `maxiter`
    iterations (default 10 per unknown). IRLS keeps CG_RTOL; the ACD Newton step passes
    a looser one. A direction p with p^T a p <= 0 does not stop the iteration.

    The steps and their order are those of `scipy.sparse.linalg.cg` (scipy 1.17), so
    x is bit for bit scipy's and `iterations` the count of its callback: the stop test
    |r| < rtol |rhs| heads each iteration, a zero rhs returns zeros after none, and a
    solve that uses all `maxiter` iterations fails even if the last one converged.

    A vector `diag` means scalar blocks: `a` (m x m) then acts on each of the 3
    columns of rhs, the system a kron I3. Raises np.linalg.LinAlgError, before
    CG runs, if a diagonal entry or block is not finite and invertible.
    """
    m = len(diag)
    if diag.ndim == 1:
        if not np.all(np.isfinite(diag) & (diag != 0)):
            raise np.linalg.LinAlgError("zero or non-finite diagonal entry")
        diag_inv = np.repeat(1.0 / diag, 3)

        def matvec(v):
            return (a @ v.reshape(m, 3)).ravel()

        def precondition(v):
            return diag_inv * v
    else:
        diag_inv = np.linalg.inv(diag)  # raises on an exactly singular block, not on NaN
        if not (np.isfinite(diag).all() and np.isfinite(diag_inv).all()):
            raise np.linalg.LinAlgError("non-finite diagonal block")
        matvec = a.__matmul__
        precondition = sp.bsr_matrix((diag_inv, np.arange(m), np.arange(m + 1)),
                                     shape=(3 * m, 3 * m)).__matmul__
    b = rhs.ravel()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return b.copy(), 0
    atol = max(0.0, rtol * b_norm)  # 0 for a NaN rhs, as in scipy: CG then runs out
    x, r, p = np.zeros_like(b), b.copy(), None
    maxiter = 30 * m if maxiter is None else maxiter
    for iteration in range(maxiter):
        if math.sqrt(np.dot(r, r)) < atol:  # np.linalg.norm, without its dispatch
            return (x if np.isfinite(x).all() else None), iteration
        z = precondition(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return None, maxiter


def solve_normal_equations(
    pattern: _NormalPattern,
    weights: np.ndarray,
    precisions,
    omegas: np.ndarray,
) -> tuple[np.ndarray, int]:
    """(step, CG iterations) of the weighted Gauss-Newton step for
    min sum w_e |D_e(delta_j - delta_i - w~_e)|^2.

    `precisions(e)` gives D_e^T D_e as the (len(e), 3, 3) stack of the edges of
    slice e (for an (E, 3, 3) array, its bound `__getitem__`). The smallest camera
    of each component is pinned (its delta is 0); the returned (n, 3) step
    includes the pinned zero rows. Each call fills the blocks -w_e P_e and the
    diagonal sums into `pattern` and solves by `block_jacobi_cg`, with a direct
    sparse solve as fallback (the iterations count the CG that failed). No
    precisions means the identity on every edge (iso): the system is then the
    weighted Laplacian with three right-hand-side columns.

    Raises:
        ValueError: if the system is singular (a camera whose edges carry
            no weight, or whose weights are not finite).
    """
    a, rhs, diag = pattern.assemble(weights, precisions, omegas)
    singular = "singular normal equations (a camera whose edges carry no finite, nonzero weight)"
    try:
        delta_free, iterations = block_jacobi_cg(a, rhs, diag)
    except np.linalg.LinAlgError:
        raise ValueError(singular) from None
    if delta_free is None:
        delta_free = spla.spsolve(a.tocsc(), rhs)
    if not np.all(np.isfinite(delta_free)):
        raise ValueError(singular)
    delta = np.zeros((len(pattern.free), 3))
    delta[pattern.free] = delta_free.reshape(pattern.m, 3)
    return delta, iterations


def robust_refine(g: ViewGraph, r0: np.ndarray, cfg: RobustConfig) -> RefineResult:
    """IRLS refinement of an initial valid-rotation stack.

    Outer loop: residuals, Geman-McClure weights at scale tau on whitened
    residual norms, sparse weighted least-squares step in the normal-equation
    pattern built once per call, safeguarded update R_i <- R_i exp(delta_i)
    with step halving on cost increase.

    A step is accepted once the robust cost does not rise by more than 1e-12.
    If it still rises after MAX_HALVINGS halvings, the refinement ends
    "stalled": it keeps the last iterate and appends the unchanged cost, a
    step of 0.0 and MAX_HALVINGS halvings to the traces.

    Raises:
        ValueError: if r0 is not an (n, 3, 3) stack, or naming the first camera whose
            start is off SO(3) beyond viewgraph.OFF_MANIFOLD_TOL (the rotation-file rule;
            a start within it is re-projected in the refinement's own copy).
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (g.n, 3, 3):
        raise ValueError(f"initial stack shape {r0.shape} does not match n={g.n}")
    r = r0.copy()
    try:
        _check_rotations(r)
    except RowError as exc:
        raise ValueError(f"initial stack, camera {exc.index}: {exc}") from None
    pattern = _NormalPattern(g)
    model = _EdgeModel(g, cfg.mode)
    tau = np.radians(cfg.tau_deg)

    omegas = model.residuals(r)
    norms = model.whitened_norms(r, omegas)
    cost = robust_cost(norms, tau)
    result = RefineResult(rotations=r, cost_trace=[cost])

    for _ in range(MAX_OUTER_ITERS):
        result.iters_run += 1
        weights = irls_weight(norms, tau)
        delta, cg_iterations = solve_normal_equations(pattern, weights, model.effective_precisions(r),
                                                      omegas)
        result.cg_trace.append(cg_iterations)
        for halvings in range(MAX_HALVINGS + 1):
            r_new = r @ so3.exp_so3(delta)
            omegas_new = model.residuals(r_new)
            norms_new = model.whitened_norms(r_new, omegas_new)
            cost_new = robust_cost(norms_new, tau)
            if cost_new <= cost + 1e-12:
                break
            delta = 0.5 * delta
        else:
            result.status = "stalled"
            result.cost_trace.append(cost)
            result.max_step_trace.append(0.0)
            result.halving_trace.append(MAX_HALVINGS)
            break

        max_step = float(np.degrees(np.max(np.linalg.norm(delta, axis=1), initial=0.0)))
        r, omegas, norms, cost = r_new, omegas_new, norms_new, cost_new
        result.cost_trace.append(cost)
        result.max_step_trace.append(max_step)
        result.halving_trace.append(halvings)
        if max_step < STEP_TOL_DEG:
            result.status = "converged"
            break
    result.rotations = r
    return result


def write_robust_trace_csv(result: RefineResult, path) -> None:
    """CSV: iter,robust_cost,max_step_deg,halvings — one row per outer iter."""
    write_csv(path, "iter,robust_cost,max_step_deg,halvings", result.cost_trace[1:],
              result.max_step_trace, result.halving_trace)
