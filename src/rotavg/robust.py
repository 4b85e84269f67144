"""Robust refinement of a rotation-averaging solution via IRLS.

The refinement linearizes the edge residuals in the tangent space
(right-multiplicative increments R_i <- R_i exp(delta_i)), whitens with the
Cholesky factor of the edge Hessian in the anisotropic mode, weighs each edge
with a Geman-McClure majorizer, and solves sparse block normal equations with
the smallest camera of each connected component pinned for gauge. Steps are
halved on cost increase so the robust cost trace is non-increasing.

Every per-edge and per-camera quantity is computed as array code: residuals
and the retraction use the stacked SO(3) maps, the Hessians are clamped and
whitened in one batched call each. Each refinement builds the block
pattern of its normal equations once (the BSR structure, the slot of each
edge's two coupling blocks and the edge-camera incidence), and each
iteration only refills the block values. The system is solved by conjugate
gradients with a block-Jacobi (inverted 3x3 diagonal block) preconditioner,
after Agarwal et al., "Bundle Adjustment in the Large" (ECCV 2010), with a
direct sparse solve as fallback. In iso mode every precision is the
identity and the system is L_w kron I3: the slots hold the scalar weighted
Laplacian L_w, solved for three right-hand-side columns with a 1/diagonal
preconditioner. The ACD Newton step (`solver.newton_system`) fills the same
pattern and calls the same CG.

Frame bookkeeping: the per-edge Hessian expresses the precision of a
right-multiplicative error at the measured relative rotation. The tangent
residual log(R_j^T R_ij R_i) equals that error conjugated by R_i, so the
anisotropic terms use the R_i-conjugated Hessian of the current iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import so3
from .viewgraph import ViewGraph, clamp_psd, write_csv

DEFAULT_TAU_DEG = 5.0
MAX_OUTER_ITERS = 50
MAX_HALVINGS = 10
# A refinement converges once its largest camera step falls below this.
STEP_TOL_DEG = 1e-6
# Relative residual at which CG stops. At this tolerance the refined
# rotations match those of a direct sparse solve to about 1e-14.
CG_RTOL = 1e-12


@dataclass
class RobustConfig:
    tau_deg: float = DEFAULT_TAU_DEG
    mode: str = "iso"  # iso | aniso

    def __post_init__(self):
        if not 0 < self.tau_deg < np.inf:  # NaN fails too
            raise ValueError("tau_deg must be positive and finite")
        if self.mode not in ("iso", "aniso"):
            raise ValueError(f"unknown robust mode {self.mode!r}")


@dataclass
class RefineResult:
    rotations: np.ndarray
    cost_trace: list[float]
    max_step_trace: list[float] = field(default_factory=list)
    halving_trace: list[int] = field(default_factory=list)
    iters_run: int = 0
    status: str = "max_iters_reached"


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
            self.norm_scale = scale

    def residuals(self, r: np.ndarray) -> np.ndarray:
        """Tangent residuals log(R_j^T R_ij R_i); zero iff the edge is consistent."""
        rj_t = np.swapaxes(r[self.j_idx], 1, 2)
        return so3.log_so3(rj_t @ self.rel @ r[self.i_idx])

    def whitened_norms(self, r: np.ndarray, omegas: np.ndarray) -> np.ndarray:
        """|Dn eps| per edge, eps the residual rotated back to the edge frame."""
        if self.mode == "iso":
            return np.linalg.norm(omegas, axis=1)
        eps = np.einsum("eab,eb->ea", r[self.i_idx], omegas)
        return np.linalg.norm(np.einsum("eab,eb->ea", self.dn, eps), axis=1)

    def effective_precisions(self, r: np.ndarray) -> np.ndarray | None:
        """R_i^T H R_i per edge, the residual's precision at the iterate; None in iso (identity)."""
        if self.mode == "iso":
            return None
        ri = r[self.i_idx]
        return np.transpose(ri, (0, 2, 1)) @ self.h @ ri


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
        self.m, self.diag_slot = m, slot[:m]
        # Slots of each edge's (i, j) and (j, i) blocks; an edge at a pinned camera has none
        # and writes both to a spare slot past the end, so no edge subset is copied.
        self.upper_slot, self.lower_slot = np.full((2, len(fj)), len(order))
        self.upper_slot[free], self.lower_slot[free] = slot[m:m + len(a)], slot[m + len(a):]
        # int32, as scipy would otherwise convert them on every build.
        self.indices = cols[order].astype(np.int32)
        self.indptr = np.searchsorted(rows[order], np.arange(m + 1)).astype(np.int32)
        # Signed edge -> camera incidence: -1 at a free camera i, +1 at j.
        edge = np.concatenate([free, np.arange(len(fj))])
        sign = np.concatenate([-np.ones(len(a)), np.ones(len(fj))])
        self.incidence = sp.csr_matrix((sign, (np.concatenate([a, fj]), edge)), shape=(m, len(fj)))
        self.cover = abs(self.incidence)
        # Every matrix built from the pattern shares these arrays.
        self.indices.flags.writeable = self.indptr.flags.writeable = False

    def matrix(self, diag: np.ndarray, upper: np.ndarray, lower: np.ndarray):
        """The matrix with these diagonal blocks and, per edge e, block `upper[e]`
        at (i, j) and `lower[e]` at (j, i); BSR, or m x m CSR for scalar blocks."""
        data = np.empty((len(self.indices) + 1,) + diag.shape[1:])
        data[self.diag_slot] = diag
        data[self.upper_slot] = np.ascontiguousarray(upper)  # scatters faster than a strided view
        data[self.lower_slot] = lower
        fmt, size = (sp.csr_matrix, self.m) if diag.ndim == 1 else (sp.bsr_matrix, 3 * self.m)
        return fmt((data[:-1], self.indices, self.indptr), shape=(size, size))

    def assemble(self, weights: np.ndarray, precisions: np.ndarray | None, omegas: np.ndarray):
        """(A, rhs, diagonal) of the system for these edge values.

        Without precisions (iso), A is the m x m CSR weighted Laplacian,
        rhs has one column per tangent axis and the diagonal is a vector.
        """
        m, w = self.m, np.asarray(weights, dtype=float)
        if precisions is None:
            wh, diag, rhs = w, self.cover @ w, self.incidence @ (w[:, None] * omegas)
        else:
            wh = w[:, None, None] * precisions
            diag = (self.cover @ wh.reshape(-1, 9)).reshape(m, 3, 3)
            rhs = (self.incidence @ np.einsum("eab,eb->ea", wh, omegas)).ravel()
        coupling = -wh
        return self.matrix(diag, coupling, coupling), rhs, diag


def block_jacobi_cg(a, rhs: np.ndarray, diag: np.ndarray, maxiter: int | None = None,
                    rtol: float = CG_RTOL):
    """x (flat) solving a x = rhs to a residual `rtol` relative to rhs, by CG preconditioned
    with the inverted diagonal blocks, or None if CG gives no finite x within `maxiter`
    (default 10 per unknown). IRLS keeps CG_RTOL; the ACD Newton step passes a looser one.

    A vector `diag` means scalar blocks: `a` (m x m) then acts on each of the 3
    columns of rhs, the system a kron I3. Raises np.linalg.LinAlgError, before
    CG runs, if a diagonal entry or block is not finite and invertible.
    """
    m = len(diag)
    shape = (3 * m, 3 * m)
    if diag.ndim == 1:
        if not np.all(np.isfinite(diag) & (diag != 0)):
            raise np.linalg.LinAlgError("zero or non-finite diagonal entry")
        diag_inv = np.repeat(1.0 / diag, 3)
        op = spla.LinearOperator(shape, lambda x: (a @ x.reshape(m, 3)).ravel(), dtype=float)
        precond = spla.LinearOperator(shape, lambda x: diag_inv * x, dtype=float)
    else:
        diag_inv = np.linalg.inv(diag)  # raises on an exactly singular block, not on NaN
        if not (np.isfinite(diag).all() and np.isfinite(diag_inv).all()):
            raise np.linalg.LinAlgError("non-finite diagonal block")
        op = a
        precond = sp.bsr_matrix((diag_inv, np.arange(m), np.arange(m + 1)), shape=shape)
    x, info = spla.cg(op, rhs.ravel(), rtol=rtol, M=precond, maxiter=maxiter)
    return x if info == 0 and np.isfinite(x).all() else None


def solve_normal_equations(
    pattern: _NormalPattern,
    weights: np.ndarray,
    precisions: np.ndarray | None,
    omegas: np.ndarray,
) -> np.ndarray:
    """Weighted Gauss-Newton step for min sum w_e |D_e(delta_j - delta_i - w~_e)|^2.

    `precisions` holds D_e^T D_e per edge. The smallest camera of each
    component is pinned (its delta is 0); the returned (n, 3) step includes
    the pinned zero rows. Each call fills
    the blocks -w_e P_e and the diagonal sums into `pattern` and solves by
    `block_jacobi_cg`, with a direct sparse solve as fallback. No precisions
    means the identity on every edge (iso): the system is then the weighted
    Laplacian with three right-hand-side columns.

    Raises:
        ValueError: if the system is singular (a camera whose edges carry
            no weight, or whose weights are not finite).
    """
    a, rhs, diag = pattern.assemble(weights, precisions, omegas)
    singular = "singular normal equations (a camera whose edges carry no finite, nonzero weight)"
    try:
        delta_free = block_jacobi_cg(a, rhs, diag)
    except np.linalg.LinAlgError:
        raise ValueError(singular) from None
    if delta_free is None:
        delta_free = spla.spsolve(a.tocsc(), rhs)
    if not np.all(np.isfinite(delta_free)):
        raise ValueError(singular)
    delta = np.zeros((len(pattern.free), 3))
    delta[pattern.free] = delta_free.reshape(pattern.m, 3)
    return delta


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
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (g.n, 3, 3):
        raise ValueError(f"initial stack shape {r0.shape} does not match n={g.n}")
    pattern = _NormalPattern(g)
    model = _EdgeModel(g, cfg.mode)
    tau = np.radians(cfg.tau_deg)
    r = r0.copy()

    omegas = model.residuals(r)
    norms = model.whitened_norms(r, omegas)
    cost = robust_cost(norms, tau)
    result = RefineResult(rotations=r, cost_trace=[cost])

    for _ in range(MAX_OUTER_ITERS):
        result.iters_run += 1
        weights = irls_weight(norms, tau)
        delta = solve_normal_equations(pattern, weights, model.effective_precisions(r), omegas)
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
