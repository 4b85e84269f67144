"""Shared pytest plumbing: one summary line per acceptance criterion, a
dense view of connection blocks, and scipy's CG as the reference for
`robust.block_jacobi_cg`."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

results: list[tuple[int, str, bool, str]] = []


def record(number: int, title: str, passed: bool, detail: str) -> None:
    results.append((number, title, passed, detail))
    print(f"CRITERION {number:2d} [{'PASS' if passed else 'FAIL'}] {title}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {title}: {detail}")


def dense_blocks(nb) -> np.ndarray:
    """(n, 3, n, 3) array whose [r, :, c, :] is block N_rc, read from `nb.lower`
    through the edge index arrays; non-edges and the diagonal stay zero."""
    dense = np.zeros((nb.n, 3, nb.n, 3))
    dense[nb.j_idx, :, nb.i_idx, :] = nb.lower  # N_ji
    dense[nb.i_idx, :, nb.j_idx, :] = np.swapaxes(nb.lower, 1, 2)  # N_ij = N_ji^T
    return dense


def scipy_cg(a, rhs, diag, maxiter=None, rtol=1e-12):
    """(x or None, iterations): `scipy.sparse.linalg.cg` on the system `robust.block_jacobi_cg`
    takes, with the same block-Jacobi preconditioner (a LinearOperator on the 3 columns
    for scalar blocks); the iterations are counted by its callback."""
    m = len(diag)
    shape = (3 * m, 3 * m)
    if diag.ndim == 1:
        diag_inv = np.repeat(1.0 / diag, 3)
        op = spla.LinearOperator(shape, lambda x: (a @ x.reshape(m, 3)).ravel(), dtype=float)
        precond = spla.LinearOperator(shape, lambda x: diag_inv * x, dtype=float)
    else:
        op = a
        precond = sp.bsr_matrix((np.linalg.inv(diag), np.arange(m), np.arange(m + 1)), shape=shape)
    calls = []
    x, info = spla.cg(op, rhs.ravel(), rtol=rtol, M=precond, maxiter=maxiter, callback=calls.append)
    return (x if info == 0 and np.isfinite(x).all() else None), len(calls)
