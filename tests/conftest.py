"""Shared pytest plumbing: one summary line per acceptance criterion, and a
dense view of connection blocks for tests."""

import numpy as np

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
