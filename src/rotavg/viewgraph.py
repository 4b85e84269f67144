"""View-graph data model: edges with optional Hessians, block assembly, trees, I/O.

Conventions: edges are stored canonically with i < j and relative rotation
R_ij such that R_ij ~ R_j R_i^T. An edge Hessian is a 3x3 symmetric PSD
matrix expressing the precision of a right-multiplicative perturbation of
the measured relative rotation (R_ij <- R_ij exp(delta)).

A graph stores its edges as read-only arrays and checks them with one
stacked validator; `EdgeMeasurement` is the per-edge view of the same data.
"""

from __future__ import annotations

import contextlib
import operator
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import so3

SYMMETRY_TOL = 1e-9
OFF_MANIFOLD_TOL = 1e-6
_CHOLESKY_MAX = 1e6  # _not_psd's verdicts measured equal to eigvalsh's up to here, not at 1e7
FLOAT_FMT = "%.17g"
_MATRIX_FMT = " ".join([FLOAT_FMT] * 9)  # one 3x3 matrix, row-major


class GraphFormatError(ValueError):
    """Malformed view-graph or rotation file."""


class RowError(ValueError):
    """An invalid row of a stack of edges or rotations; `index` is the row."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class EdgeMeasurement:
    """One undirected measurement between cameras i < j."""

    i: int
    j: int
    rel: np.ndarray
    hessian: np.ndarray | None = None

    def __post_init__(self):
        rel = np.asarray(self.rel, dtype=float)[None]
        hess = np.asarray(np.zeros((3, 3)) if self.hessian is None else self.hessian, dtype=float)
        _check_edges(_endpoints(self.i), _endpoints(self.j), rel, hess[None])


def check_count(value, name: str, minimum: int = 1) -> None:
    """Raise ValueError unless `value` is an integer >= minimum; numpy integers pass."""
    try:
        ok = operator.index(value) >= minimum
    except TypeError:  # 2.5, nan, "3"
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _endpoints(x) -> np.ndarray:
    x = np.asarray(x).reshape(-1)
    if x.size and x.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, got dtype {x.dtype}")
    return x.astype(np.intp)


def _not_psd(h: np.ndarray) -> np.ndarray:
    """`eigvalsh(h)[:, 0] < -SYMMETRY_TOL` per row of a finite (E, 3, 3) stack.

    One Cholesky factor, which reads the same lower triangle, certifies every
    row positive definite without eigvalsh. For entries of at most
    _CHOLESKY_MAX its rounding stays below SYMMETRY_TOL and it cannot overflow
    into a NaN factor, which OpenBLAS returns without error. It is not tried on a
    stack with a diagonal entry <= 0, such as a zero (no-Hessian) row, where
    it must fail, nor on one row (an `EdgeMeasurement`), where it costs as
    much as eigvalsh.
    """
    if len(h) > 1 and np.diagonal(h, axis1=1, axis2=2).min() > 0 and np.abs(h).max() <= _CHOLESKY_MAX:
        with contextlib.suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(h)
            return np.zeros(len(h), dtype=bool)
    return np.linalg.eigvalsh(h)[:, 0] < -SYMMETRY_TOL


def _check_edges(i, j, rel, hess, n=None):
    """Raise RowError on the first invalid edge; with n, return each rel's SO(3) defect.

    Each edge runs the checks in this order: self-edge, canonical order,
    rotation shape and finiteness, Hessian shape, finiteness, symmetry and
    PSD-ness (`_not_psd`), then, if n is given, the rotation's
    `so3.rotation_defect` (at most OFF_MANIFOLD_TOL), vertex range and
    duplicates. The earliest failing edge is reported with the first check it
    fails. A zero `hess` row, which stands for an edge without a Hessian, passes.
    """
    every, at, defect = np.ones(len(i), dtype=bool), "edge ({i},{j})", None
    rel_shape, h_shape = rel.shape[1:], hess.shape[1:]
    checks = [(i == j, "self-edge at vertex {i}"), (i > j, at + " not in canonical i<j order")]
    if rel_shape != (3, 3):
        checks.append((every, at + ": relative rotation has shape {rel}, expected (3, 3)"))
    else:
        checks.append((~np.isfinite(rel).all(axis=(1, 2)), at + ": relative rotation not finite"))
    if h_shape != (3, 3):
        checks.append((every, at + ": Hessian has shape {hess}, expected (3, 3)"))
    else:
        finite = np.isfinite(hess).all(axis=(1, 2))
        h = hess if finite.all() else np.where(finite[:, None, None], hess, 0.0)  # no inf - inf
        skew = h - np.swapaxes(h, 1, 2)
        checks += [
            (~finite, at + ": Hessian not finite"),
            (np.einsum("eab,eab->e", skew, skew) > SYMMETRY_TOL**2, at + ": Hessian not symmetric"),
            (_not_psd(h), at + ": Hessian not PSD"),
        ]
    if n is not None:
        defect = so3.rotation_defect(rel) if rel_shape == (3, 3) else np.full(len(i), np.inf)
        order = np.lexsort((j, i))  # stable: a repeat sorts after its first occurrence
        repeat = np.zeros_like(every)
        repeat[order[1:]] = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
        outside = (i < 0) | (i >= n) | (j < 0) | (j >= n)
        off = f": relative rotation off SO(3) beyond {OFF_MANIFOLD_TOL:g} (defect {{defect:.3g}})"
        checks.append((~(defect <= OFF_MANIFOLD_TOL), at + off))  # NaN fails too
        checks.append((outside, at + " outside vertex range [0,{n})"))
        checks.append((repeat, "duplicate " + at))
    bad = np.array([mask for mask, _ in checks]).reshape(len(checks), len(i))
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        message = checks[int(np.argmax(bad[:, k]))][1]
        raise RowError(k, message.format(i=i[k], j=j[k], n=n, rel=rel_shape, hess=h_shape,
                                         defect=None if defect is None else defect[k]))
    return defect


def _reproject(m: np.ndarray, defect: np.ndarray) -> None:
    """Replace in place each row of m whose defect exceeds so3.ROTATION_TOL by its projection."""
    for k in np.flatnonzero(defect > so3.ROTATION_TOL).tolist():
        m[k] = so3.project_so3(m[k])


class _EdgeList(Sequence):
    """Read-only sequence of a graph's edges; each item is built on access."""

    def __init__(self, g: ViewGraph):
        self._g = g

    def __len__(self) -> int:
        return len(self._g.i_idx)

    def __getitem__(self, k: int) -> EdgeMeasurement:
        return self._g._edge(range(len(self))[operator.index(k)])


class _Connectivity:
    """Components of the graph of `n` vertices and edges `i_idx`, `j_idx`, which are fixed."""

    @cached_property
    def _labels(self) -> np.ndarray:
        """Component label per vertex, numbered by smallest member."""
        from scipy.sparse import coo_matrix, csgraph  # here: csgraph costs about 1 MB of memory

        adjacency = coo_matrix((np.ones(len(self.i_idx)), (self.i_idx, self.j_idx)),
                               shape=(self.n, self.n))
        _, labels = csgraph.connected_components(adjacency, directed=False)
        _, first = np.unique(labels, return_index=True)
        labels = np.argsort(np.argsort(first))[labels]
        labels.flags.writeable = False
        return labels

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest member.

        The lists are new on every call; changing them changes no later result.
        """
        order = np.argsort(self._labels, kind="stable")
        cuts = np.flatnonzero(np.diff(self._labels[order])) + 1
        return [c.tolist() for c in np.split(order, cuts)] if self.n else []

    def is_connected(self) -> bool:
        return self.n > 0 and not self._labels.any()

    def smallest_cameras(self) -> np.ndarray:
        """The smallest camera of each component, in component order."""
        return np.unique(self._labels, return_index=True)[1]


class ViewGraph(_Connectivity):
    """n cameras plus undirected relative-rotation measurements, stored as arrays.

    `i_idx`, `j_idx` (E,) hold the edge endpoints, `rel` (E, 3, 3) the
    relative rotations, `hess` (E, 3, 3) the Hessians, and `has_hessian` (E,)
    which edges carry one; an edge without one has a zero `hess` row. All are
    read-only copies, so the edges cannot change after construction. `edges`
    is a read-only sequence of `EdgeMeasurement`.
    """

    def __init__(self, n: int, edges: Iterable[EdgeMeasurement] = ()):
        edges = list(edges)
        has_h = [e.hessian is not None for e in edges]
        rel = np.reshape([e.rel for e in edges], (-1, 3, 3))
        hess = np.reshape([np.zeros((3, 3)) if e.hessian is None else e.hessian for e in edges],
                          (-1, 3, 3))
        self._store(n, [e.i for e in edges], [e.j for e in edges], rel, hess, has_h)

    @classmethod
    def from_arrays(cls, n: int, i, j, rel, hess=None, has_hessian=None) -> ViewGraph:
        """Graph from edge arrays, checked by the stacked validator.

        `has_hessian` (E,) marks the rows of `hess` that are Hessians; by
        default all are, or none if `hess` is None. Raises RowError naming
        the first invalid edge. Rotations off SO(3) by at most
        OFF_MANIFOLD_TOL are re-projected, here and in `ViewGraph(n, edges)`.
        """
        g = cls.__new__(cls)
        g._store(n, i, j, rel, hess, has_hessian)
        return g

    def _store(self, n, i, j, rel, hess, has_h):
        check_count(n, "number of cameras n", minimum=0)
        self.n, self.i_idx, self.j_idx = n, _endpoints(i), _endpoints(j)
        self.rel = np.array(rel, dtype=float)
        self.hess = np.zeros((len(self.i_idx), 3, 3)) if hess is None else np.array(hess, dtype=float)
        has_h = np.full(len(self.i_idx), hess is not None) if has_h is None else has_h
        self.has_hessian = np.array(has_h, dtype=bool)
        arrays = [self.i_idx, self.j_idx, self.rel, self.has_hessian, self.hess]
        if len({len(a) for a in arrays}) > 1:
            raise ValueError(f"edge arrays disagree in length: {[len(a) for a in arrays]}")
        if hess is None and self.has_hessian.any():
            k = int(np.argmax(self.has_hessian))
            at = f"edge ({self.i_idx[k]},{self.j_idx[k]})"
            raise RowError(k, at + " is marked as having a Hessian, but hess is None")
        self.hess[~self.has_hessian] = 0.0
        _reproject(self.rel, _check_edges(self.i_idx, self.j_idx, self.rel, self.hess, n))
        for a in arrays:
            a.flags.writeable = False

    def _edge(self, k: int) -> EdgeMeasurement:
        """Edge k as an EdgeMeasurement, built without re-running the checks."""
        e = object.__new__(EdgeMeasurement)
        hessian = self.hess[k] if self.has_hessian[k] else None
        e.__dict__.update(i=int(self.i_idx[k]), j=int(self.j_idx[k]), rel=self.rel[k], hessian=hessian)
        return e

    @property
    def edges(self) -> Sequence[EdgeMeasurement]:
        return _EdgeList(self)

    @property
    def has_hessians(self) -> bool:
        return bool(self.has_hessian.all())

    def hessian_stack(self) -> np.ndarray:
        """(E, 3, 3) edge Hessians (the stored, read-only array).

        Raises:
            ValueError: naming the first edge that carries no Hessian.
        """
        if not self.has_hessians:
            k = np.argmin(self.has_hessian)
            raise ValueError(
                f"aniso mode requires a Hessian on every edge; edge "
                f"({self.i_idx[k]},{self.j_idx[k]}) has none"
            )
        return self.hess


def anisotropic_weight(h: np.ndarray) -> np.ndarray:
    """Map an edge Hessian to its chordal weight 0.5*tr(h)*I - h.

    Works on one 3x3 matrix or a stack over leading axes.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 Hessian, got {h.shape}")
    skew = h - np.swapaxes(h, -1, -2)  # the rule of _check_edges: |skew|_F <= SYMMETRY_TOL
    if np.any(np.einsum("...ab,...ab->...", skew, skew) > SYMMETRY_TOL**2):
        raise ValueError("Hessian not symmetric within tolerance")
    return 0.5 * np.trace(h, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - h


def clamp_psd(h: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues at 1e-9*tr(h)/3 so Cholesky downstream succeeds.

    Works on one 3x3 matrix or a stack over leading axes. A matrix whose
    smallest eigenvalue already clears the floor is returned unchanged
    (symmetrized). A finite Cholesky factor of h - 2*floor*I, whose rounding is
    a few ulps of tr(h), certifies that for the whole stack without eigh.
    """
    h = np.asarray(h, dtype=float)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    floor = 1e-9 * np.maximum(np.trace(h, axis1=-2, axis2=-1), 0.0) / 3.0
    with np.errstate(invalid="ignore"):  # an infinite diagonal gives inf - inf: no certificate
        shifted = h - 2.0 * floor[..., None, None] * np.eye(3)
    with contextlib.suppress(np.linalg.LinAlgError):  # nor a NaN factor: OpenBLAS passes NaN pivots
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return h
    w, v = np.linalg.eigh(h)
    clamped = (v * np.maximum(w, floor[..., None])[..., None, :]) @ np.swapaxes(v, -1, -2)
    return np.where((w[..., 0] >= floor)[..., None, None], h, clamped)


class ConnectionBlocks(_Connectivity):
    """Sparse storage of the symmetric block matrix of the rewritten objective.

    For each canonical edge (i < j) the lower block N_ji = M_ij R_ij is
    stored; the upper block N_ij is its transpose. Diagonal blocks are zero.
    """

    def __init__(self, n: int, i_idx: np.ndarray, j_idx: np.ndarray, lower: np.ndarray):
        self.n = n
        self.i_idx = np.asarray(i_idx, dtype=np.intp)
        self.j_idx = np.asarray(j_idx, dtype=np.intp)
        self.lower = np.asarray(lower, dtype=float)  # (E, 3, 3), entry e = N_{j_e, i_e}
        self._tables = None

    @property
    def num_edges(self) -> int:
        return len(self.i_idx)

    def neighbor_tables(self):
        """Per-vertex gathered coefficients for the coordinate update, cached.

        Returns (indices, coeffs): per vertex k, its neighbors m and the (3, 3*deg) matrix
        of the blocks N_{m,k}^T side by side, in edge order, so that k's update target is
        coeffs[k] @ vstack(R[indices[k]]). coeffs[k] is C-contiguous, or F-contiguous if k
        is the j end of no edge (np.hstack's layout); the product's BLAS rounding follows it.
        """
        if self._tables is not None:
            return self._tables
        n, num = self.n, self.num_edges
        # G_k = sum_m N_{m,k}^T R_m: N_{j,i}^T at vertex i, N_{i,j}^T = N_{j,i} at vertex j.
        vert = np.concatenate([self.i_idx, self.j_idx])
        order = np.argsort(vert * num + np.concatenate([np.arange(num)] * 2))  # unique keys
        nbrs = np.concatenate([self.j_idx, self.i_idx])
        rows = np.concatenate([np.swapaxes(self.lower, 1, 2), self.lower]).reshape(-1, 3)
        deg = np.bincount(vert, minlength=n)
        start = np.cumsum(deg) - deg
        fortran = np.bincount(self.j_idx, minlength=n) == 0
        # One gather per degree and layout; `at` holds each vertex's entries in edge order.
        group_key = 2 * deg + fortran
        by_key = np.argsort(group_key, kind="stable")
        indices, coeffs = [None] * n, [None] * n
        for vs in np.split(by_key, np.flatnonzero(np.diff(group_key[by_key])) + 1) if n else []:
            at = order[start[vs][:, None] + np.arange(deg[vs[0]])]
            if fortran[vs[0]]:  # every block is N_{j,k}^T: F order holds the lower blocks
                group = [c.T for c in self.lower.take(at, axis=0).reshape(len(vs), -1, 3)]
            else:  # row a of coeffs[k] is row a of each block
                group = rows.take(3 * at[:, None] + np.arange(3)[:, None], axis=0)
                group = group.reshape(len(vs), 3, -1)
            for k, nbr, c in zip(vs.tolist(), nbrs[at], group):
                indices[k], coeffs[k] = nbr, c
        self._tables = (indices, coeffs)
        return self._tables


def assemble_blocks(g: ViewGraph, mode: str = "aniso") -> ConnectionBlocks:
    """Build the connection blocks for the graph.

    In "iso" mode Hessians are ignored and the weight is the identity; in
    "aniso" mode every edge must carry a Hessian.
    """
    if mode not in ("iso", "aniso"):
        raise ValueError(f"unknown mode {mode!r}")
    lower = anisotropic_weight(g.hessian_stack()) @ g.rel if mode == "aniso" else g.rel
    return ConnectionBlocks(g.n, g.i_idx, g.j_idx, lower)


def spanning_tree(g: ViewGraph) -> tuple[list[EdgeMeasurement], int]:
    """Minimum spanning forest (one tree per connected component), rooted at vertex 0.

    Edge weight is -tr(H) when every edge has a Hessian (most-certain edges
    first), otherwise uniform. Ties break on (i, j) lexicographic order, so
    the forest is deterministic.
    """
    from scipy.sparse import coo_matrix, csgraph

    key = -np.trace(g.hess, axis1=1, axis2=2) if g.has_hessians else 1.0
    order = np.lexsort((g.j_idx, g.i_idx, np.broadcast_to(key, g.i_idx.shape)))
    # Weighted by rank in that order, all weights differ: the minimum spanning
    # tree is unique and is the one Kruskal's algorithm takes in that order.
    rank = np.argsort(order) + 1.0
    mst = csgraph.minimum_spanning_tree(coo_matrix((rank, (g.i_idx, g.j_idx)), shape=(g.n, g.n)))
    return [g._edge(e) for e in order[np.sort(mst.data).astype(np.intp) - 1].tolist()], 0


def chain_init(g: ViewGraph, tree: tuple[list[EdgeMeasurement], int]) -> np.ndarray:
    """Propagate rotations exactly along the edges of a spanning forest.

    A chain starts at the root and at the smallest camera of each component
    without the root; each start gets the identity, and each child satisfies
    its tree measurement exactly (R_j = R_ij R_i in edge orientation, the
    transpose against it).
    """
    from scipy.sparse import coo_matrix, csgraph

    edges, root = tree
    n = g.n
    # A virtual camera n, joined by identity edges to every start, makes the forest one
    # tree, so one search reaches every chain.
    starts = [root] + np.delete(g.smallest_cameras(), g._labels[root]).tolist() if n else []
    rel = {(e.i, e.j): e.rel for e in edges} | {(s, n): np.eye(3) for s in starts}
    ij = np.array(list(rel), dtype=np.intp).reshape(-1, 2)
    adjacency = coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n + 1, n + 1))
    order, parent = csgraph.breadth_first_order(adjacency, n, directed=False)
    if len(order) != n + 1:
        raise ValueError("tree does not span the graph")
    stack = np.zeros((n + 1, 3, 3))
    stack[n] = np.eye(3)
    for w, v in zip(order[1:].tolist(), parent[order[1:]].tolist()):
        stack[w] = rel[v, w] @ stack[v] if v < w else rel[w, v].T @ stack[v]
    return stack[:n]


def save_view_graph(g: ViewGraph, path) -> None:
    """Write the text format: VGRAPH header plus one EDGE line per edge."""
    plain = "EDGE %d %d " + _MATRIX_FMT
    with_h = plain + " H " + _MATRIX_FMT
    rows = zip(g.i_idx.tolist(), g.j_idx.tolist(), g.rel.reshape(-1, 9).tolist(),
               g.hess.reshape(-1, 9).tolist(), g.has_hessian)
    lines = [with_h % (i, j, *r, *h) if has else plain % (i, j, *r) for i, j, r, h, has in rows]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join([f"VGRAPH 1 {g.n}"] + lines) + "\n")


def _records(path):
    """(line number, tokens) of each line with content, comments stripped."""
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            tok = raw.split("#", 1)[0].split()
            if tok:
                yield lineno, tok


def _check_rotations(m: np.ndarray) -> None:
    """Raise RowError on the first row of a loaded (K, 3, 3) stack off SO(3) beyond
    OFF_MANIFOLD_TOL; re-project the other rows in place."""
    defect = so3.rotation_defect(m)
    ok = defect <= OFF_MANIFOLD_TOL
    if not ok.all():
        k = int(np.argmin(ok))
        raise RowError(k, "rotation off SO(3): entry not finite" if not np.isfinite(m[k]).all() else
                       f"rotation off SO(3) beyond {OFF_MANIFOLD_TOL:g} (defect {defect[k]:.3g})")
    _reproject(m, defect)


def _raise_first(faults: list[tuple[int, str]]) -> None:
    """Raise the (line number, message) fault on the earliest line, if any."""
    if faults:
        raise GraphFormatError("line %d: %s" % min(faults))


def load_view_graph(path) -> ViewGraph:
    """Parse the text format written by save_view_graph.

    Rotations off SO(3) by <= 1e-6 are re-projected; beyond that the file is
    rejected. All edges are checked at once; an error names the first bad
    line in file order.
    """
    n, ids, vals, has_h, lines, faults = None, [], array("d"), [], [], []
    for lineno, tok in _records(path):
        try:
            if tok[0] == "EDGE":
                if n is None:
                    raise GraphFormatError("EDGE before VGRAPH header")
                if len(tok) not in (12, 22) or (len(tok) == 22 and tok[12] != "H"):
                    raise GraphFormatError("malformed EDGE line")
                i, j = int(tok[1]), int(tok[2])
                if not (0 <= i < n and 0 <= j < n):
                    raise GraphFormatError(f"edge ({i},{j}) outside vertex range [0,{n})")
                vals.extend(map(float, tok[3:12] + (tok[13:] or ["0"] * 9)))
                ids.append((i, j))
                has_h.append(len(tok) == 22)
                lines.append(lineno)
            elif tok[0] == "VGRAPH":
                if len(tok) != 3 or tok[1] != "1":
                    raise GraphFormatError("bad VGRAPH header")
                if n is not None:
                    raise GraphFormatError("second VGRAPH header")
                count = int(tok[2])
                if count < 1:
                    raise GraphFormatError(f"camera count {count} is not positive")
                n = count
            else:
                raise GraphFormatError(f"unknown record {tok[0]!r}")
        except ValueError as exc:
            faults.append((lineno, str(exc)))
            break
    if n is None:
        _raise_first(faults)
        raise GraphFormatError("missing VGRAPH header")
    vals = np.frombuffer(vals, count=18 * len(lines)).reshape(-1, 18)  # drops a half-parsed row
    ids = np.reshape(ids, (-1, 2))
    rel, hess = vals[:, :9].reshape(-1, 3, 3), vals[:, 9:].reshape(-1, 3, 3)
    try:
        g = ViewGraph.from_arrays(n, ids[:, 0], ids[:, 1], rel, hess, has_h)
    except RowError as exc:
        faults.append((lines[exc.index], str(exc)))
    _raise_first(faults)
    return g


def save_rotations(stack: np.ndarray, path) -> None:
    """Write absolute rotations, one ROT line per camera."""
    rows = np.asarray(stack, dtype=float).reshape(-1, 9).tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(("ROT %d " + _MATRIX_FMT) % (i, *r) + "\n" for i, r in enumerate(rows))


def write_csv(path, header: str, *columns) -> None:
    """Write `header`, then row k (from 1) as k and the k-th entry of each column in .17g."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines(",".join([str(k), *(format(v, ".17g") for v in row)]) + "\n"
                     for k, row in enumerate(zip(*columns, strict=True), start=1))


def load_rotations(path) -> np.ndarray:
    """Read a rotation file into an (n, 3, 3) stack; ids must cover 0..n-1."""
    ids, vals, lines, faults = {}, array("d"), [], []
    for lineno, tok in _records(path):
        try:
            if tok[0] != "ROT" or len(tok) != 11:
                raise GraphFormatError("malformed ROT line")
            i = int(tok[1])
            vals.extend(map(float, tok[2:11]))
            if i < 0 or i in ids:
                raise GraphFormatError(f"{'negative' if i < 0 else 'duplicate'} camera id {i}")
        except ValueError as exc:
            faults.append((lineno, str(exc)))
            break
        ids[i] = len(lines)
        lines.append(lineno)
    rot = np.frombuffer(vals, count=9 * len(lines)).reshape(-1, 3, 3)  # drops a half-parsed row
    try:
        _check_rotations(rot)
    except RowError as exc:
        faults.append((lines[exc.index], str(exc)))
    _raise_first(faults)
    if not ids:
        raise GraphFormatError("empty rotation file")
    missing = sorted(set(range(max(ids) + 1)) - set(ids))
    if missing:
        raise GraphFormatError(f"missing camera ids {missing}")
    return rot[[ids[i] for i in range(len(ids))]]
