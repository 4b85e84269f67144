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
import numbers
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
# Edges per block of a streamed per-edge computation (`edge_blocks`): its temporaries
# take O(EDGE_BLOCK) memory, and only the arrays it fills grow with the edge count.
# The loaders convert, and the writer writes, EDGE_BLOCK rows at a time.
# A (1024, 3, 3) temporary is 72 KiB. With 4096-edge blocks, the solves of the
# benchmark's 5000-edge workloads took 8-10x the minor page faults they take with 1024.
EDGE_BLOCK = 1024
MODES = ("iso", "aniso")  # edge precision: the identity, or the edge's Hessian


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
    """Raise ValueError unless `value` is an integer >= minimum; numpy integers pass, bools fail."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= minimum
    except TypeError:  # 2.5, nan, "3"
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(value, name: str, ok, must: str) -> None:
    """Raise ValueError unless `value` is a real number, not a bool, for which `ok(value)`
    holds; numpy scalars pass, and NaN fails every comparison."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ValueError(f"{name} must be {must}, got {value!r}")


def check_choice(value, name: str, choices: tuple) -> None:
    """Raise ValueError unless `value` is a str in `choices`."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {name} {value!r}")


def edge_blocks(count: int):
    """Slices of consecutive edges that cover range(count), in order: EDGE_BLOCK edges
    each, but the last takes a remainder of less than EDGE_BLOCK / 2 as well. So a
    graph of up to 1.5 EDGE_BLOCK edges is one block and pays no per-block calls."""
    blocks = max(1, (count + EDGE_BLOCK // 2) // EDGE_BLOCK)  # count / EDGE_BLOCK, rounded
    bounds = [k * EDGE_BLOCK for k in range(blocks)] + [count]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def blockwise(count: int, kernel, shape: tuple = ()) -> np.ndarray:
    """kernel(e) for each slice e of `edge_blocks(count)`, stacked into one (count, *shape)
    array; a lone block's result is returned as it is, without a copy."""
    blocks = edge_blocks(count)
    if len(blocks) == 1:
        return kernel(blocks[0])
    out = np.empty((count,) + shape)
    for e in blocks:
        out[e] = kernel(e)
    return out


def _endpoints(x, copy: bool = True) -> np.ndarray:
    x = np.asarray(x).reshape(-1)
    if x.size and x.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, got dtype {x.dtype}")
    return x.astype(np.intp) if copy else np.ascontiguousarray(x, dtype=np.intp)


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

    The checks run over `edge_blocks`, in order, so the first block with a
    fault holds the earliest failing edge; only the duplicate mask, on the
    integer endpoints, is formed for all edges at once.
    """
    rel_shape, h_shape, defect, at = rel.shape[1:], hess.shape[1:], None, "edge ({i},{j})"
    if n is not None:
        defect = np.full(len(i), np.inf) if rel_shape != (3, 3) else np.empty(len(i))
        repeat = _repeats(i, j)
    for e in edge_blocks(len(i)):
        ib, jb, every = i[e], j[e], np.ones(len(i[e]), dtype=bool)
        checks = [(ib == jb, "self-edge at vertex {i}"), (ib > jb, at + " not in canonical i<j order")]
        if rel_shape != (3, 3):
            checks.append((every, at + ": relative rotation has shape {rel}, expected (3, 3)"))
        else:
            checks.append((~np.isfinite(rel[e]).all(axis=(1, 2)), at + ": relative rotation not finite"))
        if h_shape != (3, 3):
            checks.append((every, at + ": Hessian has shape {hess}, expected (3, 3)"))
        else:
            finite = np.isfinite(hess[e]).all(axis=(1, 2))
            h = hess[e] if finite.all() else np.where(finite[:, None, None], hess[e], 0.0)  # no inf - inf
            skew = h - np.swapaxes(h, 1, 2)
            checks += [
                (~finite, at + ": Hessian not finite"),
                (np.einsum("eab,eab->e", skew, skew) > SYMMETRY_TOL**2, at + ": Hessian not symmetric"),
                (_not_psd(h), at + ": Hessian not PSD"),
            ]
        if n is not None:
            if rel_shape == (3, 3):
                defect[e] = so3.rotation_defect(rel[e])
            outside = (ib < 0) | (ib >= n) | (jb < 0) | (jb >= n)
            off = f": relative rotation off SO(3) beyond {OFF_MANIFOLD_TOL:g} (defect {{defect:.3g}})"
            checks.append((~(defect[e] <= OFF_MANIFOLD_TOL), at + off))  # NaN fails too
            checks.append((outside, at + " outside vertex range [0,{n})"))
            checks.append((repeat[e], "duplicate " + at))
        bad = np.array([mask for mask, _ in checks]).reshape(len(checks), len(ib))
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            message = checks[int(np.argmax(bad[:, k]))][1]
            raise RowError(e.start + k, message.format(
                i=ib[k], j=jb[k], n=n, rel=rel_shape, hess=h_shape,
                defect=None if defect is None else defect[e][k]))
    return defect


def _repeats(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Mask of the edges whose (i, j) an earlier edge has."""
    order = np.lexsort((j, i))  # stable: a repeat sorts after its first occurrence
    repeat = np.zeros(len(i), dtype=bool)
    repeat[order[1:]] = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
    return repeat


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

    @classmethod
    def _adopt(cls, n: int, i, j, rel, hess=None, has_hessian=None) -> ViewGraph:
        """`from_arrays` for arrays the caller hands over and never uses again:
        those already C-contiguous in the stored dtype are kept, not copied,
        and may be re-projected in place and made read-only."""
        g = cls.__new__(cls)
        g._store(n, i, j, rel, hess, has_hessian, copy=False)
        return g

    def _store(self, n, i, j, rel, hess, has_h, copy=True):
        check_count(n, "number of cameras n", minimum=0)
        own = np.array if copy else np.ascontiguousarray
        self.n, self.i_idx, self.j_idx = n, _endpoints(i, copy), _endpoints(j, copy)
        self.rel = own(rel, dtype=float)
        self.hess = np.zeros((len(self.i_idx), 3, 3)) if hess is None else own(hess, dtype=float)
        has_h = np.full(len(self.i_idx), hess is not None) if has_h is None else has_h
        self.has_hessian = own(has_h, dtype=bool)
        arrays = [self.i_idx, self.j_idx, self.rel, self.has_hessian, self.hess]
        if len({len(a) for a in arrays}) > 1:
            raise ValueError(f"edge arrays disagree in length: {[len(a) for a in arrays]}")
        if hess is None and self.has_hessian.any():
            k = int(np.argmax(self.has_hessian))
            at = f"edge ({self.i_idx[k]},{self.j_idx[k]})"
            raise RowError(k, at + " is marked as having a Hessian, but hess is None")
        if not self.has_hessian.all():
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


def _chordal_weight(h: np.ndarray) -> np.ndarray:
    """The chordal weight 0.5*tr(h)*I - h of edge Hessians over leading axes; unchecked,
    as every graph's Hessians passed `_check_edges`, symmetry included."""
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
        coeffs[k] @ vstack(R[indices[k]]).

        The first call builds the tables (views of two edge-sized arrays, about 160 B per
        edge) and these blocks keep them, so that `solver.coordinate_update` gathers in
        O(degree). `solver.acd_solve` releases them with `drop_neighbor_tables` while it
        takes Newton steps, which never read them; the next call builds the same tables again.
        """
        if self._tables is not None:
            return self._tables
        from scipy.sparse import csc_matrix

        n, num = self.n, self.num_edges
        # G_k = sum_m N_{m,k}^T R_m: N_{j,i} = lower at vertex i, N_{i,j} = lower^T at vertex j.
        # Entry t < num is edge t at its i end, entry num + t edge t at its j end. Listed edge
        # by edge as the columns of a CSC matrix, the entries' CSR conversion counts them out
        # by vertex in edge order, without a sort; `at[t]` is entry t's place in that order.
        by_vertex = csc_matrix((np.arange(2 * num).reshape(2, num).T.ravel(),
                                np.stack([self.i_idx, self.j_idx], axis=1).ravel(),
                                np.arange(0, 2 * num + 1, 2)), shape=(n, num)).tocsr()
        at = np.empty(2 * num, dtype=np.intp)
        at[by_vertex.data] = np.arange(2 * num)
        ends, blocks = np.empty(2 * num, dtype=np.intp), np.empty((2 * num, 3, 3))
        for e in edge_blocks(num):
            i_end, j_end = at[e], at[num:][e]
            ends[i_end], ends[j_end] = self.j_idx[e], self.i_idx[e]
            blocks[i_end], blocks[j_end] = self.lower[e], np.swapaxes(self.lower[e], 1, 2)
        # Each table is a view: vertex k's entries are s:e of that order.
        bounds, rows = by_vertex.indptr.tolist(), blocks.reshape(-1, 3)
        self._tables = ([ends[s:e] for s, e in zip(bounds, bounds[1:])],
                        [rows[3 * s:3 * e].T for s, e in zip(bounds, bounds[1:])])
        return self._tables

    def drop_neighbor_tables(self) -> None:
        """Release the cached `neighbor_tables`; their holders' references keep them alive."""
        self._tables = None


def assemble_blocks(g: ViewGraph, mode: str = "aniso") -> ConnectionBlocks:
    """Build the connection blocks for the graph.

    In "iso" mode Hessians are ignored and the weight is the identity; in
    "aniso" mode every edge must carry a Hessian.
    """
    check_choice(mode, "mode", MODES)
    if mode == "iso":
        return ConnectionBlocks(g.n, g.i_idx, g.j_idx, g.rel)
    h = g.hessian_stack()  # symmetric: the graph's validator checked it
    lower = blockwise(len(h), lambda e: _chordal_weight(h[e]) @ g.rel[e], (3, 3))
    return ConnectionBlocks(g.n, g.i_idx, g.j_idx, lower)


def spanning_tree(g: ViewGraph) -> np.ndarray:
    """Minimum spanning forest (one tree per connected component), as edge ids of `g`.

    Edge weight is -tr(H) when every edge has a Hessian (most-certain edges
    first), otherwise uniform. Ties break on (i, j) lexicographic order, so
    the forest is deterministic; the ids are listed in that (Kruskal) order.
    """
    from scipy.sparse import coo_matrix, csgraph

    key = -np.trace(g.hess, axis1=1, axis2=2) if g.has_hessians else 1.0
    order = np.lexsort((g.j_idx, g.i_idx, np.broadcast_to(key, g.i_idx.shape)))
    # Weighted by rank in that order, all weights differ: the minimum spanning
    # tree is unique and is the one Kruskal's algorithm takes in that order.
    rank = np.argsort(order) + 1.0
    mst = csgraph.minimum_spanning_tree(coo_matrix((rank, (g.i_idx, g.j_idx)), shape=(g.n, g.n)))
    return order[np.sort(mst.data).astype(np.intp) - 1]


def chain_init(g: ViewGraph, tree: np.ndarray) -> np.ndarray:
    """Propagate rotations exactly along a spanning forest, given as edge ids of `g`.

    A chain starts with the identity at each camera of `g.smallest_cameras()`,
    the cameras the normal equations pin; each child satisfies its tree
    measurement exactly (R_j = R_ij R_i in edge orientation, the transpose
    against it). Raises ValueError if the edges miss a camera or number more
    than n - #components.
    """
    from scipy.sparse import coo_matrix, csgraph

    n, starts = g.n, g.smallest_cameras()
    i, j = g.i_idx[tree], g.j_idx[tree]
    # A virtual camera n, joined to every start, makes the forest one tree for one search.
    rows, cols = np.concatenate([i, starts]), np.concatenate([j, np.full(len(starts), n)])
    adjacency = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
    order, parent = csgraph.breadth_first_order(adjacency, n, directed=False)
    if len(order) != n + 1 or len(tree) > n - len(starts):
        raise ValueError(f"tree of {len(tree)} edges does not span the graph as a forest of "
                         f"{n - len(starts)} edges")
    edge = np.zeros(n, dtype=np.intp)  # the tree edge that reaches each camera but a start
    edge[np.where(parent[j] == i, j, i)] = tree
    walk = order[1 + len(starts):]  # the search visits the starts first, right after n
    stack = np.tile(np.eye(3), (n, 1, 1))
    for w, v, e in zip(walk.tolist(), parent[walk].tolist(), edge[walk].tolist()):
        stack[w] = g.rel[e] @ stack[v] if v < w else g.rel[e].T @ stack[v]
    return stack


def save_view_graph(g: ViewGraph, path) -> None:
    """Write the text format: VGRAPH header plus one EDGE line per edge.

    Lines are formatted and written EDGE_BLOCK at a time, so the memory the
    writer takes beyond the graph does not grow with the edge count. A graph of
    0 cameras raises ValueError: the format's camera count must be positive.
    """
    if g.n < 1:
        raise ValueError(f"cannot save a view graph of {g.n} cameras: "
                         "the VGRAPH header needs a positive camera count")
    plain = "EDGE %d %d " + _MATRIX_FMT
    with_h = plain + " H " + _MATRIX_FMT
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"VGRAPH 1 {g.n}\n")
        for start in range(0, len(g.i_idx), EDGE_BLOCK):
            b = slice(start, start + EDGE_BLOCK)
            rows = zip(g.i_idx[b].tolist(), g.j_idx[b].tolist(), g.rel[b].reshape(-1, 9).tolist(),
                       g.hess[b].reshape(-1, 9).tolist(), g.has_hessian[b].tolist())
            f.write("".join([(with_h % (i, j, *r, *h) if has else plain % (i, j, *r)) + "\n"
                             for i, j, r, h, has in rows]))


def _records(path):
    """(line number, tokens) of each line with content, comments stripped."""
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            tok = raw.partition("#")[0].split()
            if tok:
                yield lineno, tok


def _read_rows(path, parse, width: int):
    """Check each line of a text file with `parse` and convert its numbers a block at a time.

    `parse(tok)` checks one line's tokens and returns (key, its `width` number
    tokens) for a row, or None for a line without numbers; it raises ValueError
    on a fault. The key is what the caller keeps of the row besides its numbers.
    The numbers of EDGE_BLOCK rows are converted by one np.array call, which
    accepts and refuses the strings float() does, with the same message.
    Reading stops at the first fault: a line's, or a refused number's, whose
    line is found by converting that block one token at a time; rows from that
    line on are dropped. Returns, for the rows before the fault, their numbers
    as a flat array("d"), their line numbers as an array("q") and their keys as
    a list, and the faults: [] or [(line number, message)].
    """
    vals, lines, keys, faults, block, block_lines = array("d"), array("q"), [], [], [], []

    def convert() -> bool:
        """Move the block's rows before its first refused number into vals; False if one was refused."""
        try:
            numbers = np.array(block, dtype=float)
        except ValueError:
            for k, t in enumerate(block):
                try:
                    float(t)
                except ValueError as exc:
                    faults.append((block_lines[k // width], str(exc)))
                    break
            else:
                raise
            del block[k - k % width:], block_lines[k // width:]
            numbers = np.array(block, dtype=float)
        vals.frombytes(numbers.tobytes())
        lines.extend(block_lines)
        block.clear()
        block_lines.clear()
        return not faults

    for lineno, tok in _records(path):
        try:
            row = parse(tok)
        except ValueError as exc:
            faults.append((lineno, str(exc)))
            break
        if row is not None:
            keys.append(row[0])
            block += row[1]
            block_lines.append(lineno)
            if len(block_lines) == EDGE_BLOCK and not convert():
                break
    convert()  # the rows before a line fault; a number refused there is on an earlier line
    del keys[len(lines):]  # rows from a refused number's line on
    return vals, lines, keys, faults


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

    Each line's structure is checked as it is read (header, record tag, token
    count, integer ids, vertex range); the numbers are converted once per block
    of EDGE_BLOCK edges (`_read_rows`). Rotations off SO(3) by <= 1e-6 are
    re-projected; beyond that the file is rejected. All edges are checked at
    once; an error names the first bad line in file order.
    """
    n = None

    def parse(tok):
        nonlocal n
        if tok[0] == "EDGE":
            if n is None:
                raise GraphFormatError("EDGE before VGRAPH header")
            if len(tok) not in (12, 22) or (len(tok) == 22 and tok[12] != "H"):
                raise GraphFormatError("malformed EDGE line")
            i, j = int(tok[1]), int(tok[2])
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i},{j}) outside vertex range [0,{n})")
            return (i, j, len(tok) == 22), tok[3:12] + (tok[13:] or ["0"] * 9)
        if tok[0] == "VGRAPH":
            if len(tok) != 3 or tok[1] != "1":
                raise GraphFormatError("bad VGRAPH header")
            if n is not None:
                raise GraphFormatError("second VGRAPH header")
            count = int(tok[2])
            if count < 1:
                raise GraphFormatError(f"camera count {count} is not positive")
            n = count
            return None
        raise GraphFormatError(f"unknown record {tok[0]!r}")

    vals, lines, keys, faults = _read_rows(path, parse, 18)
    if n is None:
        _raise_first(faults)
        raise GraphFormatError("missing VGRAPH header")
    vals = np.frombuffer(vals).reshape(-1, 18)
    keys = np.reshape(keys, (-1, 3))
    rel, hess = vals[:, :9].reshape(-1, 3, 3), vals[:, 9:].reshape(-1, 3, 3)
    try:
        g = ViewGraph._adopt(n, keys[:, 0], keys[:, 1], rel, hess, keys[:, 2])
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
    """Read a rotation file into an (n, 3, 3) stack; ids must cover 0..n-1.

    Lines are checked and converted as in load_view_graph, a block at a time.
    """
    seen = set()

    def parse(tok):
        if tok[0] != "ROT" or len(tok) != 11:
            raise GraphFormatError("malformed ROT line")
        i = int(tok[1])
        if i < 0 or i in seen:
            list(map(float, tok[2:11]))  # a refused number is this line's fault, not the id
            raise GraphFormatError(f"{'negative' if i < 0 else 'duplicate'} camera id {i}")
        seen.add(i)
        return i, tok[2:11]

    vals, lines, ids, faults = _read_rows(path, parse, 9)
    rot = np.frombuffer(vals).reshape(-1, 3, 3)
    try:
        _check_rotations(rot)
    except RowError as exc:
        faults.append((lines[exc.index], str(exc)))
    _raise_first(faults)
    if not ids:
        raise GraphFormatError("empty rotation file")
    missing = max(ids) + 1 - len(ids)  # parse keeps ids unique and >= 0
    if missing:  # the first five missing ids are below len(ids) + 5
        first = sorted(set(range(min(max(ids), len(ids) + 5))) - seen)[:5]
        more = f" and {missing - 5} more" if missing > 5 else ""
        raise GraphFormatError(f"missing camera ids {first}{more}")
    return rot[np.argsort(ids)]
