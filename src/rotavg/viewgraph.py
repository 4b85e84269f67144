"""View-graph data model: edges with optional Hessians, block assembly, trees, I/O.

Conventions: edges are stored canonically with i < j and relative rotation
R_ij such that R_ij ~ R_j R_i^T. An edge Hessian is a 3x3 symmetric PSD
matrix expressing the precision of a right-multiplicative perturbation of
the measured relative rotation (R_ij <- R_ij exp(delta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3

SYMMETRY_TOL = 1e-9
OFF_MANIFOLD_TOL = 1e-6
FLOAT_FMT = "%.17g"


class GraphFormatError(ValueError):
    """Malformed view-graph or rotation file."""


@dataclass(frozen=True)
class EdgeMeasurement:
    """One undirected measurement between cameras i < j."""

    i: int
    j: int
    rel: np.ndarray
    hessian: np.ndarray | None = None

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError(f"self-edge at vertex {self.i}")
        if self.i > self.j:
            raise ValueError(f"edge ({self.i},{self.j}) not in canonical i<j order")
        rel = np.asarray(self.rel, dtype=float)
        if rel.shape != (3, 3):
            raise ValueError(
                f"edge ({self.i},{self.j}): relative rotation has shape {rel.shape}, "
                "expected (3, 3)"
            )
        if not _all_finite(rel):
            raise ValueError(f"edge ({self.i},{self.j}): relative rotation not finite")
        if self.hessian is not None:
            h = np.asarray(self.hessian, dtype=float)
            if not _all_finite(h):
                raise ValueError(f"edge ({self.i},{self.j}): Hessian not finite")
            if np.linalg.norm(h - h.T) > SYMMETRY_TOL:
                raise ValueError(f"edge ({self.i},{self.j}): Hessian not symmetric")
            if np.linalg.eigvalsh(h).min() < -SYMMETRY_TOL:
                raise ValueError(f"edge ({self.i},{self.j}): Hessian not PSD")


def _all_finite(m: np.ndarray) -> bool:
    return all(map(math.isfinite, m.ravel().tolist()))


@dataclass
class ViewGraph:
    """n cameras plus undirected relative-rotation measurements.

    `i_idx` and `j_idx` hold the endpoints of `edges` as (E,) index arrays,
    built once at construction; the edge list is not to be changed afterwards.
    """

    n: int
    edges: list[EdgeMeasurement] = field(default_factory=list)
    i_idx: np.ndarray = field(init=False, repr=False, compare=False)
    j_idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if not (0 <= e.i < self.n and 0 <= e.j < self.n):
                raise ValueError(f"edge ({e.i},{e.j}) outside vertex range [0,{self.n})")
            if (e.i, e.j) in seen:
                raise ValueError(f"duplicate edge ({e.i},{e.j})")
            seen.add((e.i, e.j))
        self.i_idx = np.array([e.i for e in self.edges], dtype=np.intp)
        self.j_idx = np.array([e.j for e in self.edges], dtype=np.intp)

    @property
    def has_hessians(self) -> bool:
        return all(e.hessian is not None for e in self.edges)

    def rel_stack(self) -> np.ndarray:
        """(E, 3, 3) relative rotations, gathered from the edges on each call."""
        return np.array([e.rel for e in self.edges], dtype=float).reshape(-1, 3, 3)

    def hessian_stack(self) -> np.ndarray:
        """(E, 3, 3) edge Hessians, gathered from the edges on each call.

        Raises:
            ValueError: naming the first edge that carries no Hessian.
        """
        for e in self.edges:
            if e.hessian is None:
                raise ValueError(
                    f"aniso mode requires a Hessian on every edge; edge "
                    f"({e.i},{e.j}) has none"
                )
        return np.array([e.hessian for e in self.edges], dtype=float).reshape(-1, 3, 3)

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest member."""
        adj = [[] for _ in range(self.n)]
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1


def anisotropic_weight(h: np.ndarray) -> np.ndarray:
    """Map an edge Hessian to its chordal weight 0.5*tr(h)*I - h.

    Works on one 3x3 matrix or a stack over leading axes.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 Hessian, got {h.shape}")
    if np.any(np.linalg.norm(h - np.swapaxes(h, -1, -2), axis=(-2, -1)) > SYMMETRY_TOL):
        raise ValueError("Hessian not symmetric within tolerance")
    return 0.5 * np.trace(h, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) - h


def clamp_psd(h: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues at 1e-9*tr(h)/3 so Cholesky downstream succeeds.

    Works on one 3x3 matrix or a stack over leading axes. A matrix whose
    smallest eigenvalue already clears the floor is returned unchanged
    (symmetrized).
    """
    h = np.asarray(h, dtype=float)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    floor = 1e-9 * np.maximum(np.trace(h, axis1=-2, axis2=-1), 0.0) / 3.0
    w, v = np.linalg.eigh(h)
    clamped = (v * np.maximum(w, floor[..., None])[..., None, :]) @ np.swapaxes(v, -1, -2)
    return np.where((w[..., 0] >= floor)[..., None, None], h, clamped)


class ConnectionBlocks:
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

    def block(self, row: int, col: int) -> np.ndarray:
        """Directed block N_{row,col}; zero for non-edges and the diagonal."""
        for e in range(self.num_edges):
            if self.i_idx[e] == col and self.j_idx[e] == row:
                return self.lower[e].copy()
            if self.i_idx[e] == row and self.j_idx[e] == col:
                return self.lower[e].T.copy()
        return np.zeros((3, 3))

    def neighbor_tables(self):
        """Per-vertex gathered coefficients for the coordinate update.

        Returns (indices, coeffs) where coeffs[k] is a (3, 3*deg) matrix such
        that the update target for vertex k is coeffs[k] @ vstack(R[indices[k]]).
        Cached after the first call.
        """
        if self._tables is not None:
            return self._tables
        nbrs = [[] for _ in range(self.n)]
        mats = [[] for _ in range(self.n)]
        for e in range(self.num_edges):
            i, j = int(self.i_idx[e]), int(self.j_idx[e])
            low = self.lower[e]  # N_ji
            # G_k = sum_m N_{m,k}^T R_m
            nbrs[i].append(j)
            mats[i].append(low.T)  # N_{j,i}^T
            nbrs[j].append(i)
            mats[j].append(low)  # N_{i,j}^T = (N_ji^T)^T = N_ji
        indices = [np.asarray(v, dtype=np.intp) for v in nbrs]
        coeffs = [
            np.hstack(m) if m else np.zeros((3, 0)) for m in mats
        ]  # (3, 3*deg)
        self._tables = (indices, coeffs)
        return self._tables


def assemble_blocks(g: ViewGraph, mode: str = "aniso") -> ConnectionBlocks:
    """Build the connection blocks for the graph.

    In "iso" mode Hessians are ignored and the weight is the identity; in
    "aniso" mode every edge must carry a Hessian.
    """
    if mode not in ("iso", "aniso"):
        raise ValueError(f"unknown mode {mode!r}")
    rel = g.rel_stack()
    lower = anisotropic_weight(g.hessian_stack()) @ rel if mode == "aniso" else rel
    return ConnectionBlocks(g.n, g.i_idx, g.j_idx, lower)


def spanning_tree(g: ViewGraph) -> tuple[list[EdgeMeasurement], int]:
    """Minimum spanning tree rooted at vertex 0.

    Edge weight is -tr(H) when every edge has a Hessian (most-certain edges
    first), otherwise uniform. Ties break on (i, j) lexicographic order, so
    the tree is deterministic.
    """
    comps = g.components()
    if len(comps) != 1:
        sizes = [len(c) for c in comps]
        raise ValueError(f"graph is disconnected: component sizes {sizes}")
    use_trace = g.has_hessians
    ranked = sorted(
        g.edges,
        key=lambda e: ((-np.trace(e.hessian) if use_trace else 1.0), e.i, e.j),
    )
    # Kruskal with union-find.
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in ranked:
        ri, rj = find(e.i), find(e.j)
        if ri != rj:
            parent[ri] = rj
            tree.append(e)
            if len(tree) == g.n - 1:
                break
    return tree, 0


def chain_init(g: ViewGraph, tree: tuple[list[EdgeMeasurement], int]) -> np.ndarray:
    """Propagate rotations exactly along tree edges from the root.

    The root gets the identity; each child satisfies its tree measurement
    exactly (R_j = R_ij R_i in edge orientation, the transpose against it).
    """
    edges, root = tree
    adj: dict[int, list[tuple[int, EdgeMeasurement]]] = {v: [] for v in range(g.n)}
    for e in edges:
        adj[e.i].append((e.j, e))
        adj[e.j].append((e.i, e))
    stack = np.zeros((g.n, 3, 3))
    stack[root] = np.eye(3)
    todo = [root]
    visited = {root}
    while todo:
        v = todo.pop()
        for w, e in adj[v]:
            if w in visited:
                continue
            visited.add(w)
            if e.i == v:  # forward: R_j = R_ij R_i
                stack[w] = e.rel @ stack[v]
            else:  # backward: R_i = R_ij^T R_j
                stack[w] = e.rel.T @ stack[v]
            todo.append(w)
    if len(visited) != g.n:
        raise ValueError("tree does not span the graph")
    return stack


def _fmt(values) -> str:
    return " ".join(FLOAT_FMT % v for v in values)


def save_view_graph(g: ViewGraph, path) -> None:
    """Write the text format: VGRAPH header plus one EDGE line per edge."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"VGRAPH 1 {g.n}\n")
        for e in g.edges:
            line = f"EDGE {e.i} {e.j} {_fmt(e.rel.ravel())}"
            if e.hessian is not None:
                line += f" H {_fmt(np.asarray(e.hessian).ravel())}"
            f.write(line + "\n")


def load_view_graph(path) -> ViewGraph:
    """Parse the text format written by save_view_graph.

    Rotations off SO(3) by <= 1e-6 are re-projected; beyond that the file is
    rejected. Errors carry the offending line number.
    """
    n = None
    edges = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "VGRAPH":
                    if len(tok) != 3 or tok[1] != "1":
                        raise GraphFormatError(f"line {lineno}: bad VGRAPH header")
                    if n is not None:
                        raise GraphFormatError(f"line {lineno}: second VGRAPH header")
                    n = int(tok[2])
                    if n < 1:
                        raise GraphFormatError(f"line {lineno}: camera count {n} is not positive")
                elif tok[0] == "EDGE":
                    if n is None:
                        raise GraphFormatError(f"line {lineno}: EDGE before VGRAPH header")
                    if len(tok) not in (12, 22) or (len(tok) == 22 and tok[12] != "H"):
                        raise GraphFormatError(f"line {lineno}: malformed EDGE line")
                    i, j = int(tok[1]), int(tok[2])
                    if not (0 <= i < n and 0 <= j < n):
                        raise GraphFormatError(
                            f"line {lineno}: vertex id outside [0,{n})"
                        )
                    rel = np.array([float(v) for v in tok[3:12]]).reshape(3, 3)
                    rel = _validated_rotation(rel, lineno)
                    hess = None
                    if len(tok) == 22:
                        hess = np.array([float(v) for v in tok[13:22]]).reshape(3, 3)
                    edges.append(EdgeMeasurement(i, j, rel, hess))
                else:
                    raise GraphFormatError(f"line {lineno}: unknown record {tok[0]!r}")
            except GraphFormatError:
                raise
            except (ValueError, IndexError) as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise GraphFormatError("missing VGRAPH header")
    try:
        return ViewGraph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def _validated_rotation(m: np.ndarray, lineno: int) -> np.ndarray:
    if not _all_finite(m):
        raise GraphFormatError(f"line {lineno}: rotation off SO(3): entry not finite")
    err = np.linalg.norm(m.T @ m - np.eye(3))
    det_err = abs(np.linalg.det(m) - 1.0)
    if not (err <= OFF_MANIFOLD_TOL and det_err <= OFF_MANIFOLD_TOL):  # NaN fails too
        raise GraphFormatError(
            f"line {lineno}: rotation off SO(3) beyond {OFF_MANIFOLD_TOL:g} "
            f"(orthogonality {err:.3g}, det error {det_err:.3g})"
        )
    if err > so3.ROTATION_ORTHO_TOL or det_err > so3.ROTATION_DET_TOL:
        return so3.project_so3(m)
    return m


def save_rotations(stack: np.ndarray, path) -> None:
    """Write absolute rotations, one ROT line per camera."""
    with open(path, "w", encoding="utf-8") as f:
        for i, r in enumerate(stack):
            f.write(f"ROT {i} {_fmt(np.asarray(r).ravel())}\n")


def load_rotations(path) -> np.ndarray:
    """Read a rotation file into an (n, 3, 3) stack; ids must cover 0..n-1."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            if tok[0] != "ROT" or len(tok) != 11:
                raise GraphFormatError(f"line {lineno}: malformed ROT line")
            try:
                i = int(tok[1])
                m = np.array([float(v) for v in tok[2:11]]).reshape(3, 3)
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from exc
            if i < 0:
                raise GraphFormatError(f"line {lineno}: negative camera id {i}")
            if i in rows:
                raise GraphFormatError(f"line {lineno}: duplicate camera id {i}")
            rows[i] = _validated_rotation(m, lineno)
    if not rows:
        raise GraphFormatError("empty rotation file")
    n = max(rows) + 1
    missing = sorted(set(range(n)) - set(rows))
    if missing:
        raise GraphFormatError(f"missing camera ids {missing}")
    return np.stack([rows[i] for i in range(n)])
