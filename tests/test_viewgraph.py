"""Tests for the view-graph data model, block assembly, trees, and file I/O."""

import functools
import gc
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from rotavg import so3, viewgraph
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import (
    EDGE_BLOCK,
    SYMMETRY_TOL,
    ConnectionBlocks,
    EdgeMeasurement,
    GraphFormatError,
    RowError,
    ViewGraph,
    assemble_blocks,
    chain_init,
    clamp_psd,
    load_rotations,
    load_view_graph,
    save_rotations,
    save_view_graph,
    spanning_tree,
)

from conftest import dense_blocks


def rz(deg):
    return so3.exp_so3(np.array([0.0, 0.0, np.radians(deg)]))


def random_spd(rng):
    v = so3.random_rotation(rng)
    return v @ np.diag(rng.uniform(1.0, 10.0, 3)) @ v.T


class TestEdgeMeasurement:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            EdgeMeasurement(2, 2, np.eye(3))

    def test_rejects_reversed_order(self):
        with pytest.raises(ValueError, match="canonical"):
            EdgeMeasurement(3, 1, np.eye(3))

    def test_rejects_asymmetric_hessian(self):
        h = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            EdgeMeasurement(0, 1, np.eye(3), h)

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError, match="PSD"):
            EdgeMeasurement(0, 1, np.eye(3), np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("entry, value", [((0, 1), np.nan), ((2, 2), np.inf)])
    def test_rejects_nonfinite_hessian(self, entry, value):
        """Rejected before any arithmetic on the Hessian, so numpy warns nothing."""
        h = np.eye(3)
        h[entry] = h[entry[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"edge \(0,1\): Hessian not finite"):
                EdgeMeasurement(0, 1, np.eye(3), h)

    @pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((1, 2), np.inf), ((2, 1), -np.inf)])
    def test_rejects_nonfinite_rel(self, entry, value):
        rel = np.eye(3)
        rel[entry] = value
        with pytest.raises(ValueError, match=r"edge \(0,1\): relative rotation not finite"):
            EdgeMeasurement(0, 1, rel)

    @pytest.mark.parametrize("shape", [(2, 2), (9,), (3, 3, 1)])
    def test_rejects_non_3x3_rel(self, shape):
        with pytest.raises(ValueError, match=r"edge \(1,4\): relative rotation has shape"):
            EdgeMeasurement(1, 4, np.ones(shape))


class TestViewGraph:
    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="outside vertex range"):
            ViewGraph(2, [EdgeMeasurement(0, 5, np.eye(3))])

    def test_rejects_duplicate_edge(self):
        edges = [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(0, 1, rz(10))]
        with pytest.raises(ValueError, match="duplicate"):
            ViewGraph(2, edges)

    @pytest.mark.parametrize("n", [float("nan"), -3, 2.5, "3", None])
    def test_rejects_bad_camera_count(self, n):
        with pytest.raises(ValueError, match=r"number of cameras n must be an integer >= 0"):
            ViewGraph(n, [EdgeMeasurement(0, 1, np.eye(3))])
        with pytest.raises(ValueError, match=r"number of cameras n must be an integer >= 0"):
            ViewGraph.from_arrays(n, [0], [1], np.eye(3)[None])

    def test_camera_count_zero_and_numpy_integers_pass(self):
        assert ViewGraph(0).components() == []
        assert not ViewGraph(0).is_connected()
        g = ViewGraph(np.int64(2), [EdgeMeasurement(0, 1, np.eye(3))])
        assert g.n == 2 and g.is_connected()

    def test_components_and_connectivity(self):
        g = ViewGraph(5, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(3, 4, np.eye(3))])
        assert g.components() == [[0, 1], [2], [3, 4]]
        assert not g.is_connected()
        g2 = ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(1, 2, np.eye(3))])
        assert g2.is_connected()

    def test_components_ordered_by_smallest_member(self):
        pairs = [(3, 6), (0, 4), (1, 6), (2, 4)]
        g = ViewGraph(8, [EdgeMeasurement(i, j, np.eye(3)) for i, j in pairs])
        assert g.components() == [[0, 2, 4], [1, 3, 6], [5], [7]]
        assert ViewGraph(1).is_connected()

    def test_components_mutated_by_caller_change_nothing(self):
        g = ViewGraph(4, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(2, 3, np.eye(3))])
        comps = g.components()
        comps[0].extend([2, 3])
        comps.pop()
        assert g.components() == [[0, 1], [2, 3]]
        assert not g.is_connected()

    def test_edge_index_arrays(self):
        g = ViewGraph(4, [EdgeMeasurement(1, 3, np.eye(3)), EdgeMeasurement(0, 2, np.eye(3))])
        for arr, want in ((g.i_idx, [1, 0]), (g.j_idx, [3, 2])):
            assert arr.dtype == np.intp
            np.testing.assert_array_equal(arr, want)
        empty = ViewGraph(3)
        assert empty.i_idx.shape == empty.j_idx.shape == (0,)

    def test_has_hessians(self):
        with_h = ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3), 2 * np.eye(3))])
        without = ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3))])
        assert with_h.has_hessians
        assert not without.has_hessians


def valid_arrays(rng):
    """Edge arrays of a valid 6-camera graph with five edges."""
    pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)]
    i, j = (np.array(c) for c in zip(*pairs))
    rel = np.stack([so3.random_rotation(rng) for _ in pairs])
    hess = np.stack([random_spd(rng) for _ in pairs])
    return i, j, rel, hess


def star_arrays(edges, seed=33):
    """Edge arrays of a valid star graph: edge k joins camera 0 to camera k + 1."""
    rng = np.random.default_rng(seed)
    v = so3.quaternion_rotation(rng.standard_normal((edges, 4)))
    hess = v * rng.uniform(1.0, 10.0, (edges, 1, 3)) @ np.swapaxes(v, 1, 2)
    rel = so3.quaternion_rotation(rng.standard_normal((edges, 4)))
    return np.zeros(edges, dtype=int), np.arange(1, edges + 1), rel, 0.5 * (hess + np.swapaxes(hess, 1, 2))


def star_fault(kind, k, n, i, j, rel, hess):
    """`corrupt` for `star_arrays` of n cameras: a range fault names camera n + 3,
    and a duplicate repeats edge 1."""
    if kind == "range":
        j[k] = n + 3
        return rf"edge \(0,{n + 3}\) outside vertex range \[0,{n}\)"
    if kind == "duplicate":
        j[k] = j[1]
        return rf"duplicate edge \(0,{j[1]}\)"
    return corrupt(kind, k, i, j, rel, hess)


def corrupt(kind, k, i, j, rel, hess):
    """Give edge k one fault of the named kind; returns the message it must raise."""
    edge = f"edge \\({i[k]},{j[k]}\\)"
    if kind == "self-edge":
        j[k] = i[k]
        return f"self-edge at vertex {i[k]}"
    if kind == "order":
        i[k], j[k] = j[k], i[k]
        return f"edge \\({i[k]},{j[k]}\\) not in canonical"
    if kind == "rel-nan":
        rel[k, 1, 2] = np.nan
        return f"{edge}: relative rotation not finite"
    if kind == "hess-inf":
        hess[k, 0, 0] = np.inf
        return f"{edge}: Hessian not finite"
    if kind == "asymmetric":
        hess[k, 0, 1] += 1.0
        return f"{edge}: Hessian not symmetric"
    if kind == "indefinite":
        hess[k] = np.diag([1.0, 1.0, -1.0])
        return f"{edge}: Hessian not PSD"
    if kind in ROTATION_FAULTS:
        rel[k] = ROTATION_FAULTS[kind]
        return f"{edge}: relative rotation off SO\\(3\\) beyond 1e-06 \\(defect "
    if kind == "range":
        j[k] = 9
        return f"edge \\({i[k]},9\\) outside vertex range \\[0,6\\)"
    assert kind == "duplicate"
    i[k], j[k] = i[k - 1], j[k - 1]
    return f"duplicate edge \\({i[k]},{j[k]}\\)"


# Finite relative rotations off SO(3): a reflection, a scaled rotation and a zero matrix.
ROTATION_FAULTS = {
    "rel-off": np.diag([1.0, 1.0, -1.0]), "rel-twice": 2 * np.eye(3), "rel-zero": np.zeros((3, 3)),
}
FAULTS = ["self-edge", "order", "rel-nan", "hess-inf", "asymmetric", "indefinite", *ROTATION_FAULTS,
          "range", "duplicate"]
GRAPH_LEVEL = ["range", "duplicate", *ROTATION_FAULTS]  # checked by the graph, not by one edge


@pytest.mark.parametrize("count, sizes", [(0, []), (1, [1]), (4, [4]), (5, [5]), (6, [4, 2]), (9, [4, 5]),
                                          (10, [4, 4, 2]), (11, [4, 4, 3])])
def test_edge_blocks_cover_the_edges_in_order(count, sizes, monkeypatch):
    """Blocks of EDGE_BLOCK edges, the last taking a remainder under half a block."""
    monkeypatch.setattr(viewgraph, "EDGE_BLOCK", 4)
    blocks = viewgraph.edge_blocks(count)
    assert [b.stop - b.start for b in blocks] == sizes
    assert [b.start for b in blocks] == [4 * k for k in range(len(sizes))]
    assert blocks[-1:] == [] or blocks[-1].stop == count


class TestFromArrays:
    def test_valid_arrays_round_trip(self):
        i, j, rel, hess = valid_arrays(np.random.default_rng(20))
        g = ViewGraph.from_arrays(6, i, j, rel, hess)
        assert g.has_hessians and len(g.edges) == 5
        for arr, want in ((g.i_idx, i), (g.j_idx, j), (g.rel, rel), (g.hessian_stack(), hess)):
            np.testing.assert_array_equal(arr, want)
        for k, e in enumerate(g.edges):
            assert (e.i, e.j) == (i[k], j[k]) and isinstance(e, EdgeMeasurement)
            np.testing.assert_array_equal(e.hessian, hess[k])

    @pytest.mark.parametrize("kind", FAULTS)
    def test_rejects_fault_naming_first_bad_edge(self, kind):
        """The fault is on edge 2, a different one on edge 4: edge 2 is named."""
        arrays = valid_arrays(np.random.default_rng(21))
        message = corrupt(kind, 2, *arrays)
        corrupt("rel-nan" if kind != "rel-nan" else "indefinite", 4, *arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RowError, match=message) as info:
                ViewGraph.from_arrays(6, *arrays)
        assert info.value.index == 2

    @pytest.mark.parametrize("block", [3, EDGE_BLOCK])
    @pytest.mark.parametrize("first, later", [("duplicate", "self-edge"), ("rel-off", "order"),
                                              ("indefinite", "rel-nan"), ("range", "hess-inf")])
    def test_faults_in_different_blocks_name_the_earlier_edge(self, first, later, block, monkeypatch):
        """The checks run one block of edges at a time: a fault of a later check in
        an earlier block is named before a fault of an earlier check in a later
        block, and a duplicate is found with its first occurrence two blocks back."""
        monkeypatch.setattr(viewgraph, "EDGE_BLOCK", block)
        arrays = star_arrays(3 * block)
        n = len(arrays[0]) + 1
        message = star_fault(first, block + 1, n, *arrays)
        star_fault(later, 2 * block + 2, n, *arrays)
        with pytest.raises(RowError, match=message) as info:
            ViewGraph.from_arrays(n, *arrays)
        assert info.value.index == block + 1

    @pytest.mark.parametrize("block", [3, EDGE_BLOCK])
    def test_earliest_fault_within_a_block(self, block, monkeypatch):
        """Two faults in the last block, the earlier edge's of a later check: that
        edge is named, unless a block before holds a fault."""
        monkeypatch.setattr(viewgraph, "EDGE_BLOCK", block)
        arrays = star_arrays(3 * block)
        n = len(arrays[0]) + 1
        message = star_fault("asymmetric", 2 * block + 1, n, *arrays)
        star_fault("self-edge", 2 * block + 2, n, *arrays)
        with pytest.raises(RowError, match=message) as info:
            ViewGraph.from_arrays(n, *arrays)
        assert info.value.index == 2 * block + 1
        message = star_fault("range", block - 1, n, *arrays)
        with pytest.raises(RowError, match=message) as info:
            ViewGraph.from_arrays(n, *arrays)
        assert info.value.index == block - 1

    @pytest.mark.parametrize("kind", FAULTS)
    def test_single_edge_same_message(self, kind):
        """EdgeMeasurement and ViewGraph(n, edges) run the same checks and messages."""
        arrays = valid_arrays(np.random.default_rng(22))
        message = corrupt(kind, 2, *arrays)
        i, j, rel, hess = arrays
        if kind in GRAPH_LEVEL:
            edges = [EdgeMeasurement(*e) for e in zip(i.tolist(), j.tolist(), rel, hess)]
            with pytest.raises(ValueError, match=message):
                ViewGraph(6, edges)
        else:
            with pytest.raises(ValueError, match=message):
                EdgeMeasurement(int(i[2]), int(j[2]), rel[2], hess[2])

    def test_near_rotation_reprojected(self):
        """A rel 5e-8 off SO(3) is stored projected, through either constructor;
        the other rows, valid rotations, are stored as given."""
        i, j, rel, hess = valid_arrays(np.random.default_rng(31))
        rel[1] += 5e-8 * np.random.default_rng(32).standard_normal((3, 3))
        assert 1e-9 < so3.rotation_defect(rel[1]) < 1e-6
        edges = [EdgeMeasurement(*e) for e in zip(i.tolist(), j.tolist(), rel, hess)]
        for g in (ViewGraph.from_arrays(6, i, j, rel, hess), ViewGraph(6, edges)):
            assert so3.is_rotation(g.rel[1])
            np.testing.assert_array_equal(g.rel[1], so3.project_so3(rel[1]))
            np.testing.assert_array_equal(np.delete(g.rel, 1, axis=0), np.delete(rel, 1, axis=0))

    @pytest.mark.parametrize("which", ["rel", "hess"])
    def test_rejects_misshapen_stack(self, which):
        i, j, rel, hess = valid_arrays(np.random.default_rng(23))
        arrays = {"rel": rel, "hess": hess}
        arrays[which] = arrays[which][:, :2, :2]
        name = "relative rotation" if which == "rel" else "Hessian"
        with pytest.raises(ValueError, match=rf"edge \(0,1\): {name} has shape \(2, 2\)"):
            ViewGraph.from_arrays(6, i, j, arrays["rel"], arrays["hess"])

    def test_rejects_length_mismatch_and_float_endpoints(self):
        i, j, rel, hess = valid_arrays(np.random.default_rng(24))
        with pytest.raises(ValueError, match="disagree in length"):
            ViewGraph.from_arrays(6, i, j, rel[:4], hess)
        with pytest.raises(ValueError, match="integers"):
            ViewGraph.from_arrays(6, i.astype(float), j, rel, hess)

    def test_stored_arrays_refuse_writes(self):
        i, j, rel, hess = valid_arrays(np.random.default_rng(25))
        g = ViewGraph.from_arrays(6, i, j, rel, hess)
        for arr in (g.i_idx, g.j_idx, g.rel, g.hess, g.has_hessian, g.edges[0].rel, g.edges[1].hessian):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        rel[0] = 0.0  # the graph holds copies; the caller's arrays stay writable
        assert np.array_equal(g.rel[0], g.edges[0].rel) and g.rel[0, 0, 0] != 0.0

    def test_len_builds_no_edges(self, monkeypatch):
        g = ViewGraph.from_arrays(6, *valid_arrays(np.random.default_rng(26)))
        monkeypatch.setattr(ViewGraph, "_edge", lambda self, k: pytest.fail("edge object built"))
        assert len(g.edges) == 5

    def test_edge_sequence_indexing(self):
        g = ViewGraph.from_arrays(6, *valid_arrays(np.random.default_rng(27)))
        assert (g.edges[-1].i, g.edges[-1].j) == (3, 5)
        assert [(e.i, e.j) for e in g.edges] == list(zip(g.i_idx.tolist(), g.j_idx.tolist()))
        with pytest.raises(IndexError):
            g.edges[5]
        with pytest.raises(TypeError):
            g.edges[1:3]

    def test_rejects_hessian_mask_without_hessians(self):
        i, j, rel, _ = valid_arrays(np.random.default_rng(29))
        has = np.array([False, False, True, True, False])
        with pytest.raises(RowError, match=r"edge \(1,3\) is marked as having a Hessian") as info:
            ViewGraph.from_arrays(6, i, j, rel, None, has)
        assert info.value.index == 2
        assert not ViewGraph.from_arrays(6, i, j, rel, None, np.zeros(5, dtype=bool)).has_hessians

    def test_graph_without_hessians(self, tmp_path):
        """No Hessians, built through the API or loaded from a file: the same
        read-only zero `hess`, the same error and the same saved bytes."""
        i, j, rel, _ = valid_arrays(np.random.default_rng(30))
        api = ViewGraph(6, [EdgeMeasurement(*e) for e in zip(i.tolist(), j.tolist(), rel)])
        path = tmp_path / "bare.vg"
        save_view_graph(api, path)
        assert " H " not in path.read_text()
        for k, g in enumerate((api, ViewGraph.from_arrays(6, i, j, rel), load_view_graph(path))):
            assert g.hess.shape == (5, 3, 3) and not g.hess.any() and not g.has_hessians
            assert all(e.hessian is None for e in g.edges)
            with pytest.raises(ValueError, match="read-only"):
                g.hess[0, 0, 0] = 1.0
            with pytest.raises(ValueError, match=r"edge \(0,1\) has none"):
                g.hessian_stack()
            save_view_graph(g, tmp_path / f"{k}.vg")
            assert (tmp_path / f"{k}.vg").read_bytes() == path.read_bytes()
        assert ViewGraph(3).hess.shape == (0, 3, 3)

    def test_mixed_hessians(self, tmp_path):
        """Some edges with a Hessian, some without: kept per edge, aniso refused."""
        rng = np.random.default_rng(28)
        edges = [
            EdgeMeasurement(0, 1, so3.random_rotation(rng), random_spd(rng)),
            EdgeMeasurement(0, 2, so3.random_rotation(rng)),
            EdgeMeasurement(1, 2, so3.random_rotation(rng), random_spd(rng)),
        ]
        g = ViewGraph(3, edges)
        assert not g.has_hessians
        np.testing.assert_array_equal(g.has_hessian, [True, False, True])
        with pytest.raises(ValueError, match=r"edge \(0,2\) has none"):
            g.hessian_stack()
        path = tmp_path / "mixed.vg"
        save_view_graph(g, path)
        assert [" H " in line for line in path.read_text().splitlines()[1:]] == [True, False, True]
        back = load_view_graph(path)
        for a, b in zip(back.edges, edges):
            assert (a.hessian is None) == (b.hessian is None)
            np.testing.assert_array_equal(a.rel, b.rel)
            if b.hessian is not None:
                np.testing.assert_array_equal(a.hessian, b.hessian)


class TestAnisotropicWeight:
    """`viewgraph._chordal_weight`, the one chordal weight 0.5 tr(H) I - H."""

    def test_identity(self):
        np.testing.assert_allclose(viewgraph._chordal_weight(np.eye(3)), 0.5 * np.eye(3))

    def test_diagonal(self):
        got = viewgraph._chordal_weight(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(got, np.diag([2.0, 1.0, 0.0]))

    def test_twice_identity_gives_identity(self):
        np.testing.assert_allclose(viewgraph._chordal_weight(2 * np.eye(3)), np.eye(3))

    def test_linear(self):
        rng = np.random.default_rng(0)
        h1, h2 = random_spd(rng), random_spd(rng)
        got = viewgraph._chordal_weight(2.0 * h1 + 3.0 * h2)
        want = 2.0 * viewgraph._chordal_weight(h1) + 3.0 * viewgraph._chordal_weight(h2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_trace_halved(self):
        h = random_spd(np.random.default_rng(1))
        assert np.trace(viewgraph._chordal_weight(h)) == pytest.approx(0.5 * np.trace(h))

    def test_stack_matches_single(self):
        rng = np.random.default_rng(6)
        hs = np.stack([random_spd(rng) for _ in range(5)])
        got = viewgraph._chordal_weight(hs)
        for h, m in zip(hs, got):
            np.testing.assert_array_equal(m, viewgraph._chordal_weight(h))

    @pytest.mark.parametrize("check", ["single", "stack", "edge"])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_symmetry_bound_is_the_skew_norm(self, check, factor):
        """A skew part of Frobenius norm `factor` * SYMMETRY_TOL fails only above the
        bound, in the edge validator that the weight relies on: on a one-edge graph, on
        a stack of three (whose PSD test is the Cholesky certificate) and on one edge."""
        t = factor * SYMMETRY_TOL / (2.0 * np.sqrt(2.0))  # |h - h^T|_F = 2 * sqrt(2) * t
        h = 2.0 * np.eye(3)
        h[0, 1], h[1, 0] = t, -t
        call = {
            "single": lambda: ViewGraph.from_arrays(2, [0], [1], np.eye(3)[None], h[None]),
            "stack": lambda: ViewGraph.from_arrays(4, [0, 1, 2], [1, 2, 3], np.tile(np.eye(3), (3, 1, 1)),
                                                   np.stack([np.eye(3), h, np.eye(3)])),
            "edge": lambda: EdgeMeasurement(0, 1, np.eye(3), h),
        }[check]
        if factor > 1:
            with pytest.raises(ValueError, match="symmetric"):
                call()
        else:
            call()


def reference_clamp_psd(h):
    """clamp_psd by one eigendecomposition of the whole stack."""
    h = np.asarray(h, dtype=float)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    floor = 1e-9 * np.maximum(np.trace(h, axis1=-2, axis2=-1), 0.0) / 3.0
    w, v = np.linalg.eigh(h)
    clamped = (v * np.maximum(w, floor[..., None])[..., None, :]) @ np.swapaxes(v, -1, -2)
    return np.where((w[..., 0] >= floor)[..., None, None], h, clamped)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def with_eigenvalues(v, lam):
    """Exactly symmetric stack with eigenvectors v (k, 3, 3) and eigenvalues lam (k, 3)."""
    h = (v * lam[:, None, :]) @ np.swapaxes(v, 1, 2)
    return 0.5 * (h + np.swapaxes(h, 1, 2))


class TestClampPsd:
    def test_spd_unchanged(self):
        h = random_spd(np.random.default_rng(2))
        np.testing.assert_allclose(clamp_psd(h), h)

    def test_clamps_negative_eigenvalue(self):
        h = np.diag([3.0, 2.0, -1e-12])
        out = clamp_psd(h)
        assert np.linalg.eigvalsh(out).min() > 0
        np.linalg.cholesky(out)  # must succeed

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4, 1e6])
    def test_equals_eigh_formula_near_floor(self, scale):
        """Smallest eigenvalue from -1 to 10 times the floor 1e-9 tr/3, for a
        stack, one 3x3 matrix and a stack of one."""
        rng = np.random.default_rng(41)
        v = so3.quaternion_rotation(rng.standard_normal((60, 4)))
        big = scale * rng.uniform(0.1, 1.0, (60, 2))
        floor = 1e-9 * big.sum(axis=1) / 3.0
        for mult in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0):
            h = with_eigenvalues(v, np.column_stack([mult * floor, big]))
            for x in (h, h[0], h[:1], h[1:2]):
                assert same_bits(clamp_psd(x), reference_clamp_psd(x))

    def test_empty_and_nonfinite_as_eigh_formula(self):
        """Same result, or same error, and the same warnings."""
        def outcome(f, h):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = f(h)
                except np.linalg.LinAlgError as exc:
                    out = repr(exc)
            return out, [str(w.message) for w in caught]

        assert same_bits(clamp_psd(np.zeros((0, 3, 3))), reference_clamp_psd(np.zeros((0, 3, 3))))
        for entry, value, stacked in itertools.product([(0, 0), (2, 0)], [np.nan, np.inf],
                                                       [False, True]):
            h = np.eye(3)
            h[entry] = value
            h = np.stack([np.eye(3), h]) if stacked else h
            got, want = outcome(clamp_psd, h), outcome(reference_clamp_psd, h)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]


def near_threshold_hessians(rng, scale, k=140):
    """Symmetric Hessians with two eigenvalues of size `scale` and the smallest
    at -SYMMETRY_TOL, up to 1e-9 relative away from it, or in [0, SYMMETRY_TOL];
    every 7th row is singular PSD and every 11th zero (an edge without Hessian)."""
    v = so3.quaternion_rotation(rng.standard_normal((k, 4)))
    low = -SYMMETRY_TOL * (1 + rng.uniform(-1, 1, k) * rng.choice([1.0, 1e-2, 1e-6, 1e-9, 0.0], k))
    low[::7] = 0.0
    low[1::7] = rng.uniform(0.0, SYMMETRY_TOL, len(low[1::7]))
    h = with_eigenvalues(v, np.column_stack([low, scale * rng.uniform(0.1, 1.0, (k, 2))]))
    h[::11] = 0.0
    return h


def star_graph(hess):
    """from_arrays on edges (0, k + 1) with identity rotations and the given Hessians."""
    k = len(hess)
    return ViewGraph.from_arrays(k + 1, np.zeros(k, int), np.arange(1, k + 1),
                                 np.tile(np.eye(3), (k, 1, 1)), hess)


class TestPsdVerdict:
    """The validator rejects exactly the rows with eigvalsh(h)[:, 0] < -SYMMETRY_TOL,
    whether a Cholesky factor certifies the stack or eigvalsh decides."""

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6, 1e7])
    def test_verdicts_equal_eigvalsh(self, scale):
        """Row by row, as one edge and next to an identity Hessian (a stack the
        Cholesky factor may certify), and as one stack naming the first bad row."""
        h = near_threshold_hessians(np.random.default_rng(40), scale)
        bad = np.linalg.eigvalsh(h)[:, 0] < -SYMMETRY_TOL
        assert 0 < bad.sum() < len(h)
        for m, reject in zip(h, bad):
            if reject:
                with pytest.raises(ValueError, match="Hessian not PSD"):
                    EdgeMeasurement(0, 1, np.eye(3), m)
                with pytest.raises(RowError, match="edge \\(0,2\\): Hessian not PSD"):
                    star_graph(np.stack([np.eye(3), m]))
            else:
                EdgeMeasurement(0, 1, np.eye(3), m)
                star_graph(np.stack([np.eye(3), m]))
        star_graph(h[~bad])
        with pytest.raises(RowError, match="Hessian not PSD") as info:
            star_graph(h)
        assert info.value.index == np.argmax(bad)

    def test_spd_stacks_skip_eigensolvers(self, monkeypatch):
        """Generated SPD Hessians are certified by Cholesky in the validator and in clamp_psd."""
        hess = generate_scene(SceneSpec(kind="general", n=40, p=0.3, seed=3)).graph.hess

        def no_eigensolver(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
        star_graph(hess)
        assert same_bits(clamp_psd(hess), 0.5 * (hess + np.swapaxes(hess, 1, 2)))

    def test_no_factor_where_it_cannot_pay(self, monkeypatch):
        """A single edge, or a stack with an edge without Hessian, goes straight to eigvalsh."""
        def no_factor(*args, **kwargs):
            raise AssertionError("cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        EdgeMeasurement(0, 1, np.eye(3), 2.0 * np.eye(3))
        ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3), 2.0 * np.eye(3)),
                      EdgeMeasurement(1, 2, np.eye(3))])

    def test_large_entries_decided_by_eigvalsh(self):
        """This indefinite row factors without error into a NaN factor; beyond
        entries of 1e6 the factor is not trusted, so the row is rejected."""
        h = np.eye(3)
        h[0, 0], h[0, 2], h[2, 0] = 1e-100, -1e300, -1e300
        hess = np.stack([np.eye(3), h])
        assert np.isnan(np.linalg.cholesky(hess)).any()
        with pytest.raises(RowError, match="edge \\(0,2\\): Hessian not PSD"):
            star_graph(hess)


class TestAssembleBlocks:
    def test_two_cameras_h_twice_identity(self):
        r = rz(90)
        g = ViewGraph(2, [EdgeMeasurement(0, 1, r, 2 * np.eye(3))])
        blocks = dense_blocks(assemble_blocks(g, "aniso"))
        np.testing.assert_allclose(blocks[1, :, 0], r, atol=1e-15)
        np.testing.assert_allclose(blocks[0, :, 1], r.T, atol=1e-15)

    def test_iso_blocks_equal_measurements(self):
        rng = np.random.default_rng(3)
        rels = [so3.random_rotation(rng) for _ in range(2)]
        g = ViewGraph(3, [EdgeMeasurement(0, 1, rels[0]), EdgeMeasurement(1, 2, rels[1])])
        blocks = dense_blocks(assemble_blocks(g, "iso"))
        np.testing.assert_array_equal(blocks[1, :, 0], rels[0])
        np.testing.assert_array_equal(blocks[2, :, 1], rels[1])

    def test_path_graph_block_structure(self):
        g = ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(1, 2, np.eye(3))])
        nb = assemble_blocks(g, "iso")
        assert nb.num_edges == 2  # 4 directed blocks, 2 stored
        blocks = dense_blocks(nb)
        for k in range(3):
            np.testing.assert_array_equal(blocks[k, :, k], np.zeros((3, 3)))
        np.testing.assert_array_equal(blocks[0, :, 2], np.zeros((3, 3)))

    def test_symmetry_invariant(self):
        rng = np.random.default_rng(4)
        g = ViewGraph(
            4,
            [
                EdgeMeasurement(i, j, so3.random_rotation(rng), random_spd(rng))
                for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]
            ],
        )
        blocks = dense_blocks(assemble_blocks(g, "aniso"))
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(blocks[i, :, j], blocks[j, :, i].T)

    def test_h_twice_identity_matches_iso(self):
        rng = np.random.default_rng(5)
        rel = so3.random_rotation(rng)
        g_a = ViewGraph(2, [EdgeMeasurement(0, 1, rel, 2 * np.eye(3))])
        g_i = ViewGraph(2, [EdgeMeasurement(0, 1, rel)])
        np.testing.assert_allclose(
            assemble_blocks(g_a, "aniso").lower, assemble_blocks(g_i, "iso").lower,
            atol=1e-15,
        )

    def test_aniso_requires_hessians(self):
        g = ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3))])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            assemble_blocks(g, "aniso")

    @pytest.mark.parametrize("mode", ["iso", "aniso"])
    def test_matches_per_edge_products(self, mode):
        rng = np.random.default_rng(7)
        pairs = [(0, 1), (0, 3), (1, 2), (2, 3), (1, 3)]
        g = ViewGraph(
            4, [EdgeMeasurement(i, j, so3.random_rotation(rng), random_spd(rng)) for i, j in pairs]
        )
        nb = assemble_blocks(g, mode)
        np.testing.assert_array_equal(nb.i_idx, [i for i, _ in pairs])
        np.testing.assert_array_equal(nb.j_idx, [j for _, j in pairs])
        for e, edge in enumerate(g.edges):
            m = viewgraph._chordal_weight(edge.hessian) if mode == "aniso" else np.eye(3)
            np.testing.assert_array_equal(nb.lower[e], m @ edge.rel)

    def test_rejects_unknown_mode(self):
        g = ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3))])
        with pytest.raises(ValueError, match="mode"):
            assemble_blocks(g, "blended")

    @pytest.mark.parametrize("block", [3, EDGE_BLOCK])
    def test_blocked_lower_equals_checked_weight(self, block, monkeypatch):
        """assemble_blocks forms 0.5 tr(H) I - H one edge block at a time: `lower`
        equals the one-stack formula byte for byte, zeros included."""
        monkeypatch.setattr(viewgraph, "EDGE_BLOCK", block)
        rng = np.random.default_rng(8)
        i, j, rel, hess = star_arrays(4 * block + 1)
        hess[::2] = 0.0  # diagonal Hessians, +0.0 and -0.0 off the diagonal
        hess[::2, [0, 1, 2], [0, 1, 2]] = rng.uniform(1.0, 20.0, (len(hess[::2]), 3))
        hess[::4, 0, 1] = hess[::4, 1, 0] = -0.0
        hess[1::4] = np.diag([1.0, 1.0, 0.0])  # 0.5 tr(H) I - H has a zero row: lower has zero rows
        rel[::3] = np.diag([1.0, -1.0, -1.0])
        g = ViewGraph.from_arrays(len(i) + 1, i, j, rel, hess)
        lower = assemble_blocks(g, "aniso").lower
        weight = 0.5 * np.trace(g.hess, axis1=1, axis2=2)[:, None, None] * np.eye(3) - g.hess
        want = weight @ g.rel
        assert lower.tobytes() == want.tobytes() and (want == 0.0).any()


def reference_tables(nb):
    """Per vertex, its neighbors and np.hstack of its blocks N_{m,k}^T, in edge order."""
    indices, coeffs = [], []
    for k in range(nb.n):
        at_i, at_j = nb.i_idx == k, nb.j_idx == k
        edges = np.flatnonzero(at_i | at_j)
        indices.append(np.where(at_i, nb.j_idx, nb.i_idx)[edges])
        blocks = [nb.lower[e].T if at_i[e] else nb.lower[e] for e in edges]
        coeffs.append(np.hstack(blocks) if blocks else np.zeros((3, 0)))
    return indices, coeffs


class TestNeighborTables:
    """Values, dtypes and neighbor order of ConnectionBlocks.neighbor_tables against a
    per-vertex np.hstack, and their storage: views of two edge-sized arrays."""

    CASES = {
        # 0 and 2 are the j end of no edge, 3 and 4 the j end of all their edges, 1 of
        # some; 5 is isolated.
        "small": (6, [(0, 1), (0, 3), (1, 3), (2, 3), (1, 4)]),
        "no_edges": (4, []),
        "one_camera": (1, []),
        "no_cameras": (0, []),
        "star_at_camera_0": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    }

    def check(self, nb):
        indices, coeffs = nb.neighbor_tables()
        want_indices, want_coeffs = reference_tables(nb)
        assert len(indices) == len(coeffs) == nb.n
        for k in range(nb.n):
            assert indices[k].dtype == np.intp
            np.testing.assert_array_equal(indices[k], want_indices[k])
            got, want = coeffs[k], want_coeffs[k]
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        # Every entry is a view of one array holding the 2E edge ends, not a copy.
        for tables, per_end in ((indices, 1), (coeffs, 9)):
            views = [a for a in tables if a.size]
            if views:
                base = views[0].base
                assert base.size == per_end * 2 * nb.num_edges
                assert all(np.shares_memory(a, base) for a in views)
        return coeffs

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_hstack_reference(self, case):
        n, pairs = self.CASES[case]
        ij = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        lower = np.random.default_rng(1).standard_normal((len(ij), 3, 3))
        coeffs = self.check(ConnectionBlocks(n, ij[:, 0], ij[:, 1], lower))
        if case == "small":
            assert coeffs[5].shape == (3, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_hstack_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
        pairs = [pairs[k] for k in rng.permutation(len(pairs))]  # edges in no sorted order
        ij = np.array(pairs, dtype=np.intp)
        self.check(ConnectionBlocks(n, ij[:, 0], ij[:, 1], rng.standard_normal((len(ij), 3, 3))))

    def test_assembled_scene_matches_hstack_reference(self):
        sc = generate_scene(SceneSpec(kind="general", n=80, p=0.1, seed=3))
        self.check(assemble_blocks(sc.graph, "aniso"))


class TestSpanningTree:
    def loop_graph(self, n, rng=None):
        edges = []
        for k in range(n):
            i, j = sorted((k, (k + 1) % n))
            h = random_spd(rng) if rng is not None else None
            edges.append(EdgeMeasurement(i, j, np.eye(3), h))
        edges.sort(key=lambda e: (e.i, e.j))
        return ViewGraph(n, edges)

    def test_loop_drops_one_edge(self):
        tree = spanning_tree(self.loop_graph(8))
        assert tree.dtype == np.intp and len(tree) == 7

    def test_path_is_its_own_tree(self):
        g = ViewGraph(4, [EdgeMeasurement(k, k + 1, np.eye(3)) for k in range(3)])
        tree = spanning_tree(g)
        assert sorted(zip(g.i_idx[tree].tolist(), g.j_idx[tree].tolist())) == [(0, 1), (1, 2), (2, 3)]

    def test_deterministic(self):
        g = self.loop_graph(10, np.random.default_rng(6))
        np.testing.assert_array_equal(spanning_tree(g), spanning_tree(g))

    def test_acyclic_connected(self):
        rng = np.random.default_rng(7)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.7]
        pairs += [(k, k + 1) for k in range(5) if (k, k + 1) not in pairs]
        g = ViewGraph(6, [EdgeMeasurement(i, j, np.eye(3)) for i, j in sorted(set(pairs))])
        tree = spanning_tree(g)
        assert len(tree) == 5
        assert ViewGraph.from_arrays(6, g.i_idx[tree], g.j_idx[tree], g.rel[tree]).is_connected()

    @pytest.mark.parametrize("with_hessians", [True, False])
    def test_matches_per_edge_kruskal(self, with_hessians):
        """Same edges in the same order as Kruskal over edges sorted by (-tr H, i, j)."""
        rng = np.random.default_rng(10)
        pairs = [(i, j) for i in range(9) for j in range(i + 1, 9) if rng.random() < 0.6]
        pairs += [(k, k + 1) for k in range(8) if (k, k + 1) not in pairs]
        hs = [random_spd(rng) for _ in range(3)]  # shared Hessians make trace ties
        edges = [
            EdgeMeasurement(i, j, np.eye(3), hs[k % 3] if with_hessians else None)
            for k, (i, j) in enumerate(sorted(pairs))
        ]
        ranked = sorted(edges, key=lambda e: (-np.trace(e.hessian) if with_hessians else 1.0, e.i, e.j))
        comp = list(range(9))
        want = []
        for e in ranked:
            a, b = comp[e.i], comp[e.j]
            if a != b:
                comp = [b if c == a else c for c in comp]
                want.append((e.i, e.j))
        g = ViewGraph(9, edges)
        tree = spanning_tree(g)
        assert list(zip(g.i_idx[tree].tolist(), g.j_idx[tree].tolist())) == want

    def test_disconnected_graph_gives_spanning_forest(self):
        """One tree per component: n - #components edges, and the same components."""
        rng = np.random.default_rng(11)
        pairs = [(0, 2), (2, 5), (0, 5), (1, 3), (3, 6), (1, 6), (3, 7)]  # and cameras 4, 8 alone
        g = ViewGraph(9, [EdgeMeasurement(i, j, np.eye(3), random_spd(rng)) for i, j in pairs])
        tree = spanning_tree(g)
        assert len(tree) == 9 - 4
        forest = ViewGraph.from_arrays(9, g.i_idx[tree], g.j_idx[tree], g.rel[tree], g.hess[tree])
        assert forest.components() == g.components() == [[0, 2, 5], [1, 3, 6, 7], [4], [8]]


def per_edge_chain_init(g: ViewGraph, tree) -> np.ndarray:
    """The per-edge walk `chain_init` replaces: a dict of the tree's edges, one chain
    from the smallest camera of each component, and the same products."""
    rel = {(int(g.i_idx[e]), int(g.j_idx[e])): g.rel[e] for e in tree}
    nbrs = {k: [] for k in range(g.n)}
    for i, j in rel:
        nbrs[i].append(j)
        nbrs[j].append(i)
    stack = np.zeros((g.n, 3, 3))
    for start in g.smallest_cameras().tolist():
        stack[start] = np.eye(3)
        queue, seen = [start], {start}
        for v in queue:
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
                    stack[w] = rel[v, w] @ stack[v] if v < w else rel[w, v].T @ stack[v]
    return stack


class TestChainInit:
    def test_two_cameras(self):
        g = ViewGraph(2, [EdgeMeasurement(0, 1, rz(30))])
        stack = chain_init(g, spanning_tree(g))
        np.testing.assert_allclose(stack[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(stack[1], rz(30), atol=1e-15)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(8)
        gt = np.stack([so3.random_rotation(rng) for _ in range(7)])
        pairs = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3, 6), (1, 5)]
        g = ViewGraph(
            7, [EdgeMeasurement(i, j, gt[j] @ gt[i].T) for i, j in pairs]
        )
        stack = chain_init(g, spanning_tree(g))
        # Remove the global gauge via camera 0 and compare.
        q = stack[0].T @ gt[0]
        for est, true in zip(stack @ q[None], gt):
            assert so3.angular_distance_deg(est, true) <= 1e-7

    def test_all_outputs_are_rotations(self):
        rng = np.random.default_rng(9)
        g = ViewGraph(
            5,
            [EdgeMeasurement(k, k + 1, so3.random_rotation(rng)) for k in range(4)],
        )
        for r in chain_init(g, spanning_tree(g)):
            assert so3.is_rotation(r)

    def test_tree_must_span(self):
        g = ViewGraph(4, [EdgeMeasurement(k, k + 1, rz(10 * k)) for k in range(3)])
        with pytest.raises(ValueError, match="does not span the graph"):
            chain_init(g, np.array([0, 2]))
        with pytest.raises(ValueError, match="does not span the graph"):
            chain_init(g, np.array([0, 0, 2]))  # n - 1 ids, but one edge twice

    def test_tree_must_not_have_a_cycle(self):
        """All four edges of a 4-loop reach every camera, but are one more than a tree has."""
        g = TestSpanningTree().loop_graph(4)
        with pytest.raises(ValueError, match="tree of 4 edges does not span the graph as a forest of 3"):
            chain_init(g, np.arange(4))

    def test_one_chain_per_component(self):
        """Chains start at the smallest camera of every component, the pinned ones."""
        rng = np.random.default_rng(12)
        gt = np.stack([so3.random_rotation(rng) for _ in range(7)])
        pairs = [(0, 2), (1, 3), (2, 5), (0, 5), (3, 6)]  # components {0,2,5}, {1,3,6}, {4}
        g = ViewGraph(7, [EdgeMeasurement(i, j, gt[j] @ gt[i].T) for i, j in pairs])
        stack = chain_init(g, spanning_tree(g))
        np.testing.assert_array_equal(g.smallest_cameras(), [0, 1, 4])
        for start, comp in ((0, [0, 2, 5]), (1, [1, 3, 6])):
            np.testing.assert_array_equal(stack[start], np.eye(3))
            for k in comp:  # exact up to the component's gauge
                assert so3.angular_distance_deg(stack[k], gt[k] @ gt[start].T) <= 1e-7
        np.testing.assert_array_equal(stack[4], np.eye(3))

    def test_edge_orientation(self):
        """From start 0 over edges (0,2) and (1,2): camera 2 is reached along its
        edge, camera 1 against its edge."""
        g = ViewGraph(3, [EdgeMeasurement(0, 2, rz(10)), EdgeMeasurement(1, 2, rz(20))])
        stack = chain_init(g, np.arange(2))
        np.testing.assert_array_equal(stack[0], np.eye(3))
        np.testing.assert_allclose(stack[2], rz(10), atol=1e-15)
        np.testing.assert_allclose(stack[1], rz(-10), atol=1e-15)

    @pytest.mark.parametrize("scene", ["loop", "general", "lone_camera_0"])
    def test_bytes_match_per_edge_walk(self, scene):
        """The edge-id walk gives the per-edge reference's bytes, on a loop scene, a
        general scene, and a disconnected graph whose camera 0 has no edge."""
        if scene == "lone_camera_0":
            rng = np.random.default_rng(13)
            pairs = [(1, 3), (3, 6), (1, 6), (2, 5), (5, 7), (7, 8), (2, 8)]  # 0 and 4 alone
            g = ViewGraph(9, [EdgeMeasurement(i, j, so3.random_rotation(rng), random_spd(rng))
                              for i, j in pairs])
            assert g.components()[0] == [0]
        else:
            g = generate_scene(SceneSpec(kind=scene, n=60, p=0.2 if scene == "general" else None,
                                         seed=5)).graph
        tree = spanning_tree(g)
        assert chain_init(g, tree).tobytes() == per_edge_chain_init(g, tree).tobytes()


IDENTITY = " ".join(str(v) for v in np.eye(3).ravel())
NAN_OFF_DIAGONAL = "1 nan 0 nan 1 0 0 0 1"


class TestFileIO:
    @pytest.mark.parametrize(
        "load, text, match",
        [
            (load_view_graph, "VGRAPH 1 2\nEDGE 0 1 nan 0 0 0 1 0 0 0 1\n",
             "line 2: edge \\(0,1\\): relative rotation not finite"),
            (load_view_graph, "VGRAPH 1 2\nEDGE 0 1 inf 0 0 0 1 0 0 0 1\n",
             "line 2: edge \\(0,1\\): relative rotation not finite"),
            (load_view_graph, f"VGRAPH 1 2\nEDGE 0 1 {IDENTITY} H {NAN_OFF_DIAGONAL}\n",
             "line 2: edge \\(0,1\\): Hessian not finite"),
            (load_view_graph, f"VGRAPH 1 -3\nEDGE 0 1 {IDENTITY}\n", "line 1: camera count -3"),
            (load_view_graph, "VGRAPH 1 0\n", "line 1: camera count 0"),
            (load_view_graph, f"VGRAPH 1 2\nVGRAPH 1 3\nEDGE 0 2 {IDENTITY}\n",
             "line 2: second VGRAPH"),
            (load_rotations, f"ROT 0 {IDENTITY}\nROT -1 {IDENTITY}\n", "line 2: negative camera id"),
            (load_rotations, f"ROT 0 {IDENTITY}\nROT x {IDENTITY}\n", "line 2: invalid literal"),
            (load_rotations, f"ROT 0 {IDENTITY}\nROT 1 {IDENTITY.replace('1.0', 'nan', 1)}\n",
             "line 2: rotation off SO"),
            (load_rotations, "ROT 0 -inf 0 0 0 1 0 0 0 1\n", "line 1: rotation off SO"),
            (load_view_graph, f"VGRAPH 1 2\nEDGE 0 1 {IDENTITY} H inf 0 0 0 1 0 0 0 1\n",
             "line 2: edge \\(0,1\\): Hessian not finite"),
        ],
        ids=[
            "vg_nan_rotation", "vg_inf_rotation", "vg_nan_hessian", "vg_negative_count",
            "vg_zero_count", "vg_second_header", "rot_negative_id", "rot_non_integer_id",
            "rot_nan_rotation", "rot_inf_rotation", "vg_inf_hessian",
        ],
    )
    def test_malformed_input_names_line(self, tmp_path, load, text, match):
        """Rejected with the line number, and without numpy warnings on the way."""
        path = tmp_path / "input.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError, match=match):
                load(path)

    def make_graph(self, rng, with_hessians=True):
        edges = []
        for i, j in [(0, 1), (1, 2), (0, 2)]:
            h = random_spd(rng) if with_hessians else None
            edges.append(EdgeMeasurement(i, j, so3.random_rotation(rng), h))
        return ViewGraph(3, edges)

    def test_round_trip(self, tmp_path):
        g = self.make_graph(np.random.default_rng(10))
        path = tmp_path / "g.vg"
        save_view_graph(g, path)
        back = load_view_graph(path)
        assert back.n == g.n
        for a, b in zip(back.edges, g.edges):
            assert (a.i, a.j) == (b.i, b.j)
            np.testing.assert_array_equal(a.rel, b.rel)
            np.testing.assert_array_equal(a.hessian, b.hessian)

    def test_round_trip_without_hessians(self, tmp_path):
        g = self.make_graph(np.random.default_rng(11), with_hessians=False)
        path = tmp_path / "g.vg"
        save_view_graph(g, path)
        back = load_view_graph(path)
        assert all(e.hessian is None for e in back.edges)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.vg"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"# header comment\nVGRAPH 1 2\n\nEDGE 0 1 {vals}  # inline\n")
        g = load_view_graph(path)
        assert g.n == 2 and len(g.edges) == 1

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "g.vg"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"VGRAPH 1 2\nEDGE 0 5 {vals}\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_view_graph(path)

    def test_malformed_edge_line(self, tmp_path):
        path = tmp_path / "g.vg"
        path.write_text("VGRAPH 1 2\nEDGE 0 1 1 0 0\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_view_graph(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.vg"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"EDGE 0 1 {vals}\n")
        with pytest.raises(GraphFormatError, match="VGRAPH"):
            load_view_graph(path)

    def test_slightly_off_manifold_reprojected(self, tmp_path):
        path = tmp_path / "g.vg"
        m = np.eye(3) + 1e-7 * np.ones((3, 3))
        vals = " ".join("%.17g" % v for v in m.ravel())
        path.write_text(f"VGRAPH 1 2\nEDGE 0 1 {vals}\n")
        g = load_view_graph(path)
        assert so3.is_rotation(g.edges[0].rel)

    def test_far_off_manifold_rejected(self, tmp_path):
        path = tmp_path / "g.vg"
        vals = " ".join(str(v) for v in (2 * np.eye(3)).ravel())
        path.write_text(f"VGRAPH 1 2\nEDGE 0 1 {vals}\n")
        with pytest.raises(GraphFormatError, match="off SO"):
            load_view_graph(path)

    def test_overflowing_rotation_rejected_without_warning(self, tmp_path):
        """Entries too large to square are off SO(3): a RowError or a
        GraphFormatError, not numpy's overflow RuntimeWarning."""
        rel = np.eye(3)
        rel[0] = [1e200, -1e200, 0.0]
        path = tmp_path / "r.rot"
        path.write_text(f"ROT 0 {fmt(np.eye(3))}\nROT 1 {fmt(rel)}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RowError, match=r"edge \(0,1\): relative rotation off SO"):
                ViewGraph.from_arrays(2, [0], [1], rel[None])
            with pytest.raises(GraphFormatError, match="line 2: rotation off SO"):
                load_rotations(path)

    def test_rotation_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        stack = np.stack([so3.random_rotation(rng) for _ in range(4)])
        path = tmp_path / "r.rot"
        save_rotations(stack, path)
        np.testing.assert_array_equal(load_rotations(path), stack)

    def test_rotation_file_missing_id(self, tmp_path):
        path = tmp_path / "r.rot"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"ROT 0 {vals}\nROT 2 {vals}\n")
        with pytest.raises(GraphFormatError, match=r"missing camera ids \[1\]"):
            load_rotations(path)

    def test_rotation_file_large_id_fails_fast(self, tmp_path):
        """A two-line file with id 10^6 names a few missing ids and their count; the
        check builds no set of every id up to the largest."""
        path = tmp_path / "r.rot"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"ROT 0 {vals}\nROT 1000000 {vals}\n")
        tracemalloc.start()
        try:
            with pytest.raises(GraphFormatError) as info:
                load_rotations(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "missing camera ids [1, 2, 3, 4, 5] and 999994 more"
        assert peak < 1 << 20

    def test_rotation_file_duplicate_id(self, tmp_path):
        path = tmp_path / "r.rot"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"ROT 0 {vals}\nROT 0 {vals}\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_rotations(path)


def fmt(values):
    return " ".join("%.17g" % v for v in np.ravel(values))


def vg_lines(rng, filler=0):
    """A valid .vg file as lines: header, a comment, `filler` edges from camera 6,
    every third without a Hessian, then six EDGE lines among cameras 0-5."""
    six = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
    six = [f"EDGE {i} {j} {fmt(so3.random_rotation(rng))} H {fmt(random_spd(rng))}" for i, j in six]
    rel = so3.quaternion_rotation(rng.standard_normal((filler, 4)))
    v = so3.quaternion_rotation(rng.standard_normal((filler, 4)))
    hess = v * rng.uniform(1.0, 10.0, (filler, 1, 3)) @ np.swapaxes(v, 1, 2)
    edges = [f"EDGE 6 {7 + k} {fmt(rel[k])}" + (f" H {fmt(hess[k])}" if k % 3 != 2 else "")
             for k in range(filler)]
    return [f"VGRAPH 1 {vg_cameras(filler)}", "# edges"] + edges + six


def vg_cameras(filler):
    """The camera count of vg_lines(rng, filler)."""
    return 7 + filler if filler else 6


def bad_vg_line(kind, line, n=6):
    """Line `line` of vg_lines with one fault of the named kind; `n` is the file's camera count."""
    tok = line.split()
    if kind == "malformed":
        return " ".join(tok[:8])
    if kind == "non-integer":
        tok[1] = "x"
    elif kind == "non-float":
        tok[5] = "one"
    elif kind == "range":
        tok[2] = str(n)
    elif kind == "rot-nan":
        tok[3] = "nan"
    elif kind == "rot-off":
        tok[3:12] = fmt(2 * np.eye(3)).split()
    elif kind == "self-edge":
        tok[2] = tok[1]
    elif kind == "order":
        tok[1], tok[2] = tok[2], tok[1]
    elif kind == "hess-inf":
        tok[13] = "inf"
    elif kind == "asymmetric":
        tok[14] = str(float(tok[14]) + 1.0)
    elif kind == "indefinite":
        tok[13:22] = fmt(np.diag([1.0, 1.0, -1.0])).split()
    elif kind == "duplicate":
        tok[1:3] = ["0", "1"]
    elif kind == "unknown-record":
        tok[0] = "EDGES"
    elif kind == "second-header":
        return "VGRAPH 1 6"
    return " ".join(tok)


VG_FAULTS = {
    "malformed": "malformed EDGE line", "non-integer": "invalid literal", "non-float": "could not convert",
    "range": "outside vertex range", "rot-nan": "relative rotation not finite", "rot-off": "rotation off SO",
    "self-edge": "self-edge", "order": "canonical", "hess-inf": "Hessian not finite",
    "asymmetric": "Hessian not symmetric", "indefinite": "Hessian not PSD",
    "duplicate": r"duplicate edge \(0,1\)", "unknown-record": "unknown record",
    "second-header": "second VGRAPH header",
}


def rot_lines(rng, filler=0):
    """ROT lines for cameras 0 to 5 + filler; the last six rotations are drawn first."""
    six = [so3.random_rotation(rng) for _ in range(6)]
    rot = [*so3.quaternion_rotation(rng.standard_normal((filler, 4))), *six]
    return [f"ROT {k} {fmt(r)}" for k, r in enumerate(rot)]


def bad_rot_line(kind, line):
    tok = line.split()
    if kind == "malformed":
        tok = tok[:10]
    elif kind == "non-integer":
        tok[1] = "x"
    elif kind == "non-float":
        tok[4] = "one"
    elif kind == "negative-id":
        tok[1] = "-1"
    elif kind == "duplicate-id":
        tok[1] = "0"
    elif kind == "rot-nan":
        tok[2] = "nan"
    elif kind == "rot-off":
        tok[2:11] = fmt(2 * np.eye(3)).split()
    return " ".join(tok)


ROT_FAULTS = {
    "malformed": "malformed ROT line", "non-integer": "invalid literal", "non-float": "could not convert",
    "negative-id": "negative camera id", "duplicate-id": "duplicate camera id 0",
    "rot-nan": "rotation off SO", "rot-off": "rotation off SO",
}


def write_with_faults(tmp_path, lines, bad_line, faults):
    """Write `lines` with each (kind, line number) fault applied; return the path."""
    lines = list(lines)
    for kind, lineno in faults:
        lines[lineno - 1] = bad_line(kind, lines[lineno - 1])
    path = tmp_path / "input.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


# Rows ahead of the six lines the fault tests edit: none, or enough to put those six in the
# third block of EDGE_BLOCK rows, after two blocks that convert cleanly.
FILLERS = (0, 2 * EDGE_BLOCK)


class TestLoaderNamesFirstBadLine:
    def test_valid_files_load(self, tmp_path):
        rng = np.random.default_rng(30)
        for filler in FILLERS:
            lines = vg_lines(rng, filler)
            g = load_view_graph(write_with_faults(tmp_path, lines, None, []))
            assert len(g.edges) == 6 + filler
            np.testing.assert_array_equal(g.has_hessian, [" H " in line for line in lines[2:]])
            rot = load_rotations(write_with_faults(tmp_path, rot_lines(rng, filler), None, []))
            assert rot.shape == (6 + filler, 3, 3)

    @pytest.mark.parametrize("kind", VG_FAULTS)
    def test_view_graph_fault(self, tmp_path, kind):
        for filler in FILLERS:
            path = write_with_faults(tmp_path, vg_lines(np.random.default_rng(31), filler),
                                     functools.partial(bad_vg_line, n=vg_cameras(filler)), [(kind, 6 + filler)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GraphFormatError, match=f"line {6 + filler}: .*{VG_FAULTS[kind]}"):
                    load_view_graph(path)

    @pytest.mark.parametrize("kind", ROT_FAULTS)
    def test_rotation_fault(self, tmp_path, kind):
        for filler in FILLERS:
            path = write_with_faults(tmp_path, rot_lines(np.random.default_rng(32), filler), bad_rot_line,
                                     [(kind, 4 + filler)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GraphFormatError, match=f"line {4 + filler}: .*{ROT_FAULTS[kind]}"):
                    load_rotations(path)

    @pytest.mark.parametrize(
        "first, second",
        [("rot-nan", "malformed"), ("malformed", "rot-nan"), ("indefinite", "rot-off"),
         ("rot-off", "duplicate"), ("hess-inf", "unknown-record"), ("order", "asymmetric"),
         ("non-float", "malformed"), ("range", "non-float")],
    )
    def test_view_graph_two_faults_earlier_line(self, tmp_path, first, second):
        """With filler rows, the first fault is in the second block and the second in the third."""
        for filler in FILLERS:
            lines = vg_lines(np.random.default_rng(33), filler)
            faults = [(first, 5 + filler // 2), (second, 7 + filler)]
            path = write_with_faults(tmp_path, lines, functools.partial(bad_vg_line, n=vg_cameras(filler)), faults)
            with pytest.raises(GraphFormatError, match=f"line {5 + filler // 2}: .*{VG_FAULTS[first]}"):
                load_view_graph(path)

    @pytest.mark.parametrize(
        "first, second",
        [("rot-nan", "malformed"), ("negative-id", "rot-off"), ("rot-off", "duplicate-id"),
         ("non-float", "negative-id"), ("duplicate-id", "non-float")],
    )
    def test_rotation_two_faults_earlier_line(self, tmp_path, first, second):
        for filler in FILLERS:
            lines = rot_lines(np.random.default_rng(34), filler)
            faults = [(first, 3 + filler // 2), (second, 5 + filler)]
            path = write_with_faults(tmp_path, lines, bad_rot_line, faults)
            with pytest.raises(GraphFormatError, match=f"line {3 + filler // 2}: .*{ROT_FAULTS[first]}"):
                load_rotations(path)

    def test_refused_number_on_a_bad_id_line_is_named(self, tmp_path):
        """A ROT line with a bad id and a refused number reports the number, as the
        per-line parser did, which converted the numbers before checking the id."""
        lines = rot_lines(np.random.default_rng(36))
        path = write_with_faults(tmp_path, lines, bad_rot_line, [("negative-id", 4), ("non-float", 4)])
        with pytest.raises(GraphFormatError, match="line 4: could not convert string to float: 'one'"):
            load_rotations(path)

    def test_save_is_byte_identical_to_per_edge_format(self, tmp_path):
        """The writer formats every value with %.17g, as one f-string per edge did,
        and the arrays it wrote load back equal, over one block and over three."""
        for filler in FILLERS:
            lines = vg_lines(np.random.default_rng(35), filler)
            g = load_view_graph(write_with_faults(tmp_path, lines, None, []))
            out = tmp_path / "again.vg"
            save_view_graph(g, out)
            assert out.read_text().splitlines() == [lines[0]] + lines[2:]
            back = load_view_graph(out)
            for name in ("i_idx", "j_idx", "rel", "hess", "has_hessian"):
                np.testing.assert_array_equal(getattr(back, name), getattr(g, name))


class TestSaveViewGraph:
    def test_memory_does_not_grow_with_the_edges(self, tmp_path):
        """The writer holds one block of lines, not the whole file: its traced peak
        on eight blocks is within 256 KB of its peak on two (2.0 MB each,
        measured), where a writer that joins every line first takes about 1.9 KB
        more per edge, 11.8 MB more on eight blocks."""
        def traced_peak(edges):
            rng = np.random.default_rng(37)
            v = so3.quaternion_rotation(rng.standard_normal((edges, 4)))
            hess = v * rng.uniform(1.0, 10.0, (edges, 1, 3)) @ np.swapaxes(v, 1, 2)
            rel = so3.quaternion_rotation(rng.standard_normal((edges, 4)))
            g = ViewGraph.from_arrays(edges + 1, np.zeros(edges, dtype=int), np.arange(1, edges + 1), rel, hess)
            path = tmp_path / f"{edges}.vg"
            gc.collect()  # a collection inside the traced call moves its peak by up to 0.4 MB
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                save_view_graph(g, path)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert len(path.read_text().splitlines()) == edges + 1
            return peak

        small = traced_peak(2 * EDGE_BLOCK)
        assert traced_peak(8 * EDGE_BLOCK) < small + 256 * 1024

    def test_graph_without_cameras_is_refused(self, tmp_path):
        """The loader refuses a camera count of 0, so the writer does not write one."""
        path = tmp_path / "empty.vg"
        with pytest.raises(ValueError, match="0 cameras: the VGRAPH header needs a positive camera count"):
            save_view_graph(ViewGraph(0), path)
        assert not path.exists()
        path.write_text("VGRAPH 1 0\n")
        with pytest.raises(GraphFormatError, match="line 1: camera count 0 is not positive"):
            load_view_graph(path)
