"""Tests for the view-graph data model, block assembly, trees, and file I/O."""

import warnings

import numpy as np
import pytest

from rotavg import so3
from rotavg.viewgraph import (
    ConnectionBlocks,
    EdgeMeasurement,
    GraphFormatError,
    RowError,
    ViewGraph,
    anisotropic_weight,
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
        with pytest.raises(ValueError, match=r"component sizes \[2, 2\]"):
            g.require_connected()

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
    def test_identity(self):
        np.testing.assert_allclose(anisotropic_weight(np.eye(3)), 0.5 * np.eye(3))

    def test_diagonal(self):
        got = anisotropic_weight(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(got, np.diag([2.0, 1.0, 0.0]))

    def test_twice_identity_gives_identity(self):
        np.testing.assert_allclose(anisotropic_weight(2 * np.eye(3)), np.eye(3))

    def test_linear(self):
        rng = np.random.default_rng(0)
        h1, h2 = random_spd(rng), random_spd(rng)
        got = anisotropic_weight(2.0 * h1 + 3.0 * h2)
        want = 2.0 * anisotropic_weight(h1) + 3.0 * anisotropic_weight(h2)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_trace_halved(self):
        h = random_spd(np.random.default_rng(1))
        assert np.trace(anisotropic_weight(h)) == pytest.approx(0.5 * np.trace(h))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            anisotropic_weight(np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1.0]]))

    def test_stack_matches_single(self):
        rng = np.random.default_rng(6)
        hs = np.stack([random_spd(rng) for _ in range(5)])
        got = anisotropic_weight(hs)
        for h, m in zip(hs, got):
            np.testing.assert_array_equal(m, anisotropic_weight(h))

    def test_rejects_asymmetric_in_stack(self):
        hs = np.stack([np.eye(3), np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1.0]])])
        with pytest.raises(ValueError, match="symmetric"):
            anisotropic_weight(hs)


class TestClampPsd:
    def test_spd_unchanged(self):
        h = random_spd(np.random.default_rng(2))
        np.testing.assert_allclose(clamp_psd(h), h)

    def test_clamps_negative_eigenvalue(self):
        h = np.diag([3.0, 2.0, -1e-12])
        out = clamp_psd(h)
        assert np.linalg.eigvalsh(out).min() > 0
        np.linalg.cholesky(out)  # must succeed


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
            m = anisotropic_weight(edge.hessian) if mode == "aniso" else np.eye(3)
            np.testing.assert_array_equal(nb.lower[e], m @ edge.rel)

    def test_rejects_unknown_mode(self):
        g = ViewGraph(2, [EdgeMeasurement(0, 1, np.eye(3))])
        with pytest.raises(ValueError, match="mode"):
            assemble_blocks(g, "blended")


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
        tree, root = spanning_tree(self.loop_graph(8))
        assert len(tree) == 7
        assert root == 0

    def test_path_is_its_own_tree(self):
        g = ViewGraph(4, [EdgeMeasurement(k, k + 1, np.eye(3)) for k in range(3)])
        tree, _ = spanning_tree(g)
        assert sorted((e.i, e.j) for e in tree) == [(0, 1), (1, 2), (2, 3)]

    def test_deterministic(self):
        g = self.loop_graph(10, np.random.default_rng(6))
        t1, _ = spanning_tree(g)
        t2, _ = spanning_tree(g)
        assert [(e.i, e.j) for e in t1] == [(e.i, e.j) for e in t2]

    def test_acyclic_connected(self):
        rng = np.random.default_rng(7)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.7]
        pairs += [(k, k + 1) for k in range(5) if (k, k + 1) not in pairs]
        g = ViewGraph(6, [EdgeMeasurement(i, j, np.eye(3)) for i, j in sorted(set(pairs))])
        tree, _ = spanning_tree(g)
        assert len(tree) == 5
        assert ViewGraph(6, tree).is_connected()

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
        tree, _ = spanning_tree(ViewGraph(9, edges))
        assert [(e.i, e.j) for e in tree] == want

    def test_disconnected_error_lists_sizes(self):
        g = ViewGraph(4, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(2, 3, np.eye(3))])
        with pytest.raises(ValueError, match=r"component sizes \[2, 2\]"):
            spanning_tree(g)


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
        edges = [EdgeMeasurement(0, 1, rz(10)), EdgeMeasurement(2, 3, rz(20))]
        g = ViewGraph(4, edges)
        with pytest.raises(ValueError, match="tree does not span"):
            chain_init(g, (edges, 0))

    def test_root_and_edge_orientation(self):
        """Rooted at 2: camera 1 is reached against its edge, camera 0 along it."""
        g = ViewGraph(3, [EdgeMeasurement(0, 1, rz(10)), EdgeMeasurement(1, 2, rz(20))])
        stack = chain_init(g, (list(g.edges), 2))
        np.testing.assert_allclose(stack[1], rz(-20), atol=1e-15)
        np.testing.assert_allclose(stack[0], rz(-30), atol=1e-15)


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

    def test_rotation_file_duplicate_id(self, tmp_path):
        path = tmp_path / "r.rot"
        vals = " ".join(str(v) for v in np.eye(3).ravel())
        path.write_text(f"ROT 0 {vals}\nROT 0 {vals}\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_rotations(path)


def fmt(values):
    return " ".join("%.17g" % v for v in np.ravel(values))


def vg_lines(rng):
    """A valid .vg file as lines: header, a comment, then six EDGE lines."""
    pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
    return ["VGRAPH 1 6", "# six edges"] + [
        f"EDGE {i} {j} {fmt(so3.random_rotation(rng))} H {fmt(random_spd(rng))}" for i, j in pairs
    ]


def bad_vg_line(kind, line):
    """Line `line` of vg_lines with one fault of the named kind."""
    tok = line.split()
    if kind == "malformed":
        return " ".join(tok[:8])
    if kind == "non-integer":
        tok[1] = "x"
    elif kind == "non-float":
        tok[5] = "one"
    elif kind == "range":
        tok[2] = "6"
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


def rot_lines(rng):
    return [f"ROT {k} {fmt(so3.random_rotation(rng))}" for k in range(6)]


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


class TestLoaderNamesFirstBadLine:
    def test_valid_files_load(self, tmp_path):
        rng = np.random.default_rng(30)
        assert len(load_view_graph(write_with_faults(tmp_path, vg_lines(rng), None, [])).edges) == 6
        assert load_rotations(write_with_faults(tmp_path, rot_lines(rng), None, [])).shape == (6, 3, 3)

    @pytest.mark.parametrize("kind", VG_FAULTS)
    def test_view_graph_fault(self, tmp_path, kind):
        path = write_with_faults(tmp_path, vg_lines(np.random.default_rng(31)), bad_vg_line, [(kind, 6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError, match=f"line 6: .*{VG_FAULTS[kind]}"):
                load_view_graph(path)

    @pytest.mark.parametrize("kind", ROT_FAULTS)
    def test_rotation_fault(self, tmp_path, kind):
        path = write_with_faults(tmp_path, rot_lines(np.random.default_rng(32)), bad_rot_line, [(kind, 4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFormatError, match=f"line 4: .*{ROT_FAULTS[kind]}"):
                load_rotations(path)

    @pytest.mark.parametrize(
        "first, second",
        [("rot-nan", "malformed"), ("malformed", "rot-nan"), ("indefinite", "rot-off"),
         ("rot-off", "duplicate"), ("hess-inf", "unknown-record"), ("order", "asymmetric")],
    )
    def test_view_graph_two_faults_earlier_line(self, tmp_path, first, second):
        lines = vg_lines(np.random.default_rng(33))
        path = write_with_faults(tmp_path, lines, bad_vg_line, [(first, 5), (second, 7)])
        with pytest.raises(GraphFormatError, match=f"line 5: .*{VG_FAULTS[first]}"):
            load_view_graph(path)

    @pytest.mark.parametrize(
        "first, second",
        [("rot-nan", "malformed"), ("negative-id", "rot-off"), ("rot-off", "duplicate-id")],
    )
    def test_rotation_two_faults_earlier_line(self, tmp_path, first, second):
        lines = rot_lines(np.random.default_rng(34))
        path = write_with_faults(tmp_path, lines, bad_rot_line, [(first, 3), (second, 5)])
        with pytest.raises(GraphFormatError, match=f"line 3: .*{ROT_FAULTS[first]}"):
            load_rotations(path)

    def test_save_is_byte_identical_to_per_edge_format(self, tmp_path):
        """The writer formats every value with %.17g, as one f-string per edge did."""
        lines = vg_lines(np.random.default_rng(35))
        path = write_with_faults(tmp_path, lines, None, [])
        out = tmp_path / "again.vg"
        save_view_graph(load_view_graph(path), out)
        assert out.read_text().splitlines() == [lines[0]] + lines[2:]
