"""Tests for the view-graph data model, block assembly, trees, and file I/O."""

import warnings

import numpy as np
import pytest

from rotavg import so3
from rotavg.viewgraph import (
    ConnectionBlocks,
    EdgeMeasurement,
    GraphFormatError,
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

    def test_components_and_connectivity(self):
        g = ViewGraph(5, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(3, 4, np.eye(3))])
        assert g.components() == [[0, 1], [2], [3, 4]]
        assert not g.is_connected()
        g2 = ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(1, 2, np.eye(3))])
        assert g2.is_connected()

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
        nb = assemble_blocks(g, "aniso")
        np.testing.assert_allclose(nb.block(1, 0), r, atol=1e-15)
        np.testing.assert_allclose(nb.block(0, 1), r.T, atol=1e-15)

    def test_iso_blocks_equal_measurements(self):
        rng = np.random.default_rng(3)
        rels = [so3.random_rotation(rng) for _ in range(2)]
        g = ViewGraph(3, [EdgeMeasurement(0, 1, rels[0]), EdgeMeasurement(1, 2, rels[1])])
        nb = assemble_blocks(g, "iso")
        np.testing.assert_array_equal(nb.block(1, 0), rels[0])
        np.testing.assert_array_equal(nb.block(2, 1), rels[1])

    def test_path_graph_block_structure(self):
        g = ViewGraph(3, [EdgeMeasurement(0, 1, np.eye(3)), EdgeMeasurement(1, 2, np.eye(3))])
        nb = assemble_blocks(g, "iso")
        assert nb.num_edges == 2  # 4 directed blocks, 2 stored
        for k in range(3):
            np.testing.assert_array_equal(nb.block(k, k), np.zeros((3, 3)))
        np.testing.assert_array_equal(nb.block(0, 2), np.zeros((3, 3)))

    def test_symmetry_invariant(self):
        rng = np.random.default_rng(4)
        g = ViewGraph(
            4,
            [
                EdgeMeasurement(i, j, so3.random_rotation(rng), random_spd(rng))
                for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]
            ],
        )
        nb = assemble_blocks(g, "aniso")
        for i in range(4):
            for j in range(4):
                np.testing.assert_array_equal(nb.block(i, j), nb.block(j, i).T)

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


IDENTITY = " ".join(str(v) for v in np.eye(3).ravel())
NAN_OFF_DIAGONAL = "1 nan 0 nan 1 0 0 0 1"


class TestFileIO:
    @pytest.mark.parametrize(
        "load, text, match",
        [
            (load_view_graph, "VGRAPH 1 2\nEDGE 0 1 nan 0 0 0 1 0 0 0 1\n", "line 2: rotation off SO"),
            (load_view_graph, "VGRAPH 1 2\nEDGE 0 1 inf 0 0 0 1 0 0 0 1\n", "line 2: rotation off SO"),
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
