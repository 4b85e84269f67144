"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from rotavg import robust, so3
from rotavg.cli import main
from rotavg.synth import SceneSpec, generate_scene, perturbed_graph
from rotavg.viewgraph import load_rotations, load_view_graph, save_view_graph


def run(argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_loop_scene_files(self, tmp_path):
        vg, gt = tmp_path / "s.vg", tmp_path / "s.rot"
        code = run(["synth", "--kind", "loop", "--n", 100, "--seed", 7,
                    "--out", vg, "--gt", gt])
        assert code == 0
        g = load_view_graph(vg)
        assert g.n == 100 and len(g.edges) == 100
        assert load_rotations(gt).shape == (100, 3, 3)

    def test_complete_general_scene(self, tmp_path):
        vg = tmp_path / "g.vg"
        code = run(["synth", "--kind", "general", "--n", 100, "--p", 1.0,
                    "--seed", 1, "--out", vg])
        assert code == 0
        assert len(load_view_graph(vg).edges) == 4950

    def test_byte_identical_reruns(self, tmp_path):
        args = ["synth", "--kind", "general", "--n", 30, "--p", 0.4, "--seed", 3]
        a, b = tmp_path / "a.vg", tmp_path / "b.vg"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        vg, man = tmp_path / "s.vg", tmp_path / "m.json"
        assert run(["synth", "--kind", "loop", "--n", 10, "--seed", 0,
                    "--out", vg, "--manifest", man]) == 0
        data = json.loads(man.read_text())
        assert data["subcommand"] == "synth"
        assert data["config"]["seed"] == 0
        assert set(data["timings_ms"]) == {"generate", "save"} and "version" in data
        assert all(t >= 0 for t in data["timings_ms"].values())

    @pytest.mark.parametrize("argv, field", [(["--kind", "loop", "--n", 2], "number of cameras n"),
                                             (["--kind", "general", "--seed", -1], "seed")])
    def test_invalid_spec_exit_1(self, tmp_path, capsys, argv, field):
        vg = tmp_path / "s.vg"
        assert run(["synth", *argv, "--out", vg]) == 1
        assert f"error: {field}" in capsys.readouterr().err
        assert not vg.exists()

    def test_perturbed_scene_is_perturbed_graph(self, tmp_path):
        args = ["synth", "--kind", "general", "--n", 30, "--p", 0.4, "--seed", 3]
        vg, want = tmp_path / "p.vg", tmp_path / "want.vg"
        assert run(args + ["--perturb-sigma-deg", 10, "--perturb-gamma", 0.2, "--out", vg]) == 0
        scene = generate_scene(SceneSpec(kind="general", n=30, p=0.4, seed=3))
        save_view_graph(perturbed_graph(scene, 10.0, 0.2, 4), want)
        assert vg.read_bytes() == want.read_bytes()

    def test_nan_noise_scale_exit_1(self, tmp_path, capsys):
        vg = tmp_path / "s.vg"
        code = run(["synth", "--kind", "loop", "--n", 5, "--noise-scale", "nan", "--out", vg])
        assert code == 1
        assert "noise_scale" in capsys.readouterr().err
        assert not vg.exists()

    def test_unknown_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--kind", "loop", "--whatever", 1, "--out", tmp_path / "x"])
        assert exc.value.code == 2


class TestSolveEval:
    @pytest.fixture()
    def noiseless_loop(self, tmp_path):
        vg, gt = tmp_path / "s.vg", tmp_path / "s.rot"
        run(["synth", "--kind", "loop", "--n", 40, "--noise-scale", 0.0,
             "--seed", 5, "--out", vg, "--gt", gt])
        return vg, gt

    def test_exact_recovery_round_trip(self, noiseless_loop, tmp_path):
        vg, gt = noiseless_loop
        est, mj = tmp_path / "e.rot", tmp_path / "m.json"
        assert run(["solve", "--in", vg, "--init", "zeros", "--mode", "aniso",
                    "--out", est]) == 0
        assert run(["eval", "--est", est, "--gt", gt, "--out", mj]) == 0
        data = json.loads(mj.read_text())
        assert data["rms_deg"] <= 1e-6
        assert data["aa"] == pytest.approx(100.0)

    @pytest.mark.parametrize("robust, keys", [("none", {"load", "assemble", "solve", "save"}),
                                              ("irls", {"load", "assemble", "solve", "refine", "save"})])
    def test_manifest_timings(self, noiseless_loop, tmp_path, robust, keys):
        vg, _ = noiseless_loop
        man = tmp_path / "m.json"
        assert run(["solve", "--in", vg, "--robust", robust, "--out", tmp_path / "e.rot",
                    "--manifest", man]) == 0
        manifest = json.loads(man.read_text())
        timings = manifest["timings_ms"]
        assert set(timings) == keys and all(t >= 0 for t in timings.values())
        solve = manifest["solve"]
        assert set(solve) == {"status", "sweeps", "newton_steps", "objective"}
        assert solve["status"] == "converged" and solve["sweeps"] >= 1

    def test_solve_message_counts_sweeps_and_newton_steps(self, tmp_path, capsys):
        vg, man = tmp_path / "g.vg", tmp_path / "m.json"
        assert run(["synth", "--kind", "general", "--n", 60, "--p", 0.2, "--seed", 5, "--out", vg]) == 0
        assert run(["solve", "--in", vg, "--out", tmp_path / "e.rot", "--manifest", man]) == 0
        solve = json.loads(man.read_text())["solve"]
        assert solve["newton_steps"] >= 1
        assert capsys.readouterr().out.endswith(
            f"in {solve['sweeps']} sweeps and {solve['newton_steps']} Newton steps (converged)\n")

    def test_per_component_manifest_timings(self, tmp_path):
        """--per-component runs the one pipeline: full timings, the solve record and both traces."""
        vg, man = tmp_path / "two.vg", tmp_path / "m.json"
        trace, rtrace = tmp_path / "t.csv", tmp_path / "r.csv"
        rot = " ".join("%.17g" % v for v in np.eye(3).ravel())
        vg.write_text(f"VGRAPH 1 4\nEDGE 0 1 {rot}\nEDGE 2 3 {rot}\n")
        with pytest.warns(UserWarning, match="unreachable from the seeded component"):
            assert run(["solve", "--in", vg, "--mode", "iso", "--per-component", "--robust", "irls",
                        "--out", tmp_path / "e.rot", "--manifest", man, "--trace", trace,
                        "--robust-trace", rtrace]) == 0
        manifest = json.loads(man.read_text())
        assert set(manifest["timings_ms"]) == {"load", "assemble", "solve", "refine", "save"}
        assert set(manifest["solve"]) == {"status", "sweeps", "newton_steps", "objective"}
        solve = manifest["solve"]
        assert len(trace.read_text().splitlines()) == solve["sweeps"] + solve["newton_steps"] + 1
        assert len(rtrace.read_text().splitlines()) >= 2

    @pytest.mark.filterwarnings("ignore:1 vertices have no incident edges")
    def test_per_component_one_camera_refine(self, tmp_path, monkeypatch):
        """One system over n - #components = 2 free cameras; the lone camera is
        pinned and keeps the identity."""
        vg, est = tmp_path / "lone.vg", tmp_path / "e.rot"
        rng = np.random.default_rng(2)
        rot = [" ".join("%.17g" % v for v in so3.random_rotation(rng).ravel()) for _ in range(3)]
        vg.write_text(f"VGRAPH 1 4\nEDGE 0 1 {rot[0]}\nEDGE 1 2 {rot[1]}\nEDGE 0 2 {rot[2]}\n")
        free_cameras, solve = [], robust.solve_normal_equations
        monkeypatch.setattr(robust, "solve_normal_equations",
                            lambda p, *a: free_cameras.append(p.m) or solve(p, *a))
        assert run(["solve", "--in", vg, "--mode", "iso", "--per-component", "--robust", "irls",
                    "--out", est]) == 0
        assert free_cameras and set(free_cameras) == {2}
        assert np.array_equal(load_rotations(est)[3], np.eye(3))

    @pytest.mark.filterwarnings("ignore:1 vertices have no incident edges")
    def test_disconnected_graph_needs_per_component(self, tmp_path, capsys):
        vg, est = tmp_path / "three.vg", tmp_path / "e.rot"
        rng = np.random.default_rng(4)
        rels = [so3.random_rotation(rng) for _ in range(4)]
        rot = [" ".join("%.17g" % v for v in r.ravel()) for r in rels]
        vg.write_text(f"VGRAPH 1 7\nEDGE 0 1 {rot[0]}\nEDGE 1 2 {rot[1]}\n"
                      f"EDGE 3 4 {rot[2]}\nEDGE 4 5 {rot[3]}\n")
        assert run(["solve", "--in", vg, "--mode", "iso", "--out", est]) == 1
        assert "graph is disconnected (component sizes [3, 3, 1])" in capsys.readouterr().err
        assert not est.exists()
        assert run(["solve", "--in", vg, "--mode", "iso", "--init", "mst", "--per-component",
                    "--out", est]) == 0
        got = load_rotations(est)  # two exact chains and the lone camera's identity
        for (i, j), rel in zip([(0, 1), (1, 2), (3, 4), (4, 5)], rels):
            assert so3.angular_distance_deg(got[j] @ got[i].T, rel) < 1e-8
        assert np.array_equal(got[6], np.eye(3))

    def test_eval_manifest_timings(self, noiseless_loop, tmp_path):
        _, gt = noiseless_loop
        man = tmp_path / "m.json"
        assert run(["eval", "--est", gt, "--gt", gt, "--out", tmp_path / "metrics.json",
                    "--manifest", man]) == 0
        timings = json.loads(man.read_text())["timings_ms"]
        assert set(timings) == {"load", "evaluate", "save"}
        assert all(t >= 0 for t in timings.values())

    def test_trace_files(self, noiseless_loop, tmp_path):
        vg, _ = noiseless_loop
        est = tmp_path / "e.rot"
        trace = tmp_path / "t.csv"
        rtrace = tmp_path / "r.csv"
        assert run(["solve", "--in", vg, "--robust", "irls", "--out", est,
                    "--trace", trace, "--robust-trace", rtrace]) == 0
        assert trace.read_text().splitlines()[0] == "sweep,objective,max_step_deg,newton"
        assert rtrace.read_text().splitlines()[0] == "iter,robust_cost,max_step_deg,halvings"

    def test_robust_irls_equals_solve_then_refine_default(self, noiseless_loop, tmp_path):
        vg, _ = noiseless_loop
        plain, robust = tmp_path / "p.rot", tmp_path / "r.rot"
        assert run(["solve", "--in", vg, "--robust", "none", "--out", plain]) == 0
        assert run(["solve", "--in", vg, "--robust", "irls", "--out", robust]) == 0
        # On noiseless data the refinement is a fixed point, so files agree.
        np.testing.assert_allclose(
            load_rotations(robust), load_rotations(plain), atol=1e-9
        )

    def test_aniso_without_hessians_exit_1(self, tmp_path, capsys):
        vg = tmp_path / "bare.vg"
        vals = " ".join("%.17g" % v for v in np.eye(3).ravel())
        vg.write_text(f"VGRAPH 1 2\nEDGE 0 1 {vals}\n")
        code = run(["solve", "--in", vg, "--mode", "aniso", "--out", tmp_path / "e.rot"])
        assert code == 1
        assert "Hessian" in capsys.readouterr().err

    def test_iso_airls_without_hessians_exit_1(self, tmp_path, capsys):
        vg, est = tmp_path / "bare.vg", tmp_path / "e.rot"
        eye = " ".join("%.17g" % v for v in np.eye(3).ravel())
        vg.write_text(f"VGRAPH 1 3\nEDGE 0 1 {eye} H {eye}\nEDGE 1 2 {eye}\n")
        assert run(["solve", "--in", vg, "--mode", "iso", "--robust", "airls", "--out", est]) == 1
        assert "edge (1,2) has none" in capsys.readouterr().err
        assert not est.exists()

    def test_airls_zero_hessian_exit_1(self, tmp_path, capsys):
        vg = tmp_path / "zero_h.vg"
        rot = " ".join("%.17g" % v for v in np.eye(3).ravel())
        h = {k: " ".join("%.17g" % v for v in (k * np.eye(3)).ravel()) for k in (0.0, 1.0)}
        vg.write_text(
            "VGRAPH 1 3\n"
            f"EDGE 0 1 {rot} H {h[1.0]}\n"
            f"EDGE 0 2 {rot} H {h[1.0]}\n"
            f"EDGE 1 2 {rot} H {h[0.0]}\n"
        )
        code = run(["solve", "--in", vg, "--robust", "airls", "--out", tmp_path / "e.rot"])
        assert code == 1
        err = capsys.readouterr().err
        assert "edge (1,2)" in err and "trace" in err

    def test_nan_hessian_exit_1(self, tmp_path, capsys):
        vg = tmp_path / "nan_h.vg"
        rot = " ".join("%.17g" % v for v in np.eye(3).ravel())
        h = np.eye(3)
        h[0, 1] = h[1, 0] = np.nan
        vg.write_text(f"VGRAPH 1 2\nEDGE 0 1 {rot} H {' '.join(str(v) for v in h.ravel())}\n")
        code = run(["solve", "--in", vg, "--out", tmp_path / "e.rot"])
        assert code == 1
        assert "line 2: edge (0,1): Hessian not finite" in capsys.readouterr().err

    def test_nan_tau_exit_1(self, noiseless_loop, tmp_path, capsys):
        vg, _ = noiseless_loop
        code = run(["solve", "--in", vg, "--robust", "irls", "--tau-deg", "nan",
                    "--out", tmp_path / "e.rot"])
        assert code == 1
        assert "tau_deg must be positive" in capsys.readouterr().err

    def test_eval_nan_auc_exit_1(self, noiseless_loop, tmp_path, capsys):
        vg, gt = noiseless_loop
        mj = tmp_path / "m.json"
        code = run(["eval", "--est", gt, "--gt", gt, "--auc", "1,nan", "--out", mj])
        assert code == 1
        assert "threshold must be positive" in capsys.readouterr().err
        assert not mj.exists()

    def test_eval_camera_count_mismatch_exit_1(self, noiseless_loop, tmp_path, capsys):
        vg, gt = noiseless_loop
        short = tmp_path / "short.rot"
        rows = gt.read_text().splitlines()[:-1]
        short.write_text("\n".join(rows) + "\n")
        code = run(["eval", "--est", short, "--gt", gt, "--out", tmp_path / "m.json"])
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_iso_and_h2i_identical_outputs(self, tmp_path):
        vg = tmp_path / "h2i.vg"
        rng = np.random.default_rng(9)
        # Noisy triangle with H = 2I everywhere.
        from rotavg.viewgraph import EdgeMeasurement, ViewGraph, save_view_graph

        gt = [so3.random_rotation(rng) for _ in range(3)]
        edges = [
            EdgeMeasurement(i, j, gt[j] @ gt[i].T @ so3.exp_so3(0.05 * rng.standard_normal(3)),
                            2 * np.eye(3))
            for i, j in [(0, 1), (0, 2), (1, 2)]
        ]
        save_view_graph(ViewGraph(3, edges), vg)
        iso, aniso = tmp_path / "i.rot", tmp_path / "a.rot"
        assert run(["solve", "--in", vg, "--mode", "iso", "--seed", 4, "--out", iso]) == 0
        assert run(["solve", "--in", vg, "--mode", "aniso", "--seed", 4, "--out", aniso]) == 0
        assert iso.read_bytes() == aniso.read_bytes()


def test_subcommands_are_synth_solve_eval(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "{synth,solve,eval}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--sizes", "20:0.5", "--out", "b.csv"])
    assert exc.value.code == 2
