"""Command-line front end: synth, solve, eval subcommands.

Exit codes: 0 success, 1 runtime/configuration failure, 2 usage error.
Every run can emit a JSON manifest capturing the resolved configuration,
seeds, paths and stage timings, sufficient to reproduce the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, metrics, synth
from .robust import DEFAULT_TAU_DEG, RobustConfig, write_robust_trace_csv
from .solver import (DEFAULT_MAX_SWEEPS, DEFAULT_OBJECTIVE_TOL, DEFAULT_STEP_TOL_DEG,
                     SolverConfig, write_trace_csv)
from .pipeline import run_pipeline, stage
from .viewgraph import load_rotations, load_view_graph, save_rotations, save_view_graph


def _write_manifest(args, timings_ms, **outcomes) -> None:
    """Write the run's manifest to --manifest, if given, with a record per outcome."""
    if not args.manifest:
        return
    payload = {
        "subcommand": args.subcommand,
        "config": {**vars(args), "func": None},
        "timings_ms": timings_ms,
        "version": __version__,
        **outcomes,
    }
    with open(args.manifest, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_synth(args) -> int:
    spec = synth.SceneSpec(
        kind=args.kind,
        n=args.n,
        p=args.p,
        noise_scale=args.noise_scale,
        perturb_sigma_deg=args.perturb_sigma_deg,
        perturb_gamma=args.perturb_gamma,
        seed=args.seed,
    )
    timings = {}
    with stage(timings, "generate"):
        scene = synth.generate_scene(spec)
    with stage(timings, "save"):
        save_view_graph(scene.graph, args.out)
        if args.gt:
            save_rotations(scene.ground_truth, args.gt)
    _write_manifest(args, timings)
    print(f"wrote {len(scene.graph.edges)} edges for {scene.graph.n} cameras to {args.out}")
    return 0


def cmd_solve(args) -> int:
    timings = {}
    with stage(timings, "load"):
        graph = load_view_graph(getattr(args, "in"))
    sizes = [len(c) for c in graph.components()]
    if len(sizes) > 1 and not args.per_component:
        raise ValueError(
            f"graph is disconnected (component sizes {sizes}); "
            "pass --per-component to solve each component in its own gauge"
        )

    cfg = SolverConfig(
        init=args.init,
        max_sweeps=args.max_sweeps,
        objective_tol=args.obj_tol,
        step_tol_deg=args.step_tol,
        shuffle_seed=args.seed,
        mode=args.mode,
    )
    robust_cfg = RobustConfig(tau_deg=args.tau_deg)

    result = run_pipeline(graph, cfg, args.robust, robust_cfg)
    timings.update(result.timings_ms)
    with stage(timings, "save"):
        save_rotations(result.rotations, args.out)
        if args.trace:
            write_trace_csv(result.solve, args.trace)
        if args.robust_trace and result.refine is not None:
            write_robust_trace_csv(result.refine, args.robust_trace)
    solve, newton = result.solve, sum(result.solve.newton_trace)
    _write_manifest(args, timings,
                    solve={"status": solve.status, "sweeps": solve.sweeps_run - newton,
                           "newton_steps": newton, "objective": solve.objective_trace[-1]})
    print(
        f"solved {graph.n} cameras in {solve.sweeps_run - newton} sweeps and "
        f"{newton} Newton steps ({solve.status})"
    )
    return 0


def cmd_eval(args) -> int:
    timings = {}
    with stage(timings, "load"):
        est = load_rotations(args.est)
        gt = load_rotations(args.gt)
    if est.shape != gt.shape:
        raise ValueError(
            f"camera count mismatch: {est.shape[0]} estimated vs {gt.shape[0]} ground truth"
        )
    thresholds = [float(t) for t in args.auc.split(",") if t]
    with stage(timings, "evaluate"):
        report = metrics.evaluate(est, gt, thresholds)
    with stage(timings, "save"):
        metrics.write_metrics_json(report, args.out)
    _write_manifest(args, timings)
    print(
        f"rms {report.rms_deg:.6g} deg, aa {report.aa_percent:.4g}%, "
        + ", ".join(f"auc@{t:g} {v:.4g}%" for t, v in report.auc_percent.items())
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotavg",
        description="Anisotropic rotation averaging toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--kind", choices=["loop", "general"], required=True)
    p_synth.add_argument("--n", type=int, default=100)
    p_synth.add_argument("--p", type=float, default=None)
    p_synth.add_argument("--noise-scale", type=float, default=1.0)
    p_synth.add_argument("--perturb-sigma-deg", type=float, default=0.0)
    p_synth.add_argument("--perturb-gamma", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="view-graph output path")
    p_synth.add_argument("--gt", default=None, help="ground-truth rotation file")
    p_synth.add_argument("--manifest", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_solve = sub.add_parser("solve", help="run the coordinate-descent solver")
    p_solve.add_argument("--in", required=True, help="view-graph input path")
    p_solve.add_argument(
        "--init", choices=["zeros", "identity", "random", "mst"], default="zeros"
    )
    p_solve.add_argument("--mode", choices=["iso", "aniso"], default="aniso")
    p_solve.add_argument("--robust", choices=["none", "irls", "airls"], default="none")
    p_solve.add_argument("--tau-deg", type=float, default=DEFAULT_TAU_DEG)
    p_solve.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS)
    p_solve.add_argument("--obj-tol", type=float, default=DEFAULT_OBJECTIVE_TOL)
    p_solve.add_argument("--step-tol", type=float, default=DEFAULT_STEP_TOL_DEG)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--per-component", action="store_true",
                         help="allow a disconnected graph; each component gets its own gauge")
    p_solve.add_argument("--out", required=True, help="rotation output path")
    p_solve.add_argument("--trace", default=None, help="objective trace CSV")
    p_solve.add_argument("--robust-trace", default=None, help="robust trace CSV")
    p_solve.add_argument("--manifest", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate estimates against ground truth")
    p_eval.add_argument("--est", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--auc", default="1,5", help="comma-separated thresholds, degrees")
    p_eval.add_argument("--out", required=True, help="metrics JSON path")
    p_eval.add_argument("--manifest", default=None)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime/config failures -> exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
