"""Command-line front end: synth, solve, eval, bench subcommands.

Exit codes: 0 success, 1 runtime/configuration failure, 2 usage error.
Every run can emit a JSON manifest capturing the resolved configuration,
seeds, paths and stage timings, sufficient to reproduce the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, metrics, synth
from .robust import RobustConfig, write_robust_trace_csv
from .solver import SolverConfig, write_trace_csv
from .pipeline import run_per_component, run_pipeline
from .viewgraph import load_rotations, load_view_graph, save_rotations, save_view_graph


def _write_manifest(args, timings_ms) -> None:
    """Write the run's manifest to --manifest, if given."""
    if not args.manifest:
        return
    payload = {
        "subcommand": args.subcommand,
        "config": {**vars(args), "func": None},
        "timings_ms": timings_ms,
        "version": __version__,
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
    t0 = time.perf_counter()
    scene = synth.generate_scene(spec)
    graph = scene.graph
    if args.perturb_sigma_deg > 0 or args.perturb_gamma > 0:
        graph = synth.perturbed_graph(
            scene, args.perturb_sigma_deg, args.perturb_gamma, args.seed + 1
        )
    gen_ms = (time.perf_counter() - t0) * 1e3
    save_view_graph(graph, args.out)
    if args.gt:
        save_rotations(scene.ground_truth, args.gt)
    _write_manifest(args, {"generate": gen_ms})
    print(f"wrote {len(graph.edges)} edges for {graph.n} cameras to {args.out}")
    return 0


def cmd_solve(args) -> int:
    graph = load_view_graph(getattr(args, "in"))
    needs_hessians = args.mode == "aniso" or args.robust == "airls"
    if needs_hessians and not graph.has_hessians:
        raise ValueError(
            "mode 'aniso' / robust 'airls' require a Hessian on every edge"
        )
    sizes = [len(c) for c in graph.components()]
    if len(sizes) > 1 and not args.per_component:
        raise ValueError(
            f"graph is disconnected (component sizes {sizes}); "
            "pass --per-component to solve components independently"
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

    if len(sizes) > 1:
        save_rotations(run_per_component(graph, cfg, args.robust, robust_cfg), args.out)
        _write_manifest(args, {})
        print(f"solved {graph.n} cameras per-component")
        return 0

    result = run_pipeline(graph, cfg, args.robust, robust_cfg)
    save_rotations(result.rotations, args.out)
    if args.trace:
        write_trace_csv(result.solve, args.trace)
    if args.robust_trace and result.refine is not None:
        write_robust_trace_csv(result.refine, args.robust_trace)
    _write_manifest(args, result.timings_ms)
    print(
        f"solved {graph.n} cameras in {result.solve.sweeps_run} sweeps "
        f"({result.solve.status})"
    )
    return 0


def cmd_eval(args) -> int:
    est = load_rotations(args.est)
    gt = load_rotations(args.gt)
    if est.shape != gt.shape:
        raise ValueError(
            f"camera count mismatch: {est.shape[0]} estimated vs {gt.shape[0]} ground truth"
        )
    thresholds = [float(t) for t in args.auc.split(",") if t]
    report = metrics.evaluate(est, gt, thresholds)
    metrics.write_metrics_json(report, args.out)
    _write_manifest(args, {})
    print(
        f"rms {report.rms_deg:.6g} deg, aa {report.aa_percent:.4g}%, "
        + ", ".join(f"auc@{t:g} {v:.4g}%" for t, v in report.auc_percent.items())
    )
    return 0


def _bench_timings(n, p, sweeps, robust_kind, seed) -> dict[str, float]:
    spec = synth.SceneSpec(kind="general", n=n, p=p, seed=seed)
    scene = synth.generate_scene(spec)
    cfg = SolverConfig(
        init="zeros", max_sweeps=sweeps, objective_tol=1e-300,
        step_tol_deg=1e-300, shuffle_seed=seed, mode="aniso",
    )
    return run_pipeline(scene.graph, cfg, robust_kind).timings_ms


def cmd_bench(args) -> int:
    configs = []
    for item in args.sizes.split(","):
        n_str, p_str = item.split(":")
        configs.append((int(n_str), float(p_str)))
    rows = []
    for n, p in configs:
        name = f"n{n}_p{p:g}"
        per_stage: dict[str, list[float]] = {}
        for rep in range(args.repeats):
            timings = _bench_timings(n, p, args.sweeps, args.robust, args.seed + rep)
            for stage, ms in timings.items():
                rows.append((name, stage, str(rep), ms))
                per_stage.setdefault(stage, []).append(ms)
        for stage, vals in per_stage.items():
            rows.append((name, stage, "median", float(np.median(vals))))
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("config,stage,rep,millis\n")
        for cname, stage, rep, ms in rows:
            f.write(f"{cname},{stage},{rep},{ms:.6g}\n")
    _write_manifest(args, {})
    print(f"wrote {len(rows)} timing rows to {args.out}")
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
    p_solve.add_argument("--tau-deg", type=float, default=5.0)
    p_solve.add_argument("--max-sweeps", type=int, default=1000)
    p_solve.add_argument("--obj-tol", type=float, default=1e-12)
    p_solve.add_argument("--step-tol", type=float, default=1e-7)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--per-component", action="store_true")
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

    p_bench = sub.add_parser("bench", help="time solver stages over scene sizes")
    p_bench.add_argument(
        "--sizes", required=True, help="comma-separated n:p pairs, e.g. 100:0.5,200:1.0"
    )
    p_bench.add_argument("--sweeps", type=int, default=100)
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--robust", choices=["none", "irls", "airls"], default="none")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True, help="timing CSV path")
    p_bench.add_argument("--manifest", default=None)
    p_bench.set_defaults(func=cmd_bench)

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
