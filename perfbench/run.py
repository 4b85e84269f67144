"""rotavg benchmark: pinned workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload acd_sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run is a closed loop: a single client in this process solves the
workload's scenes back to back, with no worker pool, until `--seconds` have
passed (the solve in flight is finished). Scenes come only from `--seed`.
With `--trace 0` the last stdout line reports the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` each scene is solved once untraced and once
traced and the line reports the per-layer metrics, including the tracing
overhead. Earlier lines give a readable summary and the environment; the
full record, with raw spans when traced, goes to perfbench/out/.

`--smoke` runs every workload on tiny scenes in both modes and checks that
each metric prints with its unit and that the correctness gate rejects
invalid outputs. It exits 0 only if every check passes.

Set-up cost is what a user pays per scene before solving: generating it,
injecting outliers, and writing input files where the workload reads files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
# Numbers from any later claim must also hold on this seed, never used while tuning.
HELD_OUT_SEED = 104729
# reference_s() on that 2-vCPU host in its fast state; converts set-up times
# to seconds at a fixed host speed (see reference_s).
REF_NOMINAL_S = 0.2

# Cap BLAS threads at nproc before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rotavg  # noqa: E402

if not Path(rotavg.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"rotavg imported from {rotavg.__file__}, not from this checkout's src/")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, gate, read_outcome, rms_deg, scene_seeds, setup, solve  # noqa: E402


def environment(seed: int, seeds: list[int]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rotavg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": NPROC,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "scene_seeds": seeds,
    }


def reference_s() -> float:
    """Seconds for a fixed batch of 3x3 SVD projections, the ACD inner-loop mix.

    On the shared 2-vCPU host the benchmark was tuned on, speed drifted by up
    to 1.6x within minutes (a pure Python loop shows it too, with CPU time
    equal to wall time), which put a 20-35% spread on raw solve times between
    runs. Dividing each solve by this
    kernel, timed just before and after it, cancels most of the drift; the
    kernel runs no rotavg code, so a change to rotavg cannot move it.
    Set-up times are divided by the run's median kernel time and scaled by
    REF_NOMINAL_S, so that `setup_s` stays in seconds.
    """
    mats = np.random.default_rng(0).standard_normal((12000, 3, 3))
    t0 = time.perf_counter()
    for m in mats:
        u, _, vt = np.linalg.svd(m)
        u @ vt
    return time.perf_counter() - t0


def timed_solve(w, case, tracer=None, run_id=None):
    """One solve; returns (seconds, outcome or None, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = solve(w, case)
        else:
            with tracer.run(run_id):
                result = solve(w, case, tracer)
        elapsed = time.perf_counter() - t0
        outcome = read_outcome(w, case, result)
    except Exception as exc:  # a failed solve is counted, not propagated
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return elapsed, outcome, gate(outcome, case.n, w.rms_ceiling_deg)


def layer_metrics(tracer: Tracer, run_id: str, case) -> dict[str, float]:
    """Per-layer metrics of one traced solve."""
    t = tracer.layer_times(run_id)
    c = tracer.counts[run_id]

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    acd_s = total("solver.acd")
    sweeps = c["solver.sweeps"]
    iters, halvings = c["robust.iters"], c["robust.halvings"]
    return {
        "viewgraph.assemble_s": total("viewgraph.assemble"),
        "viewgraph.neighbor_tables_s": total("viewgraph.neighbor_tables"),
        "viewgraph.load_s": total("viewgraph.load"),
        "viewgraph.save_s": total("viewgraph.save"),
        "viewgraph.edges": case.edges,
        "solver.acd_s": acd_s,
        "solver.sweeps": sweeps,
        "solver.sweep_ms": 1e3 * acd_s / sweeps if sweeps else 0.0,
        "solver.update_us": 1e6 * acd_s / c["solver.camera_updates"] if sweeps else 0.0,
        "solver.objective_s": total("solver.objective"),
        "robust.refine_s": total("robust.refine"),
        "robust.iters": iters,
        "robust.halvings": halvings,
        # With no IRLS iteration nothing was wasted: report 1.
        "robust.accepted_ratio": iters / (iters + halvings) if iters else 1.0,
        "robust.normal_build_s": t.get("robust.normal_build", {}).get("self_s", 0.0),
        "robust.linsolve_s": total("robust.linsolve"),
        "robust.residuals_s": total("robust.residuals"),
        "robust.residual_calls": t.get("robust.residuals", {}).get("calls", 0),
        "so3.exp_calls": c["so3.exp_calls"],
        "so3.log_calls": c["so3.log_calls"],
        "so3.project_calls": c["so3.project_calls"],
        "metrics.evaluate_s": total("metrics.evaluate"),
        "cli.solve_s": total("cli.solve"),
        "cli.eval_s": total("cli.eval"),
        "pipeline.run_s": total("pipeline.run"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """Set up, run the closed loop for `seconds`, and return the full record."""
    w = WORKLOADS[name]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = Tracer() if traced else None
    seeds = scene_seeds(seed, w.scenes)
    try:
        # Warm-up on a tiny scene so lazy imports and first-call costs are paid.
        timed_solve(w, setup(w, seed, workdir, tiny=True))

        cases, setup_times, generate_times = [], [], []
        for k, s in enumerate(seeds):
            t0 = time.perf_counter()
            if tracer is None:
                cases.append(setup(w, s, workdir, tiny=smoke))
            else:
                with tracer.run(f"setup-{k}"):
                    cases.append(setup(w, s, workdir, tiny=smoke))
                generate_times.append(tracer.layer_times(f"setup-{k}")["synth.generate"]["total_s"])
            setup_times.append(time.perf_counter() - t0)

        walls, rel_walls, traced_walls, per_layer, failures = [], [], [], [], []
        refs = [reference_s()]
        errors = [None] * len(cases)
        deadline = time.perf_counter() + seconds
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            k = rep % len(cases)
            elapsed, outcome, failure = timed_solve(w, cases[k])
            refs.append(reference_s())
            walls.append(elapsed)
            rel_walls.append(elapsed / (0.5 * (refs[-2] + refs[-1])))
            if traced:
                run_id = f"solve-{rep}"
                t_elapsed, _, t_failure = timed_solve(w, cases[k], tracer, run_id)
                traced_walls.append(t_elapsed)
                failures.append(t_failure)
                per_layer.append(layer_metrics(tracer, run_id, cases[k]))
            failures.append(failure)
            if outcome is not None and errors[k] is None:
                errors[k] = outcome.errors_deg
            rep += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The run's median reference time stands for the host speed during set-up.
    setup_norm = [REF_NOMINAL_S * t / statistics.median(refs) for t in setup_times]
    solved = [e for e in errors if e is not None]
    attempted, failed = len(failures), sum(f is not None for f in failures)
    record = {
        "workload": name,
        "traced": traced,
        "environment": environment(seed, seeds),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for f in failures if f is not None}),
        "wall_s_samples": walls,
        "setup_raw_s_samples": setup_times,
        "setup_s_samples": setup_norm,
        "reference_s_samples": refs,
        "wall_rel_samples": rel_walls,
        "end_to_end": {
            "wall_rel": statistics.median(rel_walls),
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_norm),
            "setup_raw_s": statistics.median(setup_times),
            # Pooled over the run's scenes; deterministic for a given seed.
            "rms_deg": rms_deg(np.concatenate(solved)) if solved else None,
            "failed_frac": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if traced:
        layers = {key: statistics.median(m[key] for m in per_layer) for key in per_layer[0]}
        layers["synth.generate_s"] = statistics.median(generate_times)
        layers["bench.wall_s"] = statistics.median(walls)
        layers["bench.reference_s"] = statistics.median(refs)
        overheads = [t / u - 1.0 for t, u in zip(traced_walls, walls)]
        layers["trace.overhead_pct"] = 100.0 * statistics.median(overheads)
        record["per_layer"] = layers
        record["traced_wall_s_samples"] = traced_walls
        record["layer_times"] = {run: tracer.layer_times(run) for run in tracer.counts}
        record["spans"] = tracer.spans
        record["counts"] = {k: dict(v) for k, v in tracer.counts.items()}
    return record


def contract_line(record: dict, spec: dict) -> dict:
    """The final stdout line: exactly the metrics BENCHMARK.json names for this mode."""
    group = "per_layer" if record["traced"] else "end_to_end"
    values = record[group]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]
        },
    }


def summary_lines(record: dict, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(wall_s="s", setup_raw_s="s", failed_frac="ratio")
    group = "per_layer" if record["traced"] else "end_to_end"
    if record["traced"]:
        basis = f"per-layer values are medians over {len(record['traced_wall_s_samples'])} traced solves"
    else:
        basis = f"wall_rel and wall_s are medians of {len(record['wall_s_samples'])} solves"
    lines = [f"# {record['workload']}: {record['attempted']} solves attempted, "
             f"{record['failed']} failed; {basis}"]
    lines += [f"# {k} = {v} {units[k]}" for k, v in record[group].items()]
    lines += [f"# failure: {f}" for f in record["failures"]]
    lines.append("# environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def smoke(spec: dict) -> list[str]:
    """Problems found by the smoke checks; empty when all pass."""
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in WORKLOADS:
        for traced in (False, True):
            record = run_workload(name, seed=0, seconds=0.0, traced=traced, smoke=True)
            line = contract_line(record, spec)
            text = "\n".join(summary_lines(record, spec) + [json.dumps(line)])
            group = "per_layer" if traced else "end_to_end"
            for m in spec[group]:
                if f"# {m['name']} = " not in text or not isinstance(
                    line["metrics"][m["name"]]["value"], (int, float)
                ):
                    problems.append(f"{name}: metric {m['name']} missing or not a number")
                elif line["metrics"][m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} has the wrong unit")
            if not line["correct"]:
                problems.append(f"{name} (trace {int(traced)}): {record['failures']}")

    good = np.tile(np.eye(3), (4, 1, 1))
    errs = np.full(4, 0.5)
    if gate(Outcome(good, errs, np.array([3.0, 2.0, 2.0])), 4, 3.0) is not None:
        problems.append("gate rejects a valid outcome")
    reflected = good.copy()
    reflected[2] = np.diag([1.0, 1.0, -1.0])
    not_finite = good.copy()
    not_finite[1, 0, 0] = np.nan
    invalid = {
        "reflection": Outcome(reflected, errs, None),
        "scaled block": Outcome(good * 1.01, errs, None),
        "non-finite entry": Outcome(not_finite, errs, None),
        "wrong camera count": Outcome(good[:3], errs, None),
        "rms above ceiling": Outcome(good, np.full(4, 3.5), None),
        "rising robust cost": Outcome(good, errs, np.array([3.0, 2.0, 2.1])),
    }
    for what, outcome in invalid.items():
        if gate(outcome, 4, 3.0) is None:
            problems.append(f"gate accepts an output with a {what}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.smoke:
        problems = smoke(spec)
        for p in problems:
            print(f"smoke: FAIL {p}")
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
        return 1 if problems else 0

    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in summary_lines(record, spec):
        print(line)
    print(json.dumps(contract_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
