"""The pinned workloads: scene set-up, the timed call into rotavg, and the gate.

Every input is generated here from the benchmark seed; rotavg only receives
the generated graph (or, for `cli_dense`, the files written from it).

Why these three: `acd_sparse` puts nearly all time in the coordinate-descent
sweeps (one SVD update per camera per sweep) and none in robust refinement;
`airls_sparse` puts most of it in anisotropic IRLS (normal-equation build,
sparse solve, residuals) on a sparse 1497-unknown system; `cli_dense` runs the
same layers on a complete graph with 20% outlier edges, where the IRLS system
is small and dense and graph colouring would put one camera per class, so it
is the contrast on which ACD batching and IRLS linear-solve changes should
show no gain. It is also the only workload that goes through file I/O, the
CLI and metrics.

`airls_sparse` has no outlier edges. At mean degree 20, IRLS from the
least-squares start needs 4 to 42 iterations depending on the seed with 5%,
10% or 20% Haar-random outliers (some scenes also keep one camera 40 to 175
degrees off), so wall time and RMS error swing several-fold between seeds and
no affordable run length makes them steady. Without outliers it takes 3 or 4
iterations on every seed tried, and the work per iteration (build, solve,
residuals) is the same code.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rotavg import cli, metrics, pipeline, so3, synth, viewgraph
from rotavg.robust import RobustConfig
from rotavg.solver import SolverConfig

# Acceptance criterion 8: a robust cost trace may not rise by more than this.
COST_RISE_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: float
    outlier_frac: float  # share of edges given Haar-random rotations
    robust: str  # none | irls | airls
    via_cli: bool
    # A solve fails if its RMS error against ground truth exceeds this. Per
    # scene, rotavg 0.1.0 gives 0.92-0.96 (acd_sparse), 0.67-0.73
    # (airls_sparse) and 0.37-0.42 deg (cli_dense).
    rms_ceiling_deg: float
    # Scenes generated per run; solves cycle through them. About one
    # airls_sparse scene in five takes 4 IRLS iterations instead of 3, so it
    # gets as many scenes as a run has solves, which evens out the mix.
    scenes: int
    # (n, p) of the tiny scenes used for warm-up and by --smoke.
    tiny: tuple[int, float]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="acd_sparse", n=2000, p=20 / 1999, outlier_frac=0.0, robust="none",
                 via_cli=False, rms_ceiling_deg=2.0, scenes=3, tiny=(40, 0.3)),
        Workload(name="airls_sparse", n=500, p=0.04, outlier_frac=0.0, robust="airls",
                 via_cli=False, rms_ceiling_deg=2.0, scenes=12, tiny=(40, 0.5)),
        Workload(name="cli_dense", n=100, p=1.0, outlier_frac=0.2, robust="irls",
                 via_cli=True, rms_ceiling_deg=1.5, scenes=4, tiny=(30, 1.0)),
    )
}


@dataclass
class Case:
    """One generated scene, ready for the timed call."""

    n: int
    edges: int
    ground_truth: np.ndarray
    graph: viewgraph.ViewGraph | None = None  # API workloads
    files: dict[str, Path] | None = None  # cli_dense


@dataclass
class Outcome:
    """What a timed call produced, read back after the clock stopped."""

    rotations: np.ndarray
    errors_deg: np.ndarray  # per camera, after gauge alignment
    cost_trace: np.ndarray | None  # robust cost per IRLS iteration


def scene_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def inject_outliers(
    g: viewgraph.ViewGraph, frac: float, rng: np.random.Generator
) -> viewgraph.ViewGraph:
    """Replace a share `frac` of the edges' rotations by Haar-random ones."""
    edges = list(g.edges)
    bad = rng.choice(len(edges), size=int(round(frac * len(edges))), replace=False)
    for k in bad:
        e = edges[k]
        edges[k] = viewgraph.EdgeMeasurement(e.i, e.j, so3.random_rotation(rng), e.hessian)
    return viewgraph.ViewGraph(g.n, edges)


def setup(w: Workload, seed: int, workdir: Path, tiny: bool = False) -> Case:
    """Generate the scene, inject outliers, and write input files for the CLI."""
    n, p = w.tiny if tiny else (w.n, w.p)
    scene = synth.generate_scene(synth.SceneSpec(kind="general", n=n, p=p, seed=seed))
    graph = scene.graph
    if w.outlier_frac:
        graph = inject_outliers(graph, w.outlier_frac, np.random.default_rng([seed, 1]))
    case = Case(n, len(graph.edges), scene.ground_truth)
    if not w.via_cli:
        case.graph = graph
        return case
    d = workdir / f"scene-{seed}{'-tiny' if tiny else ''}"
    d.mkdir()
    case.files = {
        k: d / f for k, f in (
            ("graph", "input.vg"), ("gt", "gt.rot"), ("est", "est.rot"),
            ("manifest", "solve.json"), ("robust_trace", "robust.csv"),
            ("metrics", "metrics.json"),
        )
    }
    viewgraph.save_view_graph(graph, case.files["graph"])
    viewgraph.save_rotations(scene.ground_truth, case.files["gt"])
    return case


def solve(w: Workload, case: Case, tracer=None):
    """The timed part: input graph to estimated rotations.

    Uses the default SolverConfig and a fresh RobustConfig (or None) on every
    call, because run_pipeline writes the robust mode into the config it is
    given. Returns the pipeline result for API workloads and None for the CLI.
    """
    if not w.via_cli:
        robust_cfg = None if w.robust == "none" else RobustConfig()
        return pipeline.run_pipeline(case.graph, SolverConfig(), w.robust, robust_cfg)
    f = {k: str(v) for k, v in case.files.items()}
    calls = (
        ("cli.solve", ["solve", "--in", f["graph"], "--robust", w.robust, "--out", f["est"],
                       "--manifest", f["manifest"], "--robust-trace", f["robust_trace"]]),
        ("cli.eval", ["eval", "--est", f["est"], "--gt", f["gt"], "--out", f["metrics"]]),
    )
    for name, argv in calls:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(name) if tracer is not None else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"rotavg {argv[0]} exited {code}: {err.getvalue().strip()}")
    return None


def read_outcome(w: Workload, case: Case, result) -> Outcome:
    """Collect rotations, per-camera errors and the robust cost trace."""
    if not w.via_cli:
        report = metrics.evaluate(result.rotations, case.ground_truth)
        trace = None if result.refine is None else np.asarray(result.refine.cost_trace)
        return Outcome(result.rotations, report.per_camera_errors_deg, trace)
    # Parse the raw numbers: load_rotations would re-project near-rotations.
    rot = np.loadtxt(case.files["est"], usecols=range(2, 11), ndmin=2).reshape(-1, 3, 3)
    with open(case.files["metrics"], encoding="utf-8") as fh:
        errors = np.asarray(json.load(fh)["per_camera_errors_deg"], dtype=float)
    trace = np.loadtxt(case.files["robust_trace"], delimiter=",", skiprows=1,
                       usecols=1, ndmin=1)
    return Outcome(rot, errors, trace)


def gate(outcome: Outcome, n: int, rms_ceiling_deg: float) -> str | None:
    """Why the outcome fails the correctness gate, or None if it passes."""
    r = np.asarray(outcome.rotations, dtype=float)
    if r.shape != (n, 3, 3):
        return f"output shape {r.shape}, expected {(n, 3, 3)}"
    if not np.all(np.isfinite(r)):
        return "output has non-finite entries"
    bad = [k for k in range(n) if not so3.is_rotation(r[k])]
    if bad:
        return f"{len(bad)} output blocks are not rotations (first: camera {bad[0]})"
    rms = rms_deg(outcome.errors_deg)
    if not rms <= rms_ceiling_deg:
        return f"rms error {rms:.6g} deg above the {rms_ceiling_deg:g} deg ceiling"
    if outcome.cost_trace is not None:
        rise = np.diff(outcome.cost_trace)
        if rise.size and rise.max() > COST_RISE_TOL:
            return f"robust cost rose by {rise.max():.3g}"
    return None


def rms_deg(errors_deg: np.ndarray) -> float:
    errors_deg = np.asarray(errors_deg, dtype=float)
    return float(np.sqrt(np.mean(errors_deg**2))) if errors_deg.size else float("nan")
