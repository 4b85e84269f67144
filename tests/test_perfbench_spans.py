"""The benchmark tracer (perfbench/spans.py) patches callables that exist,
and its spans fire when rotavg runs.

The tracer replaces rotavg attributes by name, so a rename in rotavg would
otherwise only show up as a failing traced benchmark run, and a caller that
stops looking a function up by that name would leave its span reading zero.
"""

import importlib.util
from pathlib import Path

import pytest

from rotavg import cli, pipeline, synth
from rotavg.robust import RobustConfig
from rotavg.solver import SolverConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SPAN_TARGETS", "COUNT_TARGETS"])
def test_targets_are_callable(spans, table):
    targets = getattr(spans, table)
    assert targets
    for owner, attr, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


# Every span a traced benchmark run reports, except robust.linsolve: it wraps
# the direct sparse solve, which runs only when conjugate gradients fails.
FIRING_SPANS = [
    "synth.generate", "pipeline.run", "viewgraph.assemble", "viewgraph.neighbor_tables",
    "solver.acd", "solver.objective", "robust.refine", "robust.normal_build",
    "robust.residuals", "viewgraph.load", "viewgraph.save", "metrics.evaluate",
]


def test_spans_fire(spans, tmp_path, capsys):
    tracer = spans.Tracer()
    f = {k: str(tmp_path / k) for k in ("graph.vg", "gt.rot", "est.rot", "metrics.json")}
    argvs = [
        ["synth", "--kind", "general", "--n", "12", "--p", "0.6", "--seed", "3",
         "--out", f["graph.vg"], "--gt", f["gt.rot"]],
        ["solve", "--in", f["graph.vg"], "--robust", "irls", "--out", f["est.rot"]],
        ["eval", "--est", f["est.rot"], "--gt", f["gt.rot"], "--out", f["metrics.json"]],
    ]
    with tracer.run("t"):
        scene = synth.generate_scene(synth.SceneSpec(kind="general", n=12, p=0.6, seed=3))
        pipeline.run_pipeline(scene.graph, SolverConfig(), "airls", RobustConfig())
        for argv in argvs:
            assert cli.main(argv) == 0, capsys.readouterr().err
    calls = {name: rec["calls"] for name, rec in tracer.layer_times("t").items()}
    assert [name for name in FIRING_SPANS if not calls.get(name)] == []
