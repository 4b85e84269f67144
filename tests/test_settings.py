"""Every setting is checked by one rule for its kind, and every choice set is written once.

A field of `SolverConfig`, `RobustConfig` or `SceneSpec` given a value of the
wrong kind (a string for a number, None, a bool, a one-element array) raises
a ValueError that names the field; numpy scalars of the right kind pass. A
choice set (a literal of two or more strings) appears once in src, beside the
code that owns it, and everything else reads it from there.
"""

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from rotavg import metrics
from rotavg.pipeline import run_pipeline
from rotavg.robust import RobustConfig
from rotavg.solver import SolverConfig
from rotavg.synth import SceneSpec, generate_scene
from rotavg.viewgraph import assemble_blocks

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "rotavg").glob("*.py"))
CONFIGS = (SolverConfig, RobustConfig, SceneSpec)
FIELDS = [(cls, f) for cls in CONFIGS for f in dataclasses.fields(cls)]
# A valid value of each field that is not the default: the array case wraps it.
VALID = {"init": "identity", "mode": "iso", "kind": "loop", "p": 0.5}


def valid(f):
    return VALID.get(f.name, f.default)


def wrong_kinds():
    """(config, field, value) for each field and each value of the wrong kind."""
    for cls, f in FIELDS:
        values = {"string": "5", "none": None, "bool": True, "array": np.array([valid(f)])}
        if f.name == "p":  # None is p's default: draw the edge fraction
            del values["none"]
        for case, value in values.items():
            yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}-{case}")


def small_graph():
    return generate_scene(SceneSpec(kind="general", n=8, p=0.6, seed=2)).graph


@pytest.mark.parametrize("cls, name, value", wrong_kinds())
def test_every_field_refuses_a_value_of_the_wrong_kind(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls, f", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
def test_numpy_scalars_pass(cls, f):
    value = np.str_(valid(f)) if isinstance(valid(f), str) else np.array(valid(f))[()]
    assert getattr(cls(**{f.name: value}), f.name) == valid(f)


@pytest.mark.parametrize("value", ["5", True, np.array([5.0])])
def test_auc_threshold_of_the_wrong_kind(value):
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        metrics.auc([1.0], value)


def test_assemble_refuses_an_array_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        assemble_blocks(small_graph(), np.array(["iso"]))


def test_pipeline_refuses_an_array_robust_stage():
    with pytest.raises(ValueError, match="unknown robust stage"):
        run_pipeline(small_graph(), SolverConfig(), np.array(["airls"]))


def string_sets(path: Path):
    """(frozenset, line) of each tuple, list or set literal of two or more strings in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            yield frozenset(e.value for e in node.elts), f"{path.stem}:{node.lineno}"


def test_no_choice_set_is_written_twice():
    """A set of names written out in two places can drift apart; define it once and import it."""
    places = defaultdict(list)
    for path in SRC:
        for names, where in string_sets(path):
            places[names].append(where)
    assert {", ".join(sorted(s)): p for s, p in places.items() if len(p) > 1} == {}
