"""The benchmark tracer (perfbench/spans.py) patches callables that exist.

The tracer replaces rotavg attributes by name, so a rename in rotavg would
otherwise only show up as a failing traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

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
