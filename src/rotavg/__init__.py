"""Anisotropic rotation averaging on SO(3) view graphs."""

__version__ = "0.1.0"

from . import metrics, robust, so3, solver, synth, viewgraph  # noqa: F401
from .pipeline import PipelineResult, run_pipeline  # noqa: F401
