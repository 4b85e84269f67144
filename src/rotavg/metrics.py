"""Gauge alignment and accuracy metrics for estimated absolute rotations."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import so3

AA_THRESHOLDS_DEG = np.arange(1, 201) / 10.0  # 0.1, 0.2, ..., 20.0


@dataclass
class MetricsReport:
    per_camera_errors_deg: np.ndarray
    rms_deg: float
    auc_percent: dict[float, float] = field(default_factory=dict)
    aa_percent: float = 0.0


def gauge_align(est: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Remove the global rotation ambiguity against the ground truth.

    Post-multiplies every estimate by Q, the SO(3) projection of
    sum_i R_i^T R*_i. A degenerate (near-zero) sum falls back to the identity.
    """
    est = np.asarray(est, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if est.shape != gt.shape:
        raise ValueError(f"stack shapes differ: {est.shape} vs {gt.shape}")
    q = so3.nearest_rotation(np.einsum("nba,nbc->ac", est, gt))  # sum R_i^T R*_i
    if q is None:
        warnings.warn("degenerate alignment sum; using identity gauge")
        q = np.eye(3)
    return est @ q


def auc(errors_deg, n_deg: float) -> float:
    """Exact area under the recall-vs-threshold curve on [0, n], in percent."""
    errors = np.asarray(errors_deg, dtype=float)
    if errors.size == 0:
        raise ValueError("empty error list")
    if not 0 < n_deg < np.inf:  # NaN fails too
        raise ValueError("threshold must be positive and finite")
    return float(100.0 * np.mean(np.maximum(0.0, n_deg - np.minimum(errors, n_deg)) / n_deg))


def average_accuracy(errors_deg) -> float:
    """Mean recall over the 200 thresholds 0.1..20.0 degrees, in percent."""
    errors = np.asarray(errors_deg, dtype=float)
    if errors.size == 0:
        raise ValueError("empty error list")
    recall = (errors[None, :] <= AA_THRESHOLDS_DEG[:, None]).mean(axis=1)
    return float(100.0 * recall.mean())


def evaluate(est: np.ndarray, gt: np.ndarray, auc_thresholds=(1.0, 5.0)) -> MetricsReport:
    """Align, then compute per-camera errors, RMS, AUC at given thresholds, AA."""
    aligned = gauge_align(est, gt)
    errors = so3.angular_distance_deg(aligned, gt)
    return MetricsReport(
        per_camera_errors_deg=errors,
        rms_deg=float(np.sqrt(np.mean(errors**2))),
        auc_percent={t: auc(errors, t) for t in auc_thresholds},
        aa_percent=average_accuracy(errors),
    )


def aggregate(reports: list[MetricsReport]) -> dict:
    """Across-scene aggregates: median/IQR of RMS (type-7 quantiles) and mAA."""
    if not reports:
        raise ValueError("need at least one report")
    rms = np.array([r.rms_deg for r in reports])
    q1, med, q3 = np.percentile(rms, [25, 50, 75])  # linear interpolation
    return {
        "median_rms_deg": float(med),
        "iqr_rms_deg": float(q3 - q1),
        "maa_percent": float(np.mean([r.aa_percent for r in reports])),
        "quantile_convention": "linear interpolation (type 7)",
    }


def write_metrics_json(report: MetricsReport, path) -> None:
    payload = {
        "rms_deg": report.rms_deg,
        "auc": {f"{t:g}": v for t, v in report.auc_percent.items()},
        "aa": report.aa_percent,
        "per_camera_errors_deg": [float(e) for e in report.per_camera_errors_deg],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
