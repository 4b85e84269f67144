"""Tests for gauge alignment and the accuracy metrics."""

import json

import numpy as np
import pytest

from rotavg import so3
from rotavg.metrics import (
    MetricsReport,
    aggregate,
    auc,
    average_accuracy,
    evaluate,
    gauge_align,
    write_metrics_json,
)


def random_stack(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([so3.random_rotation(rng) for _ in range(n)])


class TestGaugeAlign:
    def test_identity_when_already_aligned(self):
        gt = random_stack(6, 0)
        np.testing.assert_allclose(gauge_align(gt, gt), gt, atol=1e-12)

    def test_exact_gauge_removal(self):
        gt = random_stack(8, 1)
        g = so3.random_rotation(np.random.default_rng(2))
        aligned = gauge_align(gt @ g[None], gt)
        np.testing.assert_allclose(aligned, gt, atol=1e-9)

    def test_one_flipped_camera(self):
        gt = random_stack(10, 3)
        est = gt.copy()
        est[4] = est[4] @ so3.exp_so3(np.array([np.pi, 0.0, 0.0]))
        errors = so3.angular_distance_deg(gauge_align(est, gt), gt)
        assert errors[4] > 170
        others = np.delete(errors, 4)
        assert np.all(others < 10)

    def test_degenerate_sum_falls_back_to_identity(self):
        gt = random_stack(3, 4)
        with pytest.warns(UserWarning, match="degenerate"):
            aligned = gauge_align(np.zeros_like(gt), gt)
        np.testing.assert_array_equal(aligned, np.zeros_like(gt))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            gauge_align(random_stack(3, 5), random_stack(4, 6))


class TestRms:
    def test_zero_on_equal_stacks(self):
        gt = random_stack(5, 7)
        assert evaluate(gt, gt).rms_deg == pytest.approx(0.0, abs=1e-9)

    def test_three_four_errors(self):
        # Symmetric pairs about each axis: the gauge alignment is the identity.
        gt = np.tile(np.eye(3), (4, 1, 1))
        est = np.stack(
            [
                so3.exp_so3(np.radians([deg, 0.0, 0.0])) for deg in (3.0, -3.0)
            ]
            + [so3.exp_so3(np.radians([0.0, deg, 0.0])) for deg in (4.0, -4.0)]
        )
        np.testing.assert_array_equal(gauge_align(est, gt), est)
        assert evaluate(est, gt).rms_deg == pytest.approx(5.0 / np.sqrt(2), abs=5e-16)

    def test_permutation_invariant(self):
        gt = random_stack(6, 8)
        est = random_stack(6, 9)
        perm = np.random.default_rng(10).permutation(6)
        assert evaluate(est, gt).rms_deg == pytest.approx(
            evaluate(est[perm], gt[perm]).rms_deg, abs=1e-12
        )


class TestAuc:
    def test_all_zero_errors(self):
        assert auc(np.zeros(10), 5.0) == 100.0

    def test_all_errors_beyond_threshold(self):
        assert auc(np.full(10, 7.0), 5.0) == 0.0

    def test_half_area_example(self):
        assert auc([0.0, 5.0], 5.0) == pytest.approx(50.0)

    def test_monotone_under_error_increase(self):
        rng = np.random.default_rng(11)
        errors = rng.uniform(0, 10, 50)
        assert auc(errors + 0.5, 5.0) <= auc(errors, 5.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            auc([], 5.0)
        with pytest.raises(ValueError, match="positive"):
            auc([1.0], 0.0)
        with pytest.raises(ValueError, match="positive"):
            auc([1.0], float("nan"))
        with pytest.raises(ValueError, match="positive and finite"):
            auc([1.0], float("inf"))


class TestAverageAccuracy:
    def test_all_zero(self):
        assert average_accuracy(np.zeros(4)) == 100.0

    def test_all_beyond_last_threshold(self):
        assert average_accuracy(np.full(4, 25.0)) == 0.0

    def test_half_thresholds_example(self):
        # Errors at 10.05 deg pass exactly the thresholds 10.1 .. 20.0.
        assert average_accuracy(np.full(3, 10.05)) == pytest.approx(50.0)

    def test_permutation_invariant_and_monotone(self):
        rng = np.random.default_rng(12)
        errors = rng.uniform(0, 30, 40)
        perm = rng.permutation(40)
        assert average_accuracy(errors[perm]) == average_accuracy(errors)
        assert average_accuracy(errors + 1.0) <= average_accuracy(errors)

    def test_range(self):
        rng = np.random.default_rng(13)
        v = average_accuracy(rng.uniform(0, 50, 100))
        assert 0.0 <= v <= 100.0


class TestAggregate:
    def test_single_report(self):
        rep = MetricsReport(np.array([1.0]), rms_deg=2.0, aa_percent=88.0)
        agg = aggregate([rep])
        assert agg["median_rms_deg"] == 2.0
        assert agg["iqr_rms_deg"] == 0.0
        assert agg["maa_percent"] == 88.0

    def test_median_and_iqr_convention(self):
        reports = [
            MetricsReport(np.array([]), rms_deg=v, aa_percent=0.0)
            for v in [1.0, 2.0, 3.0, 4.0, 5.0]
        ]
        agg = aggregate(reports)
        assert agg["median_rms_deg"] == 3.0
        assert agg["iqr_rms_deg"] == 2.0

    def test_maa_mean(self):
        reports = [
            MetricsReport(np.array([]), rms_deg=0.0, aa_percent=a) for a in (100.0, 0.0)
        ]
        assert aggregate(reports)["maa_percent"] == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])


class TestEvaluate:
    def test_gauge_invariance_of_all_metrics(self):
        gt = random_stack(20, 14)
        rng = np.random.default_rng(15)
        est = np.stack([r @ so3.exp_so3(0.02 * rng.standard_normal(3)) for r in gt])
        g = so3.random_rotation(rng)
        a = evaluate(est, gt)
        b = evaluate(est @ g[None], gt)
        assert b.rms_deg == pytest.approx(a.rms_deg, abs=1e-8)
        assert b.aa_percent == pytest.approx(a.aa_percent, abs=1e-8)
        for t in a.auc_percent:
            assert b.auc_percent[t] == pytest.approx(a.auc_percent[t], abs=1e-8)

    def test_json_output(self, tmp_path):
        gt = random_stack(4, 16)
        report = evaluate(gt, gt)
        path = tmp_path / "m.json"
        write_metrics_json(report, path)
        data = json.loads(path.read_text())
        assert set(data) == {"rms_deg", "auc", "aa", "per_camera_errors_deg"}
        assert set(data["auc"]) == {"1", "5"}
        assert data["rms_deg"] == pytest.approx(0.0, abs=1e-9)
        assert len(data["per_camera_errors_deg"]) == 4
