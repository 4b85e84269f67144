import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgesdd
from scipy.spatial.transform import Rotation

from rotavg import so3


def random_rotations(count, seed=0):
    rng = np.random.default_rng(seed)
    return [so3.random_rotation(rng) for _ in range(count)]


def assert_rotation(r, tol=1e-9):
    assert np.linalg.norm(r.T @ r - np.eye(3)) <= tol
    assert abs(np.linalg.det(r) - 1.0) <= tol


class TestProjectSO3:
    def test_identity_fixed_point(self):
        np.testing.assert_allclose(so3.project_so3(np.eye(3)), np.eye(3), atol=1e-12)

    def test_positive_diagonal(self):
        np.testing.assert_allclose(
            so3.project_so3(np.diag([2.0, 0.5, 3.0])), np.eye(3), atol=1e-12
        )

    def test_negative_determinant_diagonal(self):
        # Frobenius-nearest rotation to diag(1,1,-1) is the identity.
        np.testing.assert_allclose(
            so3.project_so3(np.diag([1.0, 1.0, -1.0])), np.eye(3), atol=1e-12
        )

    def test_zero_matrix_degenerate_policy(self):
        np.testing.assert_allclose(so3.project_so3(np.zeros((3, 3))), np.eye(3))

    def test_rotation_fixed_point(self):
        for r in random_rotations(50, seed=3):
            np.testing.assert_allclose(so3.project_so3(r), r, atol=1e-9)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for r in random_rotations(20, seed=5):
            c = rng.uniform(0.01, 100.0)
            np.testing.assert_allclose(so3.project_so3(c * r), r, atol=1e-9)

    def test_always_determinant_plus_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            assert_rotation(so3.project_so3(m))

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            so3.project_so3(m)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def two_determinant_rule(m):
    """The projection with its sign from det(U) det(V^T), formed after the flip."""
    u, s, vt, info = dgesdd(m)
    assert info == 0
    if s[0] < 1e-12:
        return None
    if _det3(u.tolist()) * _det3(vt.tolist()) < 0.0:
        u[:, 2] = -u[:, 2]
    return u @ vt


def kernel_inputs(seed=0, per_kind=2000):
    """Scaled, rank-deficient, reflected and diagonal 3x3 matrices, plus (near-)zeros."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-10, 10, (per_kind, 1, 1))
    a, b = rng.standard_normal((2, per_kind, 3, 1)), rng.standard_normal((2, per_kind, 1, 3))
    rot = so3.quaternion_rotation(rng.standard_normal((per_kind, 4)))
    flip = np.diag([1.0, 1.0, -1.0])
    signs = rng.choice([-1.0, 1.0], (per_kind, 3)) * rng.uniform(0.1, 10.0, (per_kind, 3))
    kinds = [
        scale * rng.standard_normal((per_kind, 3, 3)),
        scale * (a[0] @ b[0]),  # rank 1
        scale * (a[0] @ b[0] + a[1] @ b[1]),  # rank 2
        scale * (rot @ flip),  # reflections
        np.einsum("ka,ab->kab", signs, np.eye(3)),  # signed diagonals
        1e-13 * rng.standard_normal((10, 3, 3)),
        np.zeros((1, 3, 3)),
    ]
    return np.concatenate(kinds)


class TestNearestRotation:
    def test_zero_matrix_is_none(self):
        assert so3.nearest_rotation(np.zeros((3, 3))) is None

    def test_matches_two_determinant_rule(self):
        mats = kernel_inputs()
        assert len(mats) >= 10000
        nones = 0
        for m in mats:
            want, got = two_determinant_rule(m.copy()), so3.nearest_rotation(m.copy())
            if want is None:
                assert got is None
                nones += 1
            else:
                assert np.array_equal(got, want)
        assert nones == 11


class TestExpLog:
    def test_exp_zero(self):
        np.testing.assert_allclose(so3.exp_so3(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_exp_quarter_turn_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(
            so3.exp_so3([0.0, 0.0, np.pi / 2]), expected, atol=1e-12
        )

    def test_exp_angle_two_radians(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            r = so3.exp_so3(2.0 * axis)
            theta = np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
            assert abs(theta - 2.0) <= 1e-12

    def test_log_identity(self):
        np.testing.assert_allclose(so3.log_so3(np.eye(3)), np.zeros(3), atol=1e-15)

    def test_log_pi_about_x(self):
        w = so3.log_so3(so3.exp_so3([np.pi, 0.0, 0.0]))
        assert min(np.linalg.norm(w - [np.pi, 0, 0]), np.linalg.norm(w + [np.pi, 0, 0])) <= 1e-8

    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10000):
            v = rng.standard_normal(3)
            norm = np.linalg.norm(v)
            v *= rng.uniform(0.0, np.pi - 1e-3) / norm
            np.testing.assert_allclose(so3.log_so3(so3.exp_so3(v)), v, atol=1e-9)

    def test_round_trip_near_pi(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = axis * (np.pi - 1e-3)
            np.testing.assert_allclose(so3.log_so3(so3.exp_so3(v)), v, atol=1e-8)

    def test_round_trip_within_1e_4_of_pi(self):
        omegas = np.concatenate([tangent_vectors("near_pi", seed=20), tangent_vectors("pi", 20)])
        w = so3.log_so3(so3.exp_so3(omegas))
        theta = np.linalg.norm(omegas, axis=1)
        interior = theta <= np.pi - 1e-9
        np.testing.assert_allclose(w[interior], omegas[interior], rtol=0, atol=1e-14)
        # At theta = pi, omega and -omega are the same rotation.
        err = np.minimum(np.linalg.norm(w - omegas, axis=1), np.linalg.norm(w + omegas, axis=1))
        assert np.all(err[~interior] <= 1e-14)

    def test_log_rejects_nonfinite(self):
        r = np.eye(3)
        r[2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            so3.log_so3(r)
        stack = np.stack([np.eye(3), np.eye(3)])
        stack[1, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            so3.log_so3(stack)
        with pytest.raises(ValueError, match="non-finite"):
            so3.angular_distance_deg(np.eye(3), r)

    def test_round_trip_small_angles(self):
        rng = np.random.default_rng(10)
        for scale in (1e-12, 1e-9, 1e-7, 1e-5):
            v = rng.standard_normal(3)
            v *= scale / np.linalg.norm(v)
            np.testing.assert_allclose(so3.log_so3(so3.exp_so3(v)), v, atol=1e-15 + scale * 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_exp_always_rotation(self, v):
        assert_rotation(so3.exp_so3(np.array(v)))


def tangent_vectors(regime, count=300, seed=0):
    """Axis-angle vectors whose angles fall in one branch regime of exp/log."""
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = {
        "random": rng.uniform(0.0, np.pi, count),
        "small": rng.uniform(0.0, 1e-6, count),
        "near_pi": np.pi - rng.uniform(0.0, 1e-4, count),
        "pi": np.full(count, np.pi),
    }[regime]
    return axes * angles[:, None]


class TestBatchedMaps:
    """A stack equals its rows mapped one at a time, and scipy agrees."""

    @pytest.mark.parametrize("regime", ["random", "small", "near_pi", "pi"])
    def test_match_scalar_maps(self, regime):
        omegas = tangent_vectors(regime)
        rots = so3.exp_so3(omegas)
        np.testing.assert_array_equal(rots, np.stack([so3.exp_so3(v) for v in omegas]))
        want = Rotation.from_rotvec(omegas).as_matrix()
        np.testing.assert_allclose(rots, want, rtol=0, atol=1e-14)
        logs = so3.log_so3(rots)
        np.testing.assert_array_equal(logs, np.stack([so3.log_so3(r) for r in rots]))
        theta = np.linalg.norm(omegas, axis=1)
        interior = theta <= np.pi - 1e-9
        np.testing.assert_allclose(
            logs[interior], Rotation.from_matrix(rots[interior]).as_rotvec(), rtol=0, atol=1e-11
        )
        # Where log is two-valued (theta = pi), it must still invert exp.
        np.testing.assert_allclose(
            so3.exp_so3(logs[~interior]), rots[~interior], rtol=0, atol=1e-14
        )

    def test_mixed_regimes_in_one_stack(self):
        regimes = ["pi", "random", "small", "near_pi"]
        omegas = np.concatenate(
            [tangent_vectors(k, count=50, seed=s) for s, k in enumerate(regimes)]
        )
        np.random.default_rng(1).shuffle(omegas)
        rots = so3.exp_so3(omegas)
        np.testing.assert_array_equal(rots, np.stack([so3.exp_so3(v) for v in omegas]))
        np.testing.assert_array_equal(
            so3.log_so3(rots), np.stack([so3.log_so3(r) for r in rots])
        )
        # Leading axes beyond one are stacks too.
        np.testing.assert_array_equal(
            so3.exp_so3(omegas.reshape(10, 20, 3)), rots.reshape(10, 20, 3, 3)
        )
        np.testing.assert_array_equal(
            so3.log_so3(rots.reshape(20, 10, 3, 3)), so3.log_so3(rots).reshape(20, 10, 3)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3), min_size=1,
                    max_size=8))
    def test_exp_matches_scalar(self, vs):
        omegas = np.array(vs)
        want = np.stack([so3.exp_so3(v) for v in omegas])
        np.testing.assert_array_equal(so3.exp_so3(omegas), want)

    def test_rotation_defect_matches_lapack_determinant(self):
        """The stacked cofactor determinant agrees with np.linalg.det to rounding,
        and a stack equals its rows measured one at a time."""
        rng = np.random.default_rng(5)
        m = rng.standard_normal((200, 3, 3))
        m[:100] = so3.quaternion_rotation(rng.standard_normal((100, 4))) + 1e-7 * m[:100]
        ortho = np.linalg.norm(np.swapaxes(m, 1, 2) @ m - np.eye(3), axis=(1, 2))
        want = np.maximum(ortho, np.abs(np.linalg.det(m) - 1.0))
        defect = so3.rotation_defect(m)
        np.testing.assert_allclose(defect, want, rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(defect, [so3.rotation_defect(x) for x in m])
        np.testing.assert_array_equal(so3.rotation_defect(m.reshape(20, 10, 3, 3)),
                                      defect.reshape(20, 10))

    def test_exp_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            so3.exp_so3(np.array([[0.1, 0.0, 0.0], [np.inf, 0.0, 0.0]]))


class TestAngularDistance:
    def test_self_distance_zero(self):
        for r in random_rotations(10, seed=11):
            assert so3.angular_distance_deg(r, r) <= 1e-9

    def test_quarter_turn(self):
        assert abs(so3.angular_distance_deg(np.eye(3), so3.exp_so3([0, 0, np.pi / 2])) - 90.0) <= 1e-9

    def test_commuting_axis(self):
        a = so3.exp_so3([0.1, 0.0, 0.0])
        b = so3.exp_so3([0.3, 0.0, 0.0])
        np.testing.assert_allclose(so3.angular_distance_deg(a, b), np.degrees(0.2), atol=1e-9)

    def test_symmetry(self):
        rs = random_rotations(10, seed=12)
        for a, b in zip(rs[:5], rs[5:]):
            assert abs(so3.angular_distance_deg(a, b) - so3.angular_distance_deg(b, a)) <= 1e-9

    def test_bi_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b, q, g = (so3.random_rotation(rng) for _ in range(4))
            d1 = so3.angular_distance_deg(a, b)
            d2 = so3.angular_distance_deg(q @ a @ g, q @ b @ g)
            assert abs(d1 - d2) <= 1e-8

    def test_stack_matches_pairs(self):
        a, b = np.stack(random_rotations(30, seed=21)), np.stack(random_rotations(30, seed=22))
        d = so3.angular_distance_deg(a, b)
        assert d.shape == (30,)
        want = [so3.angular_distance_deg(x, y) for x, y in zip(a, b)]
        np.testing.assert_array_equal(d, want)

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = so3.angular_distance_deg(so3.random_rotation(rng), so3.random_rotation(rng))
            assert 0.0 <= d <= 180.0


class TestRandomRotation:
    def test_deterministic(self):
        a = so3.random_rotation(np.random.default_rng(99))
        b = so3.random_rotation(np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_valid_rotations(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            assert_rotation(so3.random_rotation(rng))

    def test_haar_trace_mean(self):
        # Haar expectation of the trace is 0.
        rng = np.random.default_rng(16)
        traces = np.array([np.trace(so3.random_rotation(rng)) for _ in range(100000)])
        # Var(tr R) = 1 under Haar, so 3 sigma of the MC mean is 3/sqrt(N).
        assert abs(traces.mean()) <= 3.0 / np.sqrt(len(traces))
