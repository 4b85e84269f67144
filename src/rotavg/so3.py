"""SO(3) primitives: projection, exponential/logarithm maps, distances, sampling.

All functions operate on plain numpy arrays. Rotation matrices are 3x3,
tangent vectors are length-3 axis-angle vectors in radians. The maps, the
distance and the SO(3) defect take stacks over any leading axes and apply
one arithmetic to every row, so a stack equals its rows mapped one at a time.
Angles at API boundaries of the rest of the library are expressed in
degrees; everything here is radians unless the name says otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesdd

_SMALL_ANGLE = 1e-6
_NEAR_PI = 1e-4
_DEGENERATE_SV = 1e-12

ROTATION_TOL = 1e-9

_EYE = np.eye(3)
# hat(omega) = omega @ _HAT, reshaped: each entry is one +-component of omega
# plus exact zeros, so the product is exact.
_HAT = np.zeros((3, 9))
_HAT[[0, 1, 2, 0, 1, 2], [7, 2, 3, 5, 6, 1]] = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, rounded as np.linalg.norm rounds one vector."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def rotation_defect(m: np.ndarray) -> np.ndarray:
    """The SO(3) membership measure, (..., 3, 3) to (...): max(|m^T m - I|_F, |det m - 1|)
    per matrix, +inf where an entry is not finite. Finite entries too large to
    square give inf or NaN, without a warning; both fail a `defect <= tol` test."""
    m = np.asarray(m, dtype=float)
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        m = np.where(finite[..., None, None], m, _EYE)  # no arithmetic on inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.moveaxis(m, (-2, -1), (0, 1)).copy()  # c[r, k]: entry (r, k) of each matrix

        def g(p, q):  # entry (p, q) of m^T m: column p . column q
            return c[0, p] * c[0, q] + c[1, p] * c[1, q] + c[2, p] * c[2, q]

        # |m^T m - I|_F from the 6 distinct entries of m^T m; np.square, not the
        # libm pow that ** calls on a numpy scalar, so a stack equals its rows.
        ortho = np.sqrt(sum(np.square(g(p, p) - 1.0) for p in range(3))
                        + 2.0 * sum(np.square(g(p, q)) for p, q in ((0, 1), (0, 2), (1, 2))))
        return np.where(finite, np.maximum(ortho, np.abs(_det3(c) - 1.0)), np.inf)


def is_rotation(m: np.ndarray) -> bool:
    """True if m is 3x3 and its `rotation_defect` is at most ROTATION_TOL."""
    return np.shape(m) == (3, 3) and bool(rotation_defect(m) <= ROTATION_TOL)


def nearest_rotation(m: np.ndarray) -> np.ndarray | None:
    """Frobenius-nearest rotation to a finite 3x3 matrix, or None if m is (near) zero.

    Returns U diag(1, 1, sign det(U V^T)) V^T from the SVD m = U S V^T, taken
    from LAPACK directly (without np.linalg's per-call overhead). This is the
    library's one SO(3) projection: `project_so3`, the coordinate update and
    the gauge alignment all call it.

    Raises:
        np.linalg.LinAlgError: if the SVD fails, e.g. on a non-finite m.
    """
    u, s, vt, info = dgesdd(m)
    # LAPACK reports a NaN input as an illegal argument and returns s = 0, so
    # this must come before the zero test.
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if s.item(0) < _DEGENERATE_SV:
        return None
    # det(U V^T) = det(U) det(V^T) = +-1, far from 0, so rounding cannot flip its sign.
    q = u.dot(vt)
    if _det3(q.tolist()) < 0.0:
        u[:, 2] = -u[:, 2]
        q = u.dot(vt)
    return q


def _det3(m):
    """Cofactor determinant of 3x3 rows: lists of floats, or arrays over trailing axes."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def project_so3(m: np.ndarray) -> np.ndarray:
    """Project a 3x3 matrix onto SO(3) with `nearest_rotation`.

    A (near-)zero input, as produced by the all-zeros solver initialization,
    maps to the identity.

    Raises:
        ValueError: if `m` is not 3x3 or contains non-finite entries.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries in projection input")
    q = nearest_rotation(m)
    return np.eye(3) if q is None else q


def exp_so3(omega: np.ndarray) -> np.ndarray:
    """Rodrigues map (..., 3) to (..., 3, 3): rotation about omega/|omega| by |omega|.

    Uses series coefficients below the small-angle threshold so the map is
    smooth through zero.

    Raises:
        ValueError: if `omega` contains non-finite entries.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError("non-finite tangent vector")
    theta = _norm(omega)[..., None, None]
    # libm pow, which Python's float ** also calls, so generated scenes keep their bits.
    theta2 = np.float_power(theta, 2.0)
    small = theta < _SMALL_ANGLE
    safe = theta + small  # 1 + theta where small: no 0/0
    a = np.sin(safe) / safe
    b = (1.0 - np.cos(safe)) / (theta2 + small)
    if small.any():
        a = np.where(small, 1.0 - theta2 / 6.0, a)
        b = np.where(small, 0.5 - theta2 / 24.0, b)
    k = (omega @ _HAT).reshape(omega.shape[:-1] + (3, 3))
    return _EYE + a * k + b * (k @ k)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Inverse of exp_so3, (..., 3, 3) to (..., 3), with |omega| <= pi.

    The angle is atan2(|w|/2, (tr R - 1)/2) with w = vee(R - R^T), accurate
    over the whole range. Within 1e-4 of theta = pi the axis is the column of
    (R + R^T)/2 - cos(theta) I = (1 - cos(theta)) a a^T with the largest
    diagonal entry, signed to agree with w; at theta = pi exactly (w = 0)
    that makes the axis entry of largest magnitude positive.

    Raises:
        ValueError: if `r` contains non-finite entries.
    """
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("non-finite rotation matrix")
    w = np.stack(  # vee(R - R^T) = 2 sin(theta) axis
        [r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]], -1
    )
    cos_theta = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    theta = np.arctan2(0.5 * _norm(w), cos_theta)
    small = theta < _SMALL_ANGLE
    near_pi = np.pi - theta <= _NEAR_PI
    safe = np.where(small | near_pi, 1.0, theta)
    series = 0.5 * (1.0 + theta * theta / 6.0)
    out = w * np.where(small, series, safe / (2.0 * np.sin(safe)))[..., None]
    if near_pi.any():
        rp = r[near_pi]
        sym = 0.5 * (rp + np.swapaxes(rp, -1, -2)) - cos_theta[near_pi, None, None] * _EYE
        pivot = np.argmax(np.diagonal(sym, axis1=-2, axis2=-1), axis=-1)
        axis = sym[np.arange(len(pivot)), pivot]  # (1 - cos(theta)) a a_pivot, a_pivot != 0
        sign = np.where(np.einsum("ka,ka->k", w[near_pi], axis) < 0.0, -1.0, 1.0)
        out[near_pi] = (sign * theta[near_pi] / _norm(axis))[:, None] * axis
    return out


def angular_distance_deg(a: np.ndarray, b: np.ndarray):
    """Geodesic distance |log(a^T b)| in degrees; a float, or an array for stacks."""
    a = np.asarray(a, dtype=float)
    d = np.degrees(_norm(log_so3(np.swapaxes(a, -1, -2) @ b)))
    return float(d) if d.ndim == 0 else d


def unit(v: np.ndarray) -> np.ndarray:
    """v / |v| over the last axis, each row rounded as np.linalg.norm rounds one vector."""
    return v / _norm(v)[..., None]


def quaternion_rotation(q: np.ndarray) -> np.ndarray:
    """Rotations of quaternions (w, x, y, z), normalized first: (..., 4) to (..., 3, 3)."""
    q = unit(np.asarray(q, dtype=float))
    w, x, y, z = np.moveaxis(q, -1, 0)
    m = np.array(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ]
    )
    return np.ascontiguousarray(np.moveaxis(m, 0, -1)).reshape(q.shape[:-1] + (3, 3))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw from the uniform (Haar) distribution on SO(3).

    Uses the unit-quaternion construction: a normalized 4D Gaussian sample is
    Haar-uniform on the quaternion sphere. `rng.standard_normal((k, 4))` fed
    to `quaternion_rotation` gives the same k rotations as k calls.
    """
    return quaternion_rotation(rng.standard_normal(4))
