"""SO(3) primitives: projection, exponential/logarithm maps, distances, sampling.

All functions operate on plain numpy arrays. Rotation matrices are 3x3,
tangent vectors are length-3 axis-angle vectors in radians. Angles at API
boundaries of the rest of the library are expressed in degrees; everything
here is radians unless the name says otherwise.
"""

from __future__ import annotations

import numpy as np

_SMALL_ANGLE = 1e-6
_DEGENERATE_SV = 1e-12

ROTATION_ORTHO_TOL = 1e-9
ROTATION_DET_TOL = 1e-9


def hat(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric (cross-product) matrix of a 3-vector."""
    x, y, z = np.asarray(omega, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def is_rotation(m: np.ndarray, tol: float = ROTATION_ORTHO_TOL) -> bool:
    """Check orthonormality and det(m) = +1 within `tol`."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    if np.linalg.norm(m.T @ m - np.eye(3)) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= ROTATION_DET_TOL


def project_so3(m: np.ndarray) -> np.ndarray:
    """Project a 3x3 matrix onto SO(3).

    Returns U diag(1, 1, det(UV^T)) V^T from the SVD m = U S V^T, the
    Frobenius-nearest rotation whenever the two smallest singular values do
    not sum to zero. A (near-)zero input, as produced by the all-zeros solver
    initialization, maps to the identity.

    Raises:
        ValueError: if `m` contains non-finite entries.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries in projection input")
    u, s, vt = np.linalg.svd(m)
    if s[0] < _DEGENERATE_SV:
        return np.eye(3)
    d = np.linalg.det(u @ vt)
    return (u * np.array([1.0, 1.0, d])) @ vt


def exp_so3(omega: np.ndarray) -> np.ndarray:
    """Rodrigues map: rotation about axis omega/|omega| by angle |omega|.

    Uses series coefficients below the small-angle threshold so the map is
    smooth through zero.
    """
    omega = np.asarray(omega, dtype=float).reshape(3)
    if not np.all(np.isfinite(omega)):
        raise ValueError("non-finite tangent vector")
    theta = float(np.linalg.norm(omega))
    k = hat(omega)
    k2 = k @ k
    if theta < _SMALL_ANGLE:
        a = 1.0 - theta**2 / 6.0
        b = 0.5 - theta**2 / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * k + b * k2


def log_so3(r: np.ndarray) -> np.ndarray:
    """Inverse of exp_so3, returning the canonical representative |omega| <= pi.

    Near theta = pi the axis is recovered from the diagonal of (R + I)/2
    (largest-diagonal pivot); the sign convention there makes the component
    with the largest |axis| entry nonnegative.
    """
    r = np.asarray(r, dtype=float)
    cos_theta = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))

    if theta < _SMALL_ANGLE:
        # log(R) ~ (R - R^T)/2 to first order
        w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        return 0.5 * w * (1.0 + theta**2 / 6.0)

    if np.pi - theta > 1e-4:
        w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        return w * (theta / (2.0 * np.sin(theta)))

    # Near pi: R ~ I + 2 sin^2(theta/2) (aa^T - I), so (R + I)/2 ~ aa^T.
    a = 0.5 * (r + np.eye(3))
    idx = int(np.argmax(np.diag(a)))
    axis = np.empty(3)
    axis[idx] = np.sqrt(max(a[idx, idx], 0.0))
    denom = max(axis[idx], _DEGENERATE_SV)
    axis[(idx + 1) % 3] = a[idx, (idx + 1) % 3] / denom
    axis[(idx + 2) % 3] = a[idx, (idx + 2) % 3] / denom
    axis /= max(np.linalg.norm(axis), _DEGENERATE_SV)
    # Fix the sign using the skew part where it is informative.
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if np.dot(w, axis) < 0.0:
        axis = -axis
    return theta * axis


def exp_so3_batch(omegas: np.ndarray) -> np.ndarray:
    """exp_so3 over a leading axis: (k, 3) tangent vectors to (k, 3, 3) rotations.

    Uses the same series coefficients as exp_so3 below the small-angle threshold.
    """
    omegas = np.asarray(omegas, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(omegas)):
        raise ValueError("non-finite tangent vector")
    theta = np.linalg.norm(omegas, axis=1)
    x, y, z = omegas.T
    zero = np.zeros_like(x)
    k = np.stack(
        [np.stack([zero, -z, y], 1), np.stack([z, zero, -x], 1), np.stack([-y, x, zero], 1)], 1
    )
    small = theta < _SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * (k @ k)


def log_so3_batch(r: np.ndarray) -> np.ndarray:
    """log_so3 over a leading axis: (k, 3, 3) rotations to (k, 3) tangent vectors.

    Keeps log_so3's branches: the series below the small-angle threshold and,
    for the rows within 1e-4 of theta = pi, log_so3's diagonal-pivot axis.
    """
    r = np.asarray(r, dtype=float).reshape(-1, 3, 3)
    cos_theta = np.clip((np.trace(r, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    w = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], 1)
    small = theta < _SMALL_ANGLE
    near_pi = np.pi - theta <= 1e-4
    safe = np.where(small | near_pi, 1.0, theta)
    scale = np.where(small, 0.5 * (1.0 + theta**2 / 6.0), safe / (2.0 * np.sin(safe)))
    out = w * scale[:, None]
    for k in np.flatnonzero(near_pi):
        out[k] = log_so3(r[k])
    return out


def angular_distance_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic distance |log(a^T b)| between two rotations, in degrees."""
    return float(np.degrees(np.linalg.norm(log_so3(np.asarray(a).T @ b))))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw from the uniform (Haar) distribution on SO(3).

    Uses the unit-quaternion construction: a normalized 4D Gaussian sample is
    Haar-uniform on the quaternion sphere.
    """
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
