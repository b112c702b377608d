"""Rotation utilities: 2D rotations and the SO(3) exponential/logarithm."""

from __future__ import annotations

import numpy as np


def rot2d(theta: float) -> np.ndarray:
    """2x2 rotation matrix for an angle in radians."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def exp_so3(rotvec: np.ndarray) -> np.ndarray:
    """Rotation matrix of one rotation vector, the one-row exp_so3_batch."""
    return exp_so3_batch(np.asarray(rotvec, dtype=float)[None])[0]


def exp_so3_batch(rotvecs: np.ndarray) -> np.ndarray:
    """Rotation matrices of an (N, 3) stack of rotation vectors, (N, 3, 3),
    by Rodrigues' formula."""
    v = np.asarray(rotvecs, dtype=float)
    # v.v as a matmul rounds like np.linalg.norm of a single vector
    theta = np.sqrt(v[:, None, :] @ v[:, :, None])
    small = theta < 1e-12
    x, y, z = (v / np.where(small, 1.0, theta)[:, 0]).T
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -z, y
    k[:, 1, 0], k[:, 1, 2] = z, -x
    k[:, 2, 0], k[:, 2, 1] = -y, x
    a = np.where(small, 1.0, np.sin(theta))
    b = np.where(small, 0.5, 1.0 - np.cos(theta))
    return np.eye(3) + a * k + b * (k @ k)


def _check_rotation(r: np.ndarray, tol: float) -> None:
    if r.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {r.shape}")
    if np.max(np.abs(r @ r.T - np.eye(3))) > tol:
        raise ValueError("matrix is not orthonormal within tolerance")
    if abs(np.linalg.det(r) - 1.0) > tol:
        raise ValueError("matrix is not a proper rotation (det != +1)")


def log_so3(r: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Rotation vector of a proper rotation matrix, magnitude in [0, pi].

    Uses quaternion extraction with a branch on the largest diagonal
    element, which stays well-conditioned for angles near 0 and near pi.
    """
    r = np.asarray(r, dtype=float)
    _check_rotation(r, tol)
    t = np.trace(r)
    if t > r[0, 0] and t > r[1, 1] and t > r[2, 2]:
        s = np.sqrt(t + 1.0) * 2.0
        qw = 0.25 * s
        qv = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / s
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        qw = (r[k, j] - r[j, k]) / s
        qv = np.empty(3)
        qv[i] = 0.25 * s
        qv[j] = (r[j, i] + r[i, j]) / s
        qv[k] = (r[k, i] + r[i, k]) / s
    if qw < 0.0:  # keep the short arc so the angle lands in [0, pi]
        qw, qv = -qw, -qv
    n = np.linalg.norm(qv)
    if n < 1e-12:
        return np.zeros(3)
    theta = 2.0 * np.arctan2(n, qw)
    return (theta / n) * qv


def canonical_rotvec(rotvec: np.ndarray) -> np.ndarray:
    """Equivalent rotation vector with magnitude in [0, pi]."""
    v = np.asarray(rotvec, dtype=float)
    theta = np.linalg.norm(v)
    if theta <= np.pi:
        return v.copy()
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return v * (wrapped / theta)


def wrap_angle(theta: float) -> float:
    """Wrap a planar angle into (-pi, pi]."""
    t = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    if t == -np.pi:
        t = np.pi
    return float(t)
