"""Rotation utilities: 2D rotations and the SO(3) exponential/logarithm.

The SO(3) maps work on stacks: `exp_so3_batch` maps (N, 3) rotation vectors
to (N, 3, 3) matrices by Rodrigues' formula and `log_so3_batch` maps them
back by quaternion extraction, checking every matrix of the stack.
`exp_so3` and `log_so3` are their one-row front ends.
"""

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


def _check_rotations(r: np.ndarray, tol: float) -> None:
    if r.ndim != 3 or r.shape[1:] != (3, 3):
        raise ValueError(f"expected 3x3 matrices, got shape {r.shape}")
    if np.max(np.abs(r @ np.swapaxes(r, 1, 2) - np.eye(3)), initial=0.0) > tol:
        raise ValueError("matrix is not orthonormal within tolerance")
    if np.any(np.abs(np.linalg.det(r) - 1.0) > tol):
        raise ValueError("matrix is not a proper rotation (det != +1)")


def log_so3(r: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Rotation vector of one proper rotation matrix, the one-row log_so3_batch."""
    return log_so3_batch(np.asarray(r, dtype=float)[None], tol)[0]


def log_so3_batch(r: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Rotation vectors of an (N, 3, 3) stack of proper rotation matrices,
    (N, 3), magnitudes in [0, pi]; ValueError if any matrix is not one.

    Uses quaternion extraction from the symmetric matrix K of the
    quaternion's outer product, 4 q q^T = K, taken from the row of K's
    largest diagonal element: the trace row when the trace exceeds every
    diagonal element of r, else the row of r's largest one. That row stays
    well-conditioned for angles near 0 and near pi.
    """
    r = np.asarray(r, dtype=float)
    _check_rotations(r, tol)
    rows = np.arange(len(r))
    diag = np.diagonal(r, axis1=1, axis2=2)
    t = diag[:, 0] + diag[:, 1] + diag[:, 2]
    # K's diagonal: 1 + trace, then 1 + r_ii - r_jj - r_kk with j, k after i
    k_diag = np.concatenate([t[:, None], diag - diag[:, [1, 2, 0]] - diag[:, [2, 0, 1]]],
                            axis=1) + 1.0
    k = np.empty((len(r), 4, 4))
    k[:, 1:, 1:] = r + np.swapaxes(r, 1, 2)
    k[:, 0, 1:] = k[:, 1:, 0] = (r - np.swapaxes(r, 1, 2))[:, [2, 0, 1], [1, 2, 0]]
    on_trace = np.all(t[:, None] > diag, axis=1)
    row = np.where(on_trace, 0, 1 + np.argmax(diag, axis=1))
    s = np.sqrt(np.maximum(k_diag[rows, row], 0.0)) * 2.0
    q = k[rows, row] / s[:, None]  # (qw, qx, qy, qz)
    q[rows, row] = 0.25 * s
    q[q[:, 0] < 0.0] *= -1.0  # keep the short arc so the angle lands in [0, pi]
    qw, qv = q[:, 0], q[:, 1:]
    # qv.qv as a matmul rounds like np.linalg.norm of a single vector
    n = np.sqrt(qv[:, None, :] @ qv[:, :, None])[:, 0, 0]
    out = np.zeros((len(r), 3))
    turned = n >= 1e-12
    out[turned] = (2.0 * np.arctan2(n[turned], qw[turned]) / n[turned])[:, None] * qv[turned]
    return out


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
