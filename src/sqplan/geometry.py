"""Superquadric shapes: implicit function, surface parametrization, transforms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rotations import canonical_rotvec, exp_so3, log_so3, rot2d, wrap_angle

EPS_MIN = 0.1
EPS_MAX = 2.0


def signed_pow(x, e):
    """Sign-preserving power: sign(x) * |x|**e, elementwise."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** e


@dataclass
class RigidPose:
    """Rigid transform: translation plus a planar angle (2D) or rotation vector (3D)."""

    position: np.ndarray
    rotation: np.ndarray  # shape (1,) angle for 2D, (3,) rotation vector for 3D

    @staticmethod
    def create(position, rotation=None) -> "RigidPose":
        p = np.asarray(position, dtype=float)
        dim = p.shape[0]
        if dim not in (2, 3):
            raise ValueError(f"position must be 2D or 3D, got {dim}")
        if rotation is None:
            rotation = 0.0 if dim == 2 else np.zeros(3)
        r = np.atleast_1d(np.asarray(rotation, dtype=float))
        if dim == 2:
            if r.shape != (1,):
                raise ValueError("2D rotation must be a single angle")
            r = np.array([wrap_angle(r[0])])
        else:
            if r.shape != (3,):
                raise ValueError("3D rotation must be a rotation vector")
            r = canonical_rotvec(r)
        return RigidPose(p, r)

    @property
    def dim(self) -> int:
        return self.position.shape[0]

    def rotation_matrix(self) -> np.ndarray:
        if self.dim == 2:
            return rot2d(self.rotation[0])
        return exp_so3(self.rotation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Local -> world. Accepts (..., dim) arrays."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.rotation_matrix().T + self.position

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """World -> local."""
        pts = np.asarray(points, dtype=float)
        return (pts - self.position) @ self.rotation_matrix()


@dataclass
class Superquadric:
    """Superellipse (2D) or superquadric (3D) with a rigid pose.

    Semi-axes are stored ascending (axes[0] is the shortest); the rotation is
    adjusted at construction so the stored representation is canonical.
    Shape exponents are clamped to [0.1, 2.0], keeping the shape convex and
    the parametrization numerically well-behaved.
    """

    eps: np.ndarray   # (1,) in 2D, (2,) in 3D
    axes: np.ndarray  # semi-axis lengths, ascending
    pose: RigidPose

    @staticmethod
    def create(eps, axes, position, rotation=None) -> "Superquadric":
        a = np.asarray(axes, dtype=float)
        dim = a.shape[0]
        if dim not in (2, 3):
            raise ValueError(f"axes must have 2 or 3 components, got {a.shape}")
        if np.any(a <= 0.0):
            raise ValueError(f"all semi-axes must be positive, got {a}")
        e = np.atleast_1d(np.asarray(eps, dtype=float))
        if e.shape[0] != dim - 1:
            raise ValueError(f"expected {dim - 1} shape exponent(s), got {e.shape[0]}")
        e = np.clip(e, EPS_MIN, EPS_MAX)
        pose = RigidPose.create(position, rotation)
        if pose.dim != dim:
            raise ValueError("position dimension does not match axes")
        a, pose = _canonicalize_axes(a, e, pose)
        return Superquadric(e, a, pose)

    @property
    def dim(self) -> int:
        return self.axes.shape[0]

    def bounding_radius(self) -> float:
        """Radius of a sphere centered at the pose that contains the shape."""
        return float(np.linalg.norm(self.axes))

    @property
    def center(self) -> np.ndarray:
        return self.pose.position

    def with_pose(self, pose: RigidPose) -> "Superquadric":
        return Superquadric(self.eps, self.axes, pose)


def _canonicalize_axes(a, e, pose):
    """Sort semi-axes ascending, folding the axis relabeling into the rotation."""
    order = np.argsort(a, kind="stable")
    if np.array_equal(order, np.arange(a.shape[0])):
        return a, pose
    if a.shape[0] == 2:
        theta = wrap_angle(pose.rotation[0] + np.pi / 2.0)
        return a[order], RigidPose(pose.position, np.array([theta]))
    # 3D: axis relabeling must be a proper rotation that preserves the shape.
    # The first two local axes share an exponent and may be swapped freely;
    # moving the third axis only preserves the shape when the exponents match.
    if not np.array_equal(order, [1, 0, 2]) and abs(e[0] - e[1]) > 1e-12:
        raise ValueError(
            "cannot reorder 3D semi-axes involving the z axis unless the two "
            "shape exponents are equal; provide axes pre-sorted ascending"
        )
    m = np.zeros((3, 3))
    for new_i, old_i in enumerate(order):
        m[old_i, new_i] = 1.0
    if np.linalg.det(m) < 0.0:
        m[:, 1] *= -1.0  # shapes are symmetric under axis negation
    r_new = pose.rotation_matrix() @ m
    return a[order], RigidPose(pose.position, log_so3(r_new))


def inside_outside(sq: Superquadric, points) -> np.ndarray:
    """Implicit function: < 0 inside, 0 on the surface, > 0 outside.

    Accepts a single point or an (..., dim) array; returns matching shape.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    local = sq.pose.inverse_transform(pts)
    a = sq.axes
    if sq.dim == 2:
        e = sq.eps[0]
        f = (np.abs(local[..., 0] / a[0]) ** (2.0 / e)
             + np.abs(local[..., 1] / a[1]) ** (2.0 / e)) - 1.0
    else:
        e1, e2 = sq.eps
        xy = (np.abs(local[..., 0] / a[0]) ** (2.0 / e2)
              + np.abs(local[..., 1] / a[1]) ** (2.0 / e2))
        f = xy ** (e2 / e1) + np.abs(local[..., 2] / a[2]) ** (2.0 / e1) - 1.0
    return float(f) if single else f


def surface_point(sq: Superquadric, angles) -> np.ndarray:
    """World-frame surface point(s) from angular parameters.

    2D: scalar or (...,) array of omega. 3D: (..., 2) array of (eta, omega).
    """
    ang = np.asarray(angles, dtype=float)
    a = sq.axes
    if sq.dim == 2:
        e = sq.eps[0]
        local = np.stack(
            [a[0] * signed_pow(np.cos(ang), e), a[1] * signed_pow(np.sin(ang), e)],
            axis=-1,
        )
    else:
        e1, e2 = sq.eps
        eta, om = ang[..., 0], ang[..., 1]
        ce = signed_pow(np.cos(eta), e1)
        local = np.stack(
            [
                a[0] * ce * signed_pow(np.cos(om), e2),
                a[1] * ce * signed_pow(np.sin(om), e2),
                a[2] * signed_pow(np.sin(eta), e1),
            ],
            axis=-1,
        )
    return sq.pose.transform(local)


def surface_samples(sq: Superquadric, n: int) -> np.ndarray:
    """Roughly uniform parametric sampling of the surface, (n_total, dim).

    In 3D, n is the grid resolution per angle (n*n points total).
    """
    if sq.dim == 2:
        om = np.linspace(-np.pi, np.pi, n, endpoint=False)
        return surface_point(sq, om)
    eta = np.linspace(-np.pi / 2.0, np.pi / 2.0, n)
    om = np.linspace(-np.pi, np.pi, n, endpoint=False)
    ee, oo = np.meshgrid(eta, om, indexing="ij")
    return surface_point(sq, np.stack([ee, oo], axis=-1)).reshape(-1, sq.dim)


def _dual_exponent(e: float) -> float:
    """Hoelder conjugate of the shape norm's exponent 2/e: q = 2/(2 - e)."""
    return math.inf if e >= EPS_MAX else 2.0 / (2.0 - e)


def _lq_gradient(x: float, y: float, q: float):
    """(||(x, y)||_q, d/dx, d/dy) for two scalars; q = inf takes a vertex.

    Both components are divided by max(|x|, |y|) before any power, so large
    q neither overflows nor underflows the largest term.
    """
    m = max(abs(x), abs(y))
    if m == 0.0:
        return 0.0, 0.0, 0.0
    if q == math.inf:
        if abs(x) >= abs(y):
            return m, math.copysign(1.0, x), 0.0
        return m, 0.0, math.copysign(1.0, y)
    norm = m * ((abs(x) / m) ** q + (abs(y) / m) ** q) ** (1.0 / q)
    return (norm, math.copysign((abs(x) / norm) ** (q - 1.0), x),
            math.copysign((abs(y) / norm) ** (q - 1.0), y))


def support_map(sq: Superquadric):
    """Closed-form support function of the shape: world direction -> world point.

    With p = 2/eps the shape is the unit ball of the norm
    ||(||(x/a1, y/a2)||_p2, z/a3)||_p1 (a single p-norm in 2D), so the point
    farthest along d is a * grad N*(a * d_local), where N* is the dual norm
    ||(||(c1, c2)||_q2, c3)||_q1 with q = 2/(2 - eps). The pose's rotation is
    fetched once, when the map is made.
    """
    rot = sq.pose.rotation_matrix()
    pos, a = sq.center, sq.axes
    if sq.dim == 2:
        q = _dual_exponent(sq.eps[0])

        def local(c):
            return np.array(_lq_gradient(*c.tolist(), q)[1:])
    else:
        q1, q2 = _dual_exponent(sq.eps[0]), _dual_exponent(sq.eps[1])

        def local(c):
            x, y, z = c.tolist()
            r, g_x, g_y = _lq_gradient(x, y, q2)
            _, g_r, g_z = _lq_gradient(r, z, q1)
            return np.array([g_r * g_x, g_r * g_y, g_z])

    def support(d):
        return rot @ (a * local(a * (d @ rot))) + pos
    return support


def expand(sq: Superquadric, margin: float) -> Superquadric:
    """Grow every semi-axis by a margin (the robot's shortest semi-axis)."""
    if margin < 0.0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    return Superquadric(sq.eps, sq.axes + margin, sq.pose)


def to_world(sq: Superquadric, local_point) -> np.ndarray:
    return sq.pose.transform(local_point)


def from_world(sq: Superquadric, world_point) -> np.ndarray:
    return sq.pose.inverse_transform(world_point)
