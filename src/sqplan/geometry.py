"""Superquadric shapes: implicit function, surface parametrization, transforms."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rotations import canonical_rotvec, exp_so3, log_so3, rot2d, wrap_angle

EPS_MIN = 0.1
EPS_MAX = 2.0


def signed_pow(x, e):
    """Sign-preserving power: sign(x) * |x|**e, elementwise."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** e


@dataclass(frozen=True)
class RigidPose:
    """Rigid transform: translation plus a planar angle (2D) or rotation vector
    (3D), with its rotation matrix, built once and shared read-only."""

    position: np.ndarray
    rotation: np.ndarray  # shape (1,) angle for 2D, (3,) rotation vector for 3D
    matrix: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)

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
            return RigidPose(p, r, rot2d(r[0]))
        if r.shape != (3,):
            raise ValueError("3D rotation must be a rotation vector")
        r = canonical_rotvec(r)
        return RigidPose(p, r, exp_so3(r))

    @property
    def dim(self) -> int:
        return self.position.shape[0]

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Local -> world. Accepts (..., dim) arrays."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T + self.position

    def inverse_transform(self, points: np.ndarray) -> np.ndarray:
        """World -> local."""
        pts = np.asarray(points, dtype=float)
        return (pts - self.position) @ self.matrix


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


def _canonicalize_axes(a, e, pose):
    """Sort semi-axes ascending, folding the axis relabeling into the rotation.

    The pose keeps the exact matrix product with the signed permutation: one
    rebuilt from the angle tilts an axis-aligned box by rounding (cos(pi/2) is
    6e-17), which moves its support points along its flat faces."""
    order = np.argsort(a, kind="stable")
    if np.array_equal(order, np.arange(a.shape[0])):
        return a, pose
    if a.shape[0] == 2:
        theta = wrap_angle(pose.rotation[0] + np.pi / 2.0)
        return a[order], RigidPose(pose.position, np.array([theta]),
                                   pose.matrix @ [[0.0, -1.0], [1.0, 0.0]])
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
    r_new = pose.matrix @ m
    return a[order], RigidPose(pose.position, log_so3(r_new), r_new)


def inside_outside(sq: Superquadric, points) -> np.ndarray:
    """Implicit function: < 0 inside, 0 on the surface, > 0 outside.

    Accepts a single point or an (..., dim) array; returns matching shape.
    """
    pts = np.asarray(points, dtype=float)
    f = inside_outside_local(sq.pose.inverse_transform(pts), sq.axes, sq.eps)
    return float(f) if pts.ndim == 1 else f


def inside_outside_local(local: np.ndarray, axes, eps) -> np.ndarray:
    """The implicit function at (..., dim) points given in the shape's frame,
    for semi-axes (..., dim) and exponents (..., dim - 1) that broadcast
    against them."""
    a, e = axes, eps
    if local.shape[-1] == 2:
        f = (np.abs(local[..., 0] / a[..., 0]) ** (2.0 / e[..., 0])
             + np.abs(local[..., 1] / a[..., 1]) ** (2.0 / e[..., 0])) - 1.0
    else:
        e1, e2 = e[..., 0], e[..., 1]
        xy = (np.abs(local[..., 0] / a[..., 0]) ** (2.0 / e2)
              + np.abs(local[..., 1] / a[..., 1]) ** (2.0 / e2))
        f = xy ** (e2 / e1) + np.abs(local[..., 2] / a[..., 2]) ** (2.0 / e1) - 1.0
    return f


def box_gaps(points, shapes: ShapeArrays) -> np.ndarray:
    """(shapes, points) distances from world points to each shape's box of
    semi-axes in its own frame, ||max(|R^T (p - c)| - a, 0)||. A superquadric
    lies inside that box, so this is a lower bound of the distance to it."""
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[-1]
    local = np.abs((pts - shapes.pos.reshape(-1, 1, dim)) @ shapes.rot.reshape(-1, dim, dim))
    return np.linalg.norm(np.maximum(local - shapes.axes.reshape(-1, 1, dim), 0.0), axis=2)


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


def dual_exponents(eps) -> np.ndarray:
    """Hoelder conjugates q = 2/(2 - eps) of the exponents 2/eps; inf at eps = 2."""
    e = np.asarray(eps, dtype=float)
    return np.divide(2.0, 2.0 - e, out=np.full(e.shape, np.inf), where=e < EPS_MAX)


class ShapeArrays(NamedTuple):
    """Shapes as arrays over leading axes: rotation matrices (..., dim, dim),
    centres and semi-axes (..., dim), exponents and their dual exponents
    (..., dim - 1). A pair stack, as `proximity.closest_pair_arrays` takes,
    has the leading axes (2, n): [0] holds the i side of every pair, [1] the
    j side."""

    rot: np.ndarray
    pos: np.ndarray
    axes: np.ndarray
    eps: np.ndarray
    q: np.ndarray

    def take(self, index) -> "ShapeArrays":
        """The shapes at `index` on the leading axis; a (2, n) index array
        of shape rows gives a pair stack."""
        return ShapeArrays(*(x[index] for x in self))


def stack_shapes(shapes: Sequence[Superquadric]) -> ShapeArrays:
    """Shapes of one dimension as arrays, one row per shape."""
    eps = np.array([s.eps for s in shapes])
    return ShapeArrays(np.array([s.pose.matrix for s in shapes]),
                       np.array([s.center for s in shapes]),
                       np.array([s.axes for s in shapes]), eps, dual_exponents(eps))


def stack_pairs(shapes_i: Sequence[Superquadric],
                shapes_j: Sequence[Superquadric]) -> ShapeArrays:
    """The pair stack of shapes_i[k] and shapes_j[k], for every k."""
    n = len(shapes_i)
    if len(shapes_j) != n or len({s.dim for s in [*shapes_i, *shapes_j]}) > 1:
        raise ValueError("expected two equally long lists of shapes of one dimension")
    return stack_shapes([*shapes_i, *shapes_j]).take(np.arange(2 * n).reshape(2, n))


def _lq_gradients(xy, q):
    """(||xy||_q, its gradient) over the last axis of (..., 2) pairs, elementwise;
    where q = inf, a vertex.

    Both components are divided by max(|x|, |y|) before any power, so large
    q neither overflows nor underflows the largest term; (0, 0) maps to
    zeros. At q = inf the powers leave 1 on the larger component; a tie takes x.
    """
    a = np.abs(xy)
    m = np.maximum(a[..., 0], a[..., 1])
    r = (a / (m + (m == 0.0))[..., None]) ** q[..., None]
    norm = m * (r[..., 0] + r[..., 1]) ** (1.0 / q)
    g = (a / (norm + (norm == 0.0))[..., None]) ** (q - 1.0)[..., None]
    g[..., 1] *= ~(np.isinf(q) & (a[..., 0] >= a[..., 1]))
    return norm, np.copysign(g, xy)


def support_points(rot, pos, axes, q, d) -> np.ndarray:
    """Support points of stacked shapes along world directions d, elementwise.

    rot is (..., dim, dim); pos, axes and d are (..., dim); q is (..., dim - 1),
    see `dual_exponents`. With p = 2/eps the shape is the unit ball of the
    norm ||(||(x/a1, y/a2)||_p2, z/a3)||_p1 (a single p-norm in 2D), so the
    point farthest along d is a * grad N*(a * d_local), where N* is the dual
    norm ||(||(c1, c2)||_q2, c3)||_q1.
    """
    dim = pos.shape[-1]
    c = d[..., 0, None] * rot[..., 0, :]
    for k in range(1, dim):
        c = c + d[..., k, None] * rot[..., k, :]
    c = c * axes
    r, g = _lq_gradients(c[..., :2], q[..., -1])
    if dim == 3:
        _, g_rz = _lq_gradients(np.stack([r, c[..., 2]], axis=-1), q[..., 0])
        g = np.concatenate([g * g_rz[..., :1], g_rz[..., 1:]], axis=-1)
    g = g * axes
    for k in range(dim):
        pos = pos + rot[..., k] * g[..., k, None]
    return pos


def expand(sq: Superquadric, margin: float) -> Superquadric:
    """Grow every semi-axis by a margin (the robot's shortest semi-axis)."""
    if margin < 0.0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    return Superquadric(sq.eps, sq.axes + margin, sq.pose)
