"""Certified clearance of a posed robot along a trajectory.

`pose_bounds`, the pose-batch kernel, bounds each (obstacle, pose) pair's
distance from below: box bounds, closed-form axis bounds with a contact
proof, and one GJK threshold query at 0. Validation (`trajectory_collides`)
reduces its result. The audit (`min_trajectory_distance`) starts from the
same box bounds and solves in at most two rounds. Every GJK call is a
`_certify` step: a converged solve d certifies d - h, a retired pair its
retiring bound, and an unconverged solve keeps its bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (ShapeArrays, Superquadric, box_gaps, dual_exponents,
                       inside_outside_local, stack_shapes, support_points)
from .poses import robot_rotations
from .proximity import closest_pair_arrays

AUDIT_TOL = 1e-6   # certified audit gap, as a fraction of the robot's bounding radius
AUDIT_STRIDE = 16  # poses between the stride poses the audit solves first


@dataclass
class AuditStats:
    """Work counts of one `min_trajectory_distance` call."""

    solves: int = 0
    rounds: int = 0
    nonconverged: int = 0
    iterations: int = 0        # GJK iterations summed over the solves
    axis_certified: int = 0    # pairs retired by an axis bound, unsolved
    round_iterations: int = 0  # per round its slowest solve's GJK iterations, summed,
    # which sets the GJK time: a batched iteration costs about the same at any size
    bound_retired: int = 0     # solves a GJK bound retired before convergence
    worst_pose: int | None = None  # index of the pose that attains the minimum


def axis_gaps(pairs: ShapeArrays, normals) -> np.ndarray:
    """Lower bounds of the distances of posed shape pairs from one axis each.

    pairs is a pair stack as `closest_pair_arrays` takes ([0] the i side,
    [1] the j side); normals is (n, dim), unit vectors pointing from shape
    i towards shape j. On the axis n, shape i reaches up to n.s_i(n) and
    shape j starts at n.s_j(-n), s the support points, and projection onto
    a unit vector is 1-Lipschitz, so the gap
    n.s_j(-n) - n.s_i(n) is at most the pair's distance for every n (and at
    most 0 when they overlap). At the normal of the closest points it equals
    the distance; a normal off by an angle a loses only O(a^2) of it.
    """
    s = support_points(pairs.rot, pairs.pos, pairs.axes, pairs.q,
                       np.array([1.0, -1.0])[:, None, None] * normals)
    return np.einsum("ij,ij->i", normals, s[1] - s[0])


def _pair_bounds(pairs: ShapeArrays):
    """Closed-form axis bounds of (robot, obstacle) pairs, and a contact proof.

    pairs is a pair stack as `closest_pair_arrays` takes, robot side [0].
    The gap along a unit direction n, pointing from the robot towards the
    obstacle, bounds the distance (`axis_gaps`). It is taken along three
    kinds of direction: the obstacle's own axes, along which the obstacle's
    extent is its semi-axis, so only the robot's support point is
    evaluated; the robot's axes, likewise; and the direction from the
    robot's centre to the nearest point of the obstacle's box, where both
    are. One `support_points` call serves both sides. Returns the largest
    gap of each pair, and whether some support point lies inside the other
    shape (implicit function <= 0), which proves contact.
    """
    rot, pos, axes, eps, q = pairs
    dim = pos.shape[-1]
    d = pos[1] - pos[0]
    local = np.einsum("mij,mi->mj", rot[1], -d)  # robot centre, obstacle frame
    u = d + np.einsum("mij,mj->mi", rot[1], np.clip(local, -axes[1], axes[1]))
    length = np.linalg.norm(u, axis=1, keepdims=True)
    u = u / np.where(length > 0.0, length, 1.0)
    # (2, m, dim + 1, dim) directions: [0] the obstacle's axes, [1] the
    # robot's, each facing along d, then u; the robot's support is taken
    # along them, the obstacle's against them
    axes_n = np.swapaxes(rot[::-1], 2, 3)
    axes_n = axes_n * np.where(np.einsum("smkj,mj->smk", axes_n, d) < 0.0, -1.0, 1.0)[..., None]
    n = np.concatenate([axes_n, np.broadcast_to(u[:, None], axes_n[:, :, :1].shape)], axis=2)
    side = np.array([1.0, -1.0])[:, None, None, None]
    s = support_points(rot[:, :, None], pos[:, :, None], axes[:, :, None], q[:, :, None],
                       side * n)
    # along an obstacle axis n, the gap is n.(c_o - s_r) - its semi-axis;
    # along a robot axis, n.(s_o - c_r) - its semi-axis
    along_axes = (np.einsum("smkj,smkj->smk", n[:, :, :dim], s[:, :, :dim] - pos[::-1, :, None])
                  * -side[..., 0] - axes[::-1])
    along_u = np.einsum("mj,mj->m", u, s[1, :, dim] - s[0, :, dim])
    contact = np.any(inside_outside_local((s - pos[::-1, :, None]) @ rot[::-1],
                                          axes[::-1, :, None], eps[::-1, :, None]) <= 0.0)
    return np.maximum(along_axes.max(axis=(0, 2)), along_u), bool(contact)


def _upper_bounds(pairs: ShapeArrays):
    """Closed-form upper bounds of the distances of (robot, obstacle) pairs.

    pairs is a pair stack as in `_pair_bounds`, robot side [0]. Each bound
    is the distance between a point of each shape: the robot's support
    point towards the obstacle's centre, and the obstacle's surface point
    radially above b, the point of its box nearest the robot's centre. In
    the obstacle's frame the implicit function plus one, F, is homogeneous
    of degree 2 / eps_1, so that point is b F(b)^(-eps_1 / 2). b is first
    scaled onto the box's surface, where F >= 1, so no power underflows;
    b = 0 gives the centre.
    """
    rot, pos, axes, eps, q = pairs
    d = pos[1] - pos[0]
    s = support_points(rot[0], pos[0], axes[0], q[0], d)
    b = np.clip(np.einsum("mij,mi->mj", rot[1], -d), -axes[1], axes[1])
    scale = np.max(np.abs(b) / axes[1], axis=1, keepdims=True)
    b = b / np.where(scale > 0.0, scale, 1.0)
    f = np.maximum(inside_outside_local(b, axes[1], eps[1]) + 1.0, 1.0)
    surface = pos[1] + np.einsum("mij,mj->mi", rot[1], b * f[:, None] ** (-eps[1][:, :1] / 2.0))
    return np.linalg.norm(s - surface, axis=1)


def _pair_stack(robot: Superquadric, rotations, positions, shapes: ShapeArrays, j, i):
    """The pair stack of the robot at rotations[i] and positions[i], side
    [0], and obstacles j of `shapes`."""
    o = shapes.take(j)
    robot_shape = (robot.axes, robot.eps, dual_exponents(robot.eps))
    robot_i = (rotations[i], positions[i],
               *(np.broadcast_to(x, y.shape) for x, y in zip(robot_shape, o[2:])))
    return ShapeArrays(*map(np.stack, zip(robot_i, o)))


def _box_bounds(robot: Superquadric, positions, shapes: ShapeArrays):
    """Each (obstacle, pose) pair's box bound `box_gaps` - r, r the robot's
    bounding radius, and the GJK tolerance h = AUDIT_TOL * r / 2."""
    r = robot.bounding_radius()
    return box_gaps(positions, shapes) - r, AUDIT_TOL * r / 2.0


def _certify(pairs: ShapeArrays, bounds, half: float, **query):
    """One batched GJK step that raises the certified lower bounds of pairs.

    pairs is a pair stack, robot side [0], whose lower bounds are `bounds`;
    query is `closest_pair_arrays`' threshold or upper bound. GJK stops each
    solve once its duality gap is within h = half, so its distance d has
    d - h <= exact <= d: a converged solve's bound becomes d - h, a pair that
    the threshold or the upper bound retires takes its certified
    `lower_bound`, and an unconverged solve, whose d may overstate the
    distance, keeps its bound. Returns the new bounds, the unit normals from
    the robot's witness to the obstacle's where d > 0 (else 0), and the
    `PairArrays` result.
    """
    result = closest_pair_arrays(pairs, tol=half, **query)
    certified = np.where(np.isnan(result.lower_bound), result.distance - half, result.lower_bound)
    w = result.p_j - result.p_i
    normals = np.divide(w, np.linalg.norm(w, axis=1, keepdims=True), out=np.zeros_like(w),
                        where=result.distance[:, None] > 0.0)
    return np.where(result.converged, certified, bounds), normals, result


def pose_bounds(positions, orientations, robot: Superquadric, shapes: ShapeArrays):
    """Certified lower bounds of the distances of the posed robot to obstacles.

    positions (n, dim) and orientations (n, 1 or 3) pose the robot; shapes
    stacks the obstacles. A pair is open while its bound is <= 0. Box bounds
    of open pairs are raised by `_pair_bounds`, with rotations built only for
    their poses, then by one `_certify` threshold query at 0. Returns the
    (obstacle, pose) bounds and whether a support point inside the other
    shape proved contact, which skips the query.
    """
    bounds, half = _box_bounds(robot, positions, shapes)
    j, i = np.nonzero(bounds <= 0.0)
    if not len(j):
        return bounds, False
    poses, k = np.unique(i, return_inverse=True)
    rotations = robot_rotations(robot.dim, orientations[poses])
    pairs = _pair_stack(robot, rotations, positions[poses], shapes, j, k)
    closed, contact = _pair_bounds(pairs)
    bounds[j, i] = np.maximum(bounds[j, i], closed)
    still = closed <= 0.0
    if contact or not still.any():
        return bounds, contact
    j, i = j[still], i[still]
    bounds[j, i] = _certify(pairs.take(np.s_[:, still]), bounds[j, i], half, threshold=0.0)[0]
    return bounds, False


def trajectory_collides(trajectory, robot: Superquadric,
                        obstacles: list[Superquadric]) -> bool:
    """True unless `pose_bounds` certifies every pose clear of every obstacle:
    True at distance 0, False above AUDIT_TOL * r unless a solve hits the cap."""
    if not obstacles:
        return False
    bounds, contact = pose_bounds(trajectory.positions, trajectory.orientations, robot,
                                  stack_shapes(obstacles))
    return contact or bool(np.any(bounds <= 0.0))


def min_trajectory_distance(trajectory, robot: Superquadric,
                            obstacles: list[Superquadric],
                            stats: AuditStats | None = None) -> float:
    """Certified minimum distance from the posed robot to any original obstacle.

    Each (obstacle, pose) pair keeps a certified lower bound, its box bound
    to start with. A round is one `_certify` step on the open pairs, those
    whose bound is below the least solved distance d less h; the result is
    the least d. After a round, each open unsolved pair is raised to the
    larger `axis_gaps` bound at the normals of the nearest solved poses of
    its obstacle before and after it: that normal turns little between
    nearby poses, and the axis bound loses only second order in the turn,
    where a motion bound loses r |dR| (frame coherence: Cameron, ICRA 1997;
    van den Bergen, J. Graphics Tools 1999). The first round is a GJK
    min-search (`upper` started at U + h) over each obstacle's pick, the
    centre of its first run of poses tied at its least bound (a path along a
    box face ties over many poses, and rounding moves the centre less than
    the first), and over its stride poses (every AUDIT_STRIDE-th, and those
    within half a stride of the pick) whose bound is below U - h, U the least
    closed-form upper bound at the picks (`_upper_bounds`). A pair it retires
    stays unsolved while open. The second round solves every unsolved open
    pair without an upper bound, so it retires none; a pair it leaves
    unsolved was not open before it, and d only falls, so no pair is open
    after it: the audit runs at most two rounds.

    The result is never below the minimum over all (pose, obstacle) pairs,
    and 0.0 as soon as a solve reports contact. When no solve hits the
    iteration cap (stats.nonconverged == 0) it is also at most AUDIT_TOL * r
    above that minimum. `stats`, when given, receives the work counts.
    """
    if not obstacles:
        return float("inf")
    positions = trajectory.positions
    n_poses, dim = positions.shape
    shapes = stack_shapes(obstacles)
    lower, half = _box_bounds(robot, positions, shapes)   # (obstacle, pose) lower bounds
    rotations = robot_rotations(robot.dim, trajectory.orientations)

    def pairs(j, i):
        return _pair_stack(robot, rotations, positions, shapes, j, i)

    def below(bounds):
        return bounds < best - half

    stats = AuditStats() if stats is None else stats
    best = np.inf
    normals = np.zeros(lower.shape + (dim,))     # witness normals of solved pairs
    solved = np.zeros(lower.shape, bool)
    poses = np.arange(n_poses)
    tied = lower == lower.min(axis=1, keepdims=True)
    start = tied.argmax(axis=1)
    stop = np.where(~tied & (poses > start[:, None]), poses, n_poses).min(axis=1)
    first = (start + stop - 1) // 2
    u = _upper_bounds(pairs(np.arange(len(obstacles)), first)).min()
    stride = (poses % AUDIT_STRIDE == 0) | (np.abs(poses - first[:, None]) <= AUDIT_STRIDE // 2)
    todo = (poses == first[:, None]) | (stride & (lower < u - half))
    upper = float(u) + half
    while todo.any():
        j, i = np.nonzero(todo)
        bound, normals[j, i], result = _certify(pairs(j, i), lower[j, i], half, upper=upper)
        upper = None
        retired = ~np.isnan(result.lower_bound)
        stats.rounds += 1
        stats.solves += len(j)
        stats.nonconverged += len(j) - int(np.count_nonzero(result.converged))
        stats.iterations += int(result.iterations.sum())
        stats.round_iterations += int(result.iterations.max())
        stats.bound_retired += int(np.count_nonzero(retired))
        k = int(np.argmin(result.distance))
        if result.distance[k] < best:
            best, stats.worst_pose = float(result.distance[k]), int(i[k])
        if best <= 0.0:
            return best
        lower[j, i] = bound
        solved |= todo
        solved[j[retired], i[retired]] = ~below(bound[retired])
        # each open key's nearest solved keys before and after, row-major
        keys = np.flatnonzero(solved)
        open_keys = np.flatnonzero(below(lower) & ~solved)
        at = np.searchsorted(keys, open_keys)
        after = keys[np.minimum(at, len(keys) - 1)]
        before = keys[np.maximum(at - 1, 0)]
        row = open_keys // n_poses
        after = np.where(after // n_poses == row, after, before)
        before = np.where(before // n_poses == row, before, after)
        gaps = axis_gaps(pairs(np.tile(row, 2), np.tile(open_keys % n_poses, 2)),
                         normals.reshape(-1, dim)[np.concatenate([before, after])])
        lower.flat[open_keys] = np.maximum(lower.flat[open_keys],
                                           gaps.reshape(2, -1).max(axis=0))
        todo = below(lower) & ~solved
        stats.axis_certified += len(open_keys) - int(np.count_nonzero(todo))
    return float(best)
