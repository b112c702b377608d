"""Certified clearance of a posed robot along a trajectory.

Two questions, one function each: how close the robot comes to an
obstacle (`min_trajectory_distance`, the audit in `scenario.compute_metrics`)
and whether it touches one (`trajectory_collides`, validation in
`dmp.validate_and_finalize`). Both bound each (obstacle, pose) pair's
distance from below by box bounds, closed-form axis bounds and batched GJK
solves (`proximity.closest_pair_arrays`). The audit solves in rounds, the
first a GJK min-search bounded from above in closed form; validation makes
one GJK threshold query at 0 on the pairs that the closed forms leave open.
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
    round_iterations: int = 0  # per round its slowest solve's GJK iterations, summed
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


def min_trajectory_distance(trajectory, robot: Superquadric,
                            obstacles: list[Superquadric],
                            stats: AuditStats | None = None) -> float:
    """Certified minimum distance from the posed robot to any original obstacle.

    Each (obstacle, pose) pair keeps a certified lower bound on its distance,
    the pose's box bound `box_gaps` - r to start with (r the robot's bounding
    radius). GJK stops each solve once its duality gap is within
    h = AUDIT_TOL * r / 2, so a solved distance d satisfies
    d - h <= exact <= d: a converged solve sets its pair's bound to d - h,
    and the result is the least d. Each solve also keeps the unit normal of
    its witness points. After every round, each unsolved pair below the best
    d - h is raised to the larger `axis_gaps` bound at the normals of the
    nearest solved poses of its obstacle before and after it. The closest
    points' normal turns little between nearby poses, and the axis bound
    loses only second order in that turn, where a motion bound loses
    r |dR| (frame coherence: Cameron, ICRA 1997; van den Bergen, J. Graphics
    Tools 1999). Every round is one batched, tolerance-stopped
    `closest_pair_arrays` call. Each obstacle's pick is the centre of its
    first run of poses tied at its least bound, and its stride poses are
    every AUDIT_STRIDE-th pose and every pose within half a stride of the
    pick. The first round is a GJK min-search (`closest_pair_arrays`'
    `upper`, started at U + h): it solves the picks and the stride poses
    whose bound is below U - h, U the least closed-form upper bound at the
    picks (`_upper_bounds`). A pair that the search's running bound retires
    takes its certified lower bound, and stays unsolved while that is below
    the best d - h. The second round solves, without an upper bound, every
    unsolved pair still below, so it retires none; a pair it leaves unsolved
    was not below before it, and the best d - h only falls, so no pair is
    open after it: the audit runs at most two rounds.

    The result is never below the minimum over all (pose, obstacle) pairs,
    and 0.0 as soon as a solve reports contact. When no solve hits the
    iteration cap (stats.nonconverged == 0) it is also at most AUDIT_TOL * r
    above that minimum. An unconverged d may overstate its pair's distance,
    so such a solve keeps its box bound (its normal still serves its
    neighbours' axis bounds), and then only the lower side holds. `stats`,
    when given, receives the solve, round, non-converged and summed GJK
    iteration counts, the sum over rounds of each round's largest iteration
    count (a batched iteration costs about the same at any batch size, so
    this sets the GJK time), the number of solves that a GJK bound retired,
    the number of pairs that axis bounds retired without a solve, and the
    index of the pose that attains the result.
    """
    if not obstacles:
        return float("inf")
    positions = trajectory.positions
    n_poses, dim = positions.shape
    r = robot.bounding_radius()
    shapes = stack_shapes(obstacles)
    lower = box_gaps(positions, shapes) - r   # (obstacle, pose) lower bounds
    half = AUDIT_TOL * r / 2.0
    rotations = robot_rotations(robot.dim, trajectory.orientations)

    def pairs(j, i):
        return _pair_stack(robot, rotations, positions, shapes, j, i)

    def below(bounds):
        """Open pairs: those whose bound may still undercut the answer."""
        return bounds < best - half

    stats = AuditStats() if stats is None else stats
    best = np.inf
    normals = np.zeros(lower.shape + (dim,))     # witness normals of solved pairs
    solved = np.zeros(lower.shape, bool)
    # each obstacle's first pose: the centre of its first run of poses tied
    # at its least bound (a path along a box face ties over many poses), which
    # rounding in the trajectory moves less than the run's first pose
    poses = np.arange(n_poses)
    tied = lower == lower.min(axis=1, keepdims=True)
    start = tied.argmax(axis=1)
    stop = np.where(~tied & (poses > start[:, None]), poses, n_poses).min(axis=1)
    first = (start + stop - 1) // 2
    # one min-search round: the picks, and the stride poses whose bound is
    # below U - h, U the least closed-form upper bound at the picks; the
    # stride poses are every AUDIT_STRIDE-th, and every one within half a
    # stride of the obstacle's first, where its minimum most likely is
    u = _upper_bounds(pairs(np.arange(len(obstacles)), first)).min()
    stride = (poses % AUDIT_STRIDE == 0) | (np.abs(poses - first[:, None]) <= AUDIT_STRIDE // 2)
    todo = (poses == first[:, None]) | (stride & (lower < u - half))
    upper = float(u) + half
    while todo.any():
        j, i = np.nonzero(todo)
        p_r, p_o, distance, converged, iterations, lower_bound, _ = closest_pair_arrays(
            pairs(j, i), tol=half, upper=upper)
        upper = None
        retired = ~np.isnan(lower_bound)
        stats.rounds += 1
        stats.solves += len(j)
        stats.nonconverged += len(j) - int(np.count_nonzero(converged))
        stats.iterations += int(iterations.sum())
        stats.round_iterations += int(iterations.max())
        stats.bound_retired += int(np.count_nonzero(retired))
        k = int(np.argmin(distance))
        if distance[k] < best:
            best, stats.worst_pose = float(distance[k]), int(i[k])
        if best <= 0.0:
            return best
        solved |= todo
        w = p_o - p_r
        normals[j, i] = w / np.linalg.norm(w, axis=1, keepdims=True)
        bound = distance - half
        bound[retired] = lower_bound[retired]
        lower[j[converged], i[converged]] = bound[converged]
        # a retired pair still open is solved again
        solved[j[retired], i[retired]] = ~below(bound[retired])
        # raise the unsolved open pairs by the normals of the nearest solved
        # keys before and after theirs, in row-major (obstacle, pose) order,
        # taken only from the pair's own obstacle
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


def trajectory_collides(trajectory, robot: Superquadric,
                        obstacles: list[Superquadric]) -> bool:
    """True unless every pose of the robot is certified clear of every obstacle.

    An (obstacle, pose) pair is open while its lower bound is <= 0: its box
    bound `box_gaps` - r (r the robot's bounding radius), then its
    `_pair_bounds`, with rotations built only for open pairs' poses, where a
    support point inside the other shape proves contact. The pairs still
    open go through one GJK threshold query at 0 stopped within
    h = AUDIT_TOL * r / 2: a pair the threshold retires is clear, a solve d
    is clear when d - h > 0, and an unconverged one counts as contact. So
    the answer is True at distance 0, and False above AUDIT_TOL * r unless
    a solve hits the iteration cap.
    """
    if not obstacles:
        return False
    r = robot.bounding_radius()
    shapes = stack_shapes(obstacles)
    j, i = np.nonzero(box_gaps(trajectory.positions, shapes) - r <= 0.0)
    if not len(j):
        return False
    poses, i = np.unique(i, return_inverse=True)
    rotations = robot_rotations(robot.dim, trajectory.orientations[poses])
    pairs = _pair_stack(robot, rotations, trajectory.positions[poses], shapes, j, i)
    bounds, contact = _pair_bounds(pairs)
    if contact or not np.any(bounds <= 0.0):
        return contact
    half = AUDIT_TOL * r / 2.0
    _, _, distance, converged, _, lower_bound, _ = closest_pair_arrays(
        pairs.take(np.s_[:, bounds <= 0.0]), tol=half, threshold=0.0)
    bound = np.where(np.isnan(lower_bound), distance - half, lower_bound)
    return bool(np.any(~converged | (bound <= 0.0)))
