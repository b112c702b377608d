"""Reference validators for the certified clearance engine's tests.

`exact_distances` solves every (pose, obstacle) pair with a full GJK solve.
`sampled_collides` is the sampled validator that trajectory validation used
before the certified engine: it tests surface samples and centres of the
posed robot and of each obstacle against the other's implicit function, so
it can miss a contact between samples.
"""

import numpy as np

from sqplan.clearance import AUDIT_TOL, trajectory_collides
from sqplan.geometry import (RigidPose, box_gaps, inside_outside,
                             inside_outside_local, surface_samples)
from sqplan.poses import robot_pose_at, robot_rotations
from sqplan.proximity import closest_pairs


def exact_distances(trajectory, robot, obstacles):
    """(poses, obstacles) distances, one full GJK solve per pair."""
    posed = [robot_pose_at(robot, p, o)
             for p, o in zip(trajectory.positions, trajectory.orientations)]
    pairs = closest_pairs([shape for shape in posed for _ in obstacles],
                          [obs for _ in posed for obs in obstacles])
    return np.array([pair.distance for pair in pairs]).reshape(len(posed), -1)


def check_decision(trajectory, robot, obstacles):
    """trajectory_collides against the exact minimum distance d: contact when
    d is 0, clear when d is above the audit's tolerance AUDIT_TOL * r (r the
    robot's bounding radius); either answer is certified-conservative in
    between. Returns (decision, d)."""
    got = trajectory_collides(trajectory, robot, obstacles)
    d = float(exact_distances(trajectory, robot, obstacles).min())
    if d <= 0.0:
        assert got, d
    elif d > AUDIT_TOL * robot.bounding_radius():
        assert not got, d
    return got, d


def _in_box(axes, local):
    """Mask of (..., dim) shape-frame points inside the box of semi-axes,
    with a relative slack that keeps every point whose rounded values could
    still reach implicit <= 0."""
    return np.all(np.abs(local) <= axes * (1.0 + 1e-9), axis=-1)


def sampled_collides(trajectory, robot, obstacles):
    """The sampled validator: contact when a robot surface sample or centre
    lies inside an obstacle, or an obstacle sample or centre inside the
    robot (implicit function <= 0), tested at the poses within the robot's
    bounding radius r of an obstacle's box."""
    dim = robot.dim
    res = 64 if dim == 2 else 16
    near = box_gaps(trajectory.positions, obstacles) <= robot.bounding_radius() * (1.0 + 1e-9)
    body = np.vstack([surface_samples(robot.with_pose(RigidPose.create(np.zeros(dim))), res),
                      np.zeros(dim)])
    for o, n in zip(obstacles, near):
        if not n.any():
            continue
        pos = trajectory.positions[n]
        rot = robot_rotations(dim, trajectory.orientations[n])
        world = body @ np.swapaxes(rot, 1, 2) + pos[:, None, :]
        pts = world[_in_box(o.axes, o.pose.inverse_transform(world))]
        if np.any(inside_outside(o, pts) <= 0.0):
            return True
        opts = np.vstack([surface_samples(o, res), o.center])
        local = (opts - pos[:, None, :]) @ rot
        local = local[_in_box(robot.axes, local)]
        if np.any(inside_outside_local(local, robot.axes, robot.eps) <= 0.0):
            return True
    return False
