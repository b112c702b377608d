"""Reference implementations for the tests.

`exact_distances` solves every (pose, obstacle) pair with a full GJK solve.
`sampled_collides` is the sampled validator that trajectory validation used
before the certified engine: it tests surface samples and centres of the
posed robot and of each obstacle against the other's implicit function, so
it can miss a contact between samples. `reference_fit_lwr` is the LWR fit
before its cached map: finite differences in the demonstration's own times
and three residual passes over (N, P) arrays.
"""

import numpy as np

from sqplan.clearance import AUDIT_TOL, trajectory_collides
from sqplan.dmp import ALPHA_X, ALPHA_Z, BETA_Z, DMPModel, _basis
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


def reference_fit_lwr(demo, p):
    """Forcing-term weights by per-basis weighted least squares, every step
    on the (N, P) sample arrays."""
    t = demo.times
    duration = float(t[-1])
    y = demo.samples
    u_start, u_goal = y[0].copy(), y[-1].copy()
    yd = np.gradient(y, t, axis=0, edge_order=2)
    ydd = np.gradient(yd, t, axis=0, edge_order=2)
    # transformation system tau*z' = az*(bz*(g - y) - z) + f with z = tau*y'
    f_target = duration**2 * ydd - ALPHA_Z * (BETA_Z * (u_goal - y) - duration * yd)
    x = np.exp(-ALPHA_X * t / duration)
    centers, widths = _basis(p)
    psi = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)
    interior = slice(2, -2) if len(t) > 8 else slice(None)
    forcing_scale = u_goal - u_start
    amplitude = np.max(y, axis=0) - np.min(y, axis=0)
    degenerate = np.abs(forcing_scale) < 1e-12
    forcing_scale[degenerate] = amplitude[degenerate]
    psi_i = psi[interior]
    psi_sum = np.sum(psi_i, axis=1)[:, None]
    xi = x[interior, None] * forcing_scale
    target = f_target[interior]
    den = psi_i.T @ (xi * xi) + 1e-12
    weights = np.zeros((p, y.shape[1]))
    residual = target
    for _ in range(3):
        weights += (psi_i.T @ (xi * residual)) / den
        residual = target - (psi_i @ weights) / psi_sum * xi
    weights[:, np.abs(forcing_scale) < 1e-12] = 0.0
    return DMPModel(weights.T.copy(), centers, widths, duration, u_start, u_goal,
                    demo.dim, forcing_scale)
