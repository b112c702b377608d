"""Trajectory smoothing with dynamical movement primitives.

Pose waypoints are splined into a time-indexed demonstration, one DMP per
degree of freedom is fitted with locally weighted regression, and the rollout
is validated for collisions against the original obstacles with a sampled,
chunk-batched test of the poses within reach of an obstacle's box (falling
back to the raw demonstration if the smoothed path cuts a corner too tightly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .geometry import (RigidPose, Superquadric, box_gaps, inside_outside,
                       inside_outside_local, surface_samples)
from .poses import PoseWaypoint, robot_rotations

ALPHA_Z = 25.0
BETA_Z = ALPHA_Z / 4.0  # critical damping
ALPHA_X = ALPHA_Z / 3.0
DEFAULT_BASIS = 25
REFERENCE_SPEED = 1.0  # m/s; converts arc length into a nominal duration


@dataclass
class Demonstration:
    """Time-indexed augmented pose samples [position, orientation]."""

    times: np.ndarray    # (N,), strictly increasing, starting at 0
    samples: np.ndarray  # (N, K)
    dim: int             # spatial dimension (2 or 3)


@dataclass
class PoseTrajectory:
    times: np.ndarray
    positions: np.ndarray     # (N, dim)
    orientations: np.ndarray  # (N, 1) angles or (N, 3) rotation vectors
    smoothed: bool = True

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def arc_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.positions, axis=0), axis=1)))


@dataclass
class DMPModel:
    weights: np.ndarray  # (K, P)
    centers: np.ndarray  # (P,)
    widths: np.ndarray   # (P,)
    duration: float
    u_start: np.ndarray  # (K,)
    u_goal: np.ndarray   # (K,)
    dim: int
    # per-channel forcing amplitude; (goal - start), except for channels
    # where that difference vanishes and the demonstration amplitude is
    # used instead (the standard scaling would zero out the forcing term)
    forcing_scale: np.ndarray | None = None
    alpha_z: float = ALPHA_Z
    beta_z: float = BETA_Z
    alpha_x: float = ALPHA_X

    def scale(self) -> np.ndarray:
        if self.forcing_scale is None:
            return self.u_goal - self.u_start
        return self.forcing_scale


def _aligned_orientations(waypoints: list[PoseWaypoint], dim: int) -> np.ndarray:
    """Orientation channels made continuous for splining.

    2D angles are unwrapped; 3D rotation vectors are re-expressed (same
    rotation, complementary axis) whenever that lands closer to the previous
    sample, avoiding jumps across the +/- pi boundary.
    """
    if dim == 2:
        th = np.array([w.orientation[0] for w in waypoints])
        return np.unwrap(th)[:, None]
    out = [np.asarray(waypoints[0].orientation, dtype=float)]
    for w in waypoints[1:]:
        v = np.asarray(w.orientation, dtype=float)
        theta = np.linalg.norm(v)
        if theta > 1e-12:
            alt = v * (1.0 - 2.0 * np.pi / theta)
            if np.linalg.norm(alt - out[-1]) < np.linalg.norm(v - out[-1]):
                v = alt
        out.append(v)
    return np.array(out)


def _minjerk(tau: np.ndarray) -> np.ndarray:
    """Minimum-jerk progress profile on [0, 1]: rest-to-rest, monotone."""
    return 10.0 * tau**3 - 15.0 * tau**4 + 6.0 * tau**5


def _minjerk_inverse(s: np.ndarray) -> np.ndarray:
    """Progress values tau with _minjerk(tau) = s, by bisection over all s at once."""
    lo, hi = np.zeros_like(s), np.ones_like(s)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _minjerk(mid) < s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def interpolate_waypoints(waypoints: list[PoseWaypoint], n_samples: int = 200) -> Demonstration:
    """Natural cubic spline through the waypoints over arc-length time.

    Duration is total positional arc length at the reference speed. Sampling
    follows a minimum-jerk time profile so the demonstration starts and ends
    at rest; the sample grid includes every waypoint's passage time, keeping
    interpolation exact. Duplicate consecutive positions are collapsed.

    Long segments receive collinear helper knots so the spline cannot
    overshoot corridor centerlines between far-apart waypoints. Each
    waypoint's orientation holds over its outgoing segment and blends into
    the next orientation near the segment end, where the corner (a Voronoi
    vertex) offers the most clearance to turn in.
    """
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints")
    distinct = [waypoints[0]]
    for w in waypoints[1:]:
        if np.linalg.norm(np.asarray(w.position) - np.asarray(distinct[-1].position)) > 1e-12:
            distinct.append(w)
    if len(distinct) < 2:
        raise ValueError("waypoints collapse to a single position")
    pos = np.array([w.position for w in distinct], dtype=float)
    dim = pos.shape[1]
    ori = _aligned_orientations(distinct, dim)
    seg = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    t_way = np.concatenate([[0.0], np.cumsum(seg)]) / REFERENCE_SPEED
    duration = float(t_way[-1])

    spacing = duration / 40.0
    blend = 0.7  # fraction of a segment traversed before rotating
    knot_t = [0.0]
    knot_v = [np.concatenate([pos[0], ori[0]])]
    for k in range(len(seg)):
        n_sub = max(1, int(np.ceil(seg[k] / max(spacing, 1e-12))))
        for i in range(1, n_sub + 1):
            s = i / n_sub
            p = pos[k] + s * (pos[k + 1] - pos[k])
            if s <= blend:
                o = ori[k]
            else:
                # minimum-jerk ramp keeps the orientation channels C2 at the
                # blend boundaries, which the forcing-term fit can track
                u = (s - blend) / (1.0 - blend)
                o = ori[k] + _minjerk(np.array([u]))[0] * (ori[k + 1] - ori[k])
            knot_t.append(t_way[k] + s * seg[k] / REFERENCE_SPEED)
            knot_v.append(np.concatenate([p, o]))
    knot_t = np.asarray(knot_t)
    knot_v = np.asarray(knot_v)

    spline = CubicSpline(knot_t, knot_v, axis=0, bc_type="natural")
    times = np.linspace(0.0, duration, int(n_samples))
    passage = _minjerk_inverse(t_way[1:-1] / duration) * duration
    times = np.sort(np.concatenate([times, passage]))
    keep = np.concatenate([[True], np.diff(times) > 1e-12 * max(duration, 1.0)])
    times = times[keep]
    samples = spline(_minjerk(times / duration) * duration)
    samples[0] = knot_v[0]
    samples[-1] = knot_v[-1]
    return Demonstration(times, samples, dim)


def _basis(p: int):
    centers = np.exp(-ALPHA_X * np.linspace(0.0, 1.0, p))
    gaps = np.diff(centers)
    # Half activation at the midpoint between adjacent centers, so
    # neighboring bases cross at 0.5 and jointly cover the phase axis.
    widths = 4.0 * np.log(2.0) / gaps**2
    widths = np.concatenate([widths, widths[-1:]])
    return centers, widths


def _psi(x, centers, widths):
    """x: (N,) -> activations (N, P)."""
    return np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)


def fit_lwr(demo: Demonstration, p: int = DEFAULT_BASIS) -> DMPModel:
    """Fit forcing-term weights by per-basis weighted least squares."""
    if p < 2:
        raise ValueError("need at least two basis functions")
    t = demo.times
    duration = float(t[-1])
    if duration <= 0.0:
        raise ValueError("demonstration has zero duration")
    y = demo.samples
    u_start, u_goal = y[0].copy(), y[-1].copy()
    yd = np.gradient(y, t, axis=0, edge_order=2)
    ydd = np.gradient(yd, t, axis=0, edge_order=2)
    # transformation system tau*z' = az*(bz*(g - y) - z) + f with z = tau*y'
    f_target = duration**2 * ydd - ALPHA_Z * (BETA_Z * (u_goal - y) - duration * yd)
    x = np.exp(-ALPHA_X * t / duration)
    centers, widths = _basis(p)
    psi = _psi(x, centers, widths)
    # boundary samples carry one-sided finite-difference noise; keep them out
    # of the regression (they sit where the phase weighting is largest)
    interior = slice(2, -2) if len(t) > 8 else slice(None)
    k = y.shape[1]
    weights = np.zeros((k, p))
    forcing_scale = u_goal - u_start
    amplitude = np.max(y, axis=0) - np.min(y, axis=0)
    degenerate = np.abs(forcing_scale) < 1e-12
    forcing_scale[degenerate] = amplitude[degenerate]
    psi_i = psi[interior]
    psi_sum = np.sum(psi_i, axis=1)
    for ch in range(k):
        scale = forcing_scale[ch]
        if abs(scale) < 1e-12:
            continue
        xi = (x * scale)[interior]
        den = psi_i.T @ (xi * xi) + 1e-12
        # per-basis weighted least squares is a quasi-interpolant, not a
        # projection; a few residual passes remove the approximation bias
        residual = f_target[interior, ch].copy()
        for _ in range(3):
            weights[ch] += (psi_i.T @ (xi * residual)) / den
            realized = (psi_i @ weights[ch]) / psi_sum * xi
            residual = f_target[interior, ch] - realized
    return DMPModel(weights, centers, widths, duration, u_start, u_goal,
                    demo.dim, forcing_scale)


def _forcing(model: DMPModel, x: np.ndarray) -> np.ndarray:
    """Forcing term at phases x, (N,) -> (N, K)."""
    psi = x[:, None] - model.centers
    psi *= psi
    psi *= -model.widths
    np.exp(psi, out=psi)
    return (psi @ model.weights.T) / np.sum(psi, axis=1)[:, None] * x[:, None] * model.scale()


def _rk4_maps(a: np.ndarray, h: np.ndarray):
    """RK4 step maps of the linear system s' = A s + e2 b, one per step length.

    One step of length h from state s, with input b1, b2, b4 at the step's
    start, midpoint and end, is exactly P s + q1 b1 + q2 b2 + q4 b4. P and
    Q = [q1, q2, q4] come from applying the RK4 stages to the unit vectors:
    a: (2, 2), h: (M,) -> P (M, 2, 2), Q (M, 2, 3).
    """
    h = np.asarray(h, dtype=float)[:, None, None]
    # columns: the two unit states, then the unit inputs b1, b2, b4, which
    # enter the second row of the derivative
    s = np.eye(2, 5)
    e2b = np.zeros((3, 2, 5))
    e2b[:, 1, 2:] = np.eye(3)
    k1 = a @ s + e2b[0]
    k2 = a @ (s + h / 2 * k1) + e2b[1]
    k3 = a @ (s + h / 2 * k2) + e2b[1]
    k4 = a @ (s + h * k3) + e2b[2]
    step = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return step[..., :2], step[..., 2:]


def rollout(model: DMPModel, dt: float) -> PoseTrajectory:
    """Integrate the canonical and transformation systems start to goal with
    RK4, applied as a precomputed linear step map.

    After the nominal duration the forcing term has decayed with the phase
    but the state may still lag the goal by the residual fitting error, so
    integration continues (up to one extra duration) until the state settles
    within a small fraction of the start-goal span. The appended samples are
    nearly unforced critically damped motion straight to the goal.

    Per channel the state s = [y, z] obeys s' = A s + e2 b(t) with the same
    A for every channel, and b depends on time only (the goal term plus the
    forcing term). So one RK4 step is s <- P s + d: P is derived once per
    distinct step length, and the increments d of the whole grid (up to
    twice the duration) are array operations before the one state loop,
    which stops once the state settles.
    """
    tau = model.duration
    if dt <= 0.0 or dt > tau / 10.0:
        raise ValueError("dt must be positive and at most a tenth of the duration")
    times = np.arange(0.0, tau, dt)
    if tau - times[-1] > 1e-12:
        times = np.append(times, tau)
    n_main = len(times)
    settle = [float(times[-1])]
    while settle[-1] < 2.0 * tau - 1e-12:
        settle.append(settle[-1] + min(dt, 2.0 * tau - settle[-1]))
    t0 = np.concatenate([times[:-1], settle[:-1]])
    h = np.concatenate([np.diff(times), np.diff(settle)])
    stage_t = np.stack([t0, t0 + h / 2, t0 + h], axis=-1)

    # one stage column at a time keeps a single (N, P) activation array live
    x = np.exp(-model.alpha_x * stage_t / tau)
    forcing = np.stack([_forcing(model, x[:, s]) for s in range(3)], axis=1)

    span = float(np.linalg.norm(model.u_goal - model.u_start))
    settle_tol = 1e-4 * span + 1e-12

    goal = model.u_goal
    a = np.array([[0.0, 1.0 / tau],
                  [-model.alpha_z * model.beta_z / tau, -model.alpha_z / tau]])
    lengths, which = np.unique(h, return_inverse=True)
    step_maps, input_maps = _rk4_maps(a, lengths)
    b = (model.alpha_z * model.beta_z * goal + forcing) / tau
    increments = np.einsum("nij,njk->nik", input_maps[which], b)

    s = np.stack([model.u_start.astype(float), np.zeros(len(goal))])
    out = np.empty((len(t0) + 1, len(goal)))
    out[0] = s[0]
    n = 1
    for i, (p, d) in enumerate(zip(step_maps[which], increments)):
        if i + 1 >= n_main:
            r = s[0] - goal
            if math.sqrt(r @ r) <= settle_tol:
                break
        s = p @ s + d
        out[n] = s[0]
        n += 1
    all_times = np.concatenate([times, settle[1:]])
    return _to_trajectory(all_times[:n], out[:n], model.dim)


def _to_trajectory(times, samples, dim, smoothed=True) -> PoseTrajectory:
    return PoseTrajectory(np.asarray(times), np.asarray(samples[:, :dim]),
                          np.asarray(samples[:, dim:]), smoothed)


def demonstration_trajectory(demo: Demonstration) -> PoseTrajectory:
    return _to_trajectory(demo.times, demo.samples, demo.dim, smoothed=False)


# ------------------------------------------------------------ collision check

CHUNK = 32  # poses checked per array pass; bounds the batch's memory
# A superquadric lies inside its local bounding box, so a point with any
# |local coordinate| beyond its semi-axis is outside and needs no fractional
# powers, and neither does a pose farther than r from it. The relative slack
# keeps every point and pose whose rounded values could still reach <= 0.
BOX_SLACK = 1.0 + 1e-9


def _in_box(sq: Superquadric, local: np.ndarray) -> np.ndarray:
    """Mask of (..., dim) shape-frame points inside the slackened box."""
    inside = np.abs(local) <= sq.axes * BOX_SLACK
    # and-ing coordinate slices beats a reduce over the short last axis
    for k in range(1, sq.dim):
        inside[..., 0] &= inside[..., k]
    return inside[..., 0]


def trajectory_collides(trajectory: PoseTrajectory, robot: Superquadric,
                        obstacles: list[Superquadric]) -> bool:
    """Sampled, chunk-batched collision test of the posed robot along the trajectory.

    A pose collides with an obstacle when a robot surface sample or the robot
    centre lies inside the obstacle, or an obstacle surface sample or the
    obstacle centre lies inside the robot (implicit function <= 0). Such a
    point lies within the robot's bounding radius r of the pose and in the
    obstacle's box, so only pairs with `box_gaps` <= r are tested (the OBB
    broad phase of Gottschalk, Lin & Manocha, SIGGRAPH 1996), CHUNK poses at
    a time, each test one array operation over the chunk's poses.
    """
    dim = robot.dim
    near = box_gaps(trajectory.positions, obstacles) <= robot.bounding_radius() * BOX_SLACK
    poses = np.flatnonzero(near.any(axis=0))
    if len(poses) == 0:
        return False
    res = 64 if dim == 2 else 16
    # body-frame samples plus the centre, whose posed image is the position
    body = surface_samples(robot.with_pose(RigidPose.create(np.zeros(dim))), res)
    body = np.vstack([body, np.zeros(dim)])
    obstacle_pts = [np.vstack([surface_samples(o, res), o.center]) if n.any() else None
                    for o, n in zip(obstacles, near)]
    for start in range(0, len(poses), CHUNK):
        chunk = poses[start:start + CHUNK]
        pos = trajectory.positions[chunk]
        rot = robot_rotations(dim, trajectory.orientations[chunk])
        world = body @ np.swapaxes(rot, 1, 2)
        world += pos[:, None, :]
        for o, opts, n in zip(obstacles, obstacle_pts, near[:, chunk]):
            if not n.any():
                continue
            if not n.all():
                world_n, pos_n, rot_n = world[n], pos[n], rot[n]
            else:
                world_n, pos_n, rot_n = world, pos, rot
            # robot samples and centre in the obstacle
            pts = world_n[_in_box(o, o.pose.inverse_transform(world_n))]
            if np.any(inside_outside(o, pts) <= 0.0):
                return True
            # obstacle samples and centre in each pose's robot frame
            local = (opts - pos_n[:, None, :]) @ rot_n
            local = local[_in_box(robot, local)]
            if np.any(inside_outside_local(robot, local) <= 0.0):
                return True
    return False


@dataclass
class ValidationReport:
    fallback: bool


def validate_and_finalize(smoothed: PoseTrajectory, raw_demo: Demonstration,
                          robot: Superquadric, obstacles: list[Superquadric]):
    """Return the smoothed trajectory, or the raw demonstration if it collides.

    A colliding raw demonstration means the roadmap stage violated its
    clearance guarantees, which is a hard error.
    """
    if len(smoothed.times) == 0 or len(raw_demo.times) == 0:
        raise ValueError("trajectories must be nonempty")
    if not trajectory_collides(smoothed, robot, obstacles):
        return smoothed, ValidationReport(fallback=False)
    raw = demonstration_trajectory(raw_demo)
    if trajectory_collides(raw, robot, obstacles):
        raise RuntimeError("raw demonstration collides with an obstacle; "
                           "roadmap clearance invariant violated")
    return raw, ValidationReport(fallback=True)
