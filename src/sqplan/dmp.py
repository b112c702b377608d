"""Trajectory smoothing with dynamical movement primitives.

Pose waypoints are splined into a demonstration of max(400, 100 per
waypoint) samples at equal time steps, one DMP per degree of freedom is
fitted with locally weighted regression (all channels at once), and the
rollout is validated for collisions against the original obstacles by
`clearance.trajectory_collides` (falling back to the raw demonstration if
the smoothed path cuts a corner too tightly). The demonstration and the
rollout are both a `PoseTrajectory`; only the rollout is `smoothed`, so a
plan that fell back returns its demonstration itself.

In normalised time t / tau the forcing target of N equally spaced samples is
a fixed linear map of the samples, and so is each residual pass of the fit:
the regression's sample-side products depend on N and the basis only, are
built once (`_lwr_map`) and kept in a small cache, so a fit is a few matmuls
on (P, K) arrays.

The rollout integrates every channel with RK4 on a uniform grid of
ROLLOUT_STEPS = 400 equal steps per duration, as one linear step map
s <- P s + d. In normalised time t / tau that grid and its map are the same
for every duration, so the rollout up to 2 tau is a fixed linear map of the
start, the goal and the scaled weights, given the basis size: its response
is built once (the 800 steps of the map, applied to all of its columns at a
time) and kept in a small cache, so a rollout is one matmul.

The gains are the standard alpha_z = 25, beta_z = alpha_z / 4 and
alpha_x = alpha_z / 3, and the basis is fixed by its size (`_basis`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .clearance import trajectory_collides
# inside_outside is not used here; perfbench's traced run patches this name
from .geometry import Superquadric, inside_outside  # noqa: F401

ALPHA_Z = 25.0
BETA_Z = ALPHA_Z / 4.0  # critical damping
ALPHA_X = ALPHA_Z / 3.0
DEFAULT_BASIS = 25
# most basis functions: from 141 on, _phase_basis's sum underflows to 0 on
# the rollout's settle tail and the forcing columns turn non-finite
MAX_BASIS = 100
MIN_SAMPLES = 3  # least demonstration samples: fit_lwr takes second differences
REFERENCE_SPEED = 1.0  # m/s; converts arc length into a nominal duration
ROLLOUT_STEPS = 400  # RK4 steps per duration
RESPONSES = 4  # cached rollout responses; one basis size takes one
LWR_MAPS = 8  # cached LWR maps; one basis and sample count takes one


@dataclass
class PoseTrajectory:
    """Time-indexed poses: a DMP rollout, or (smoothed False) the splined
    demonstration it was fitted to, equally spaced from time 0."""

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
    weights: np.ndarray  # (K, P), over the basis `_basis(P)`
    duration: float
    u_start: np.ndarray  # (K,)
    u_goal: np.ndarray   # (K,)
    dim: int
    # per-channel forcing amplitude; (goal - start), except for channels
    # where that difference vanishes and the demonstration amplitude is
    # used instead (the standard scaling would zero out the forcing term)
    forcing_scale: np.ndarray


def _aligned_orientations(orientations: np.ndarray) -> np.ndarray:
    """Orientation channels, (n, 1) angles or (n, 3) rotation vectors, made
    continuous for splining.

    2D angles are unwrapped; 3D rotation vectors are re-expressed (same
    rotation, complementary axis) whenever that lands closer to the previous
    sample, avoiding jumps across the +/- pi boundary.
    """
    if orientations.shape[1] == 1:
        return np.unwrap(orientations[:, 0])[:, None]
    out = [orientations[0]]
    for v in orientations[1:]:
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


def interpolate_waypoints(positions, orientations) -> PoseTrajectory:
    """Natural cubic spline through the waypoints, positions (n, dim) and
    orientations (n, 1 or 3), over arc-length time, as an unsmoothed
    PoseTrajectory.

    Duration is total positional arc length at the reference speed. The
    max(400, 100 per waypoint) sample times are equally spaced over the
    duration and the spline is read through a minimum-jerk time profile, so
    the demonstration starts and ends at rest; it passes the waypoints
    between samples. A waypoint within 1e-12 of the last one kept is
    dropped.

    Long segments receive collinear helper knots so the spline cannot
    overshoot corridor centerlines between far-apart waypoints. Each
    waypoint's orientation holds over its outgoing segment and blends into
    the next orientation near the segment end, where the corner (a Voronoi
    vertex) offers the most clearance to turn in.
    """
    positions = np.asarray(positions, dtype=float)
    if len(positions) < 2:
        raise ValueError("need at least two waypoints")
    distinct = [0]
    for k in range(1, len(positions)):
        if np.linalg.norm(positions[k] - positions[distinct[-1]]) > 1e-12:
            distinct.append(k)
    if len(distinct) < 2:
        raise ValueError("waypoints collapse to a single position")
    pos = positions[distinct]
    dim = pos.shape[1]
    ori = _aligned_orientations(np.asarray(orientations, dtype=float)[distinct])
    seg = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    t_way = np.concatenate([[0.0], np.cumsum(seg)]) / REFERENCE_SPEED
    duration = float(t_way[-1])

    spacing = duration / 40.0
    blend = 0.7  # fraction of a segment traversed before rotating
    # helper knot i of n_sub on segment k sits at fraction s = i / n_sub
    n_sub = np.maximum(1, np.ceil(seg / max(spacing, 1e-12)).astype(int))
    k = np.repeat(np.arange(len(seg)), n_sub)
    s = (np.arange(len(k)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub) + 1) / n_sub[k]
    p = pos[k] + s[:, None] * (pos[k + 1] - pos[k])
    # minimum-jerk ramp keeps the orientation channels C2 at the blend
    # boundaries, which the forcing-term fit can track
    ramp = _minjerk((s - blend) / (1.0 - blend))[:, None]
    o = np.where((s <= blend)[:, None], ori[k], ori[k] + ramp * (ori[k + 1] - ori[k]))
    knot_t = np.concatenate([[0.0], t_way[k] + s * seg[k] / REFERENCE_SPEED])
    knot_v = np.vstack([np.concatenate([pos[0], ori[0]]), np.hstack([p, o])])

    spline = CubicSpline(knot_t, knot_v, axis=0, bc_type="natural")
    times = np.linspace(0.0, duration, max(400, 100 * len(positions)))
    samples = spline(_minjerk(times / duration) * duration)
    samples[0] = knot_v[0]
    samples[-1] = knot_v[-1]
    return PoseTrajectory(times, samples[:, :dim], samples[:, dim:], smoothed=False)


def _basis(p: int):
    centers = np.exp(-ALPHA_X * np.linspace(0.0, 1.0, p))
    gaps = np.diff(centers)
    # Half activation at the midpoint between adjacent centers, so
    # neighboring bases cross at 0.5 and jointly cover the phase axis.
    widths = 4.0 * np.log(2.0) / gaps**2
    widths = np.concatenate([widths, widths[-1:]])
    return centers, widths


def _gradient_t(v: np.ndarray) -> np.ndarray:
    """D1.T @ v, (N, P) -> (N, P), for D1 the operator of
    np.gradient(y, 1 / (N - 1), edge_order=2) on N >= 3 samples: its
    3-point stencil, transposed, without forming the (N, N) matrix."""
    out = np.zeros_like(v)
    # interior row i is (y[i + 1] - y[i - 1]) / 2h, the first row
    # (-3 y[0] + 4 y[1] - y[2]) / 2h and the last (y[-3] - 4 y[-2] + 3 y[-1]) / 2h
    out[2:] += v[1:-1]
    out[:-2] -= v[1:-1]
    out[:3] += np.array([-3.0, 4.0, -1.0])[:, None] * v[0]
    out[-3:] += np.array([1.0, -4.0, 3.0])[:, None] * v[-1]
    out *= (len(v) - 1) / 2.0
    return out


@functools.lru_cache(maxsize=LWR_MAPS)
def _lwr_map(n: int, p: int):
    """The sample-side products of the LWR fit of n equally spaced samples
    with p basis functions: read-only H (p, n), Q (p,) and K0 (p, p).

    In normalised time s = t / tau, tau y' and tau^2 y'' are D1 y and D1^2 y
    (D1 the np.gradient operator on the grid k / (n - 1)), so the forcing
    target tau^2 y'' + alpha_z tau y' - alpha_z beta_z (g - y) is L0 (y - g)
    with L0 = D1^2 + alpha_z D1 + alpha_z beta_z I, whatever tau is (D1
    annihilates constants). With phase x, activations psi and the rows i the
    regression uses, H = psi_i^T diag(x_i) L0, applied to y - g; Q =
    psi_i^T x_i^2; and K0 = psi_i^T diag(x_i^2 / sum psi_i) psi_i, the map of
    weights to the regression's weighted fitted forcing.
    """
    x = np.exp(-ALPHA_X * np.linspace(0.0, 1.0, n))
    centers, widths = _basis(p)
    psi = np.exp(-widths * (x[:, None] - centers) ** 2)
    # boundary samples carry one-sided finite-difference noise; keep them out
    # of the regression (they sit where the phase weighting is largest)
    interior = slice(2, -2) if n > 8 else slice(None)
    weighted = np.zeros((n, p))
    weighted[interior] = psi[interior] * x[interior, None]
    q = weighted[interior].T @ x[interior]
    k0 = weighted[interior].T @ (weighted[interior] / np.sum(psi[interior], axis=1)[:, None])
    d1 = _gradient_t(weighted)
    h = _gradient_t(d1)
    h += ALPHA_Z * d1
    h += ALPHA_Z * BETA_Z * weighted
    h = np.ascontiguousarray(h.T)
    for a in (h, q, k0):
        a.setflags(write=False)
    return h, q, k0


def fit_lwr(demo: PoseTrajectory, p: int = DEFAULT_BASIS) -> DMPModel:
    """Fit forcing-term weights by per-basis weighted least squares.

    The channels are the demonstration's positions, then its orientations,
    and its times must be equally spaced from 0; p is in [2, MAX_BASIS].
    Each channel's target is scaled by its forcing amplitude c, so per basis
    the regression divides by den = Q c^2 + 1e-12, and a residual pass adds
    (u - c^2 K0 w) / den to the weights w, u = (H (y - g)) c, with H, Q and
    K0 from the cached `_lwr_map` of the sample count and basis.
    """
    if not 2 <= p <= MAX_BASIS:
        raise ValueError(f"need 2 to {MAX_BASIS} basis functions, got {p}")
    t = demo.times
    n = len(t)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} demonstration samples")
    duration = float(t[-1])
    if duration <= 0.0:
        raise ValueError("demonstration has zero duration")
    if np.max(np.abs(t - np.linspace(0.0, duration, n))) > 1e-9 * duration / (n - 1):
        raise ValueError("demonstration times must be equally spaced from 0")
    y = np.hstack([demo.positions, demo.orientations])
    u_start, u_goal = y[0].copy(), y[-1].copy()
    forcing_scale = u_goal - u_start
    degenerate = np.abs(forcing_scale) < 1e-12
    forcing_scale[degenerate] = np.ptp(y[:, degenerate], axis=0)
    h, q, k0 = _lwr_map(n, p)
    # every channel at once: columns of the (P, K) arrays
    c2 = forcing_scale * forcing_scale
    u = (h @ (y - u_goal)) * forcing_scale
    den = q[:, None] * c2 + 1e-12
    # per-basis weighted least squares is a quasi-interpolant, not a
    # projection; a few residual passes remove the approximation bias
    weights = np.zeros((p, y.shape[1]))
    for _ in range(3):
        weights += (u - c2 * (k0 @ weights)) / den
    weights[:, np.abs(forcing_scale) < 1e-12] = 0.0  # no amplitude: no forcing
    return DMPModel(weights.T.copy(), duration, u_start, u_goal, demo.dim, forcing_scale)


def _phase_basis(x: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Forcing columns psi_p(x) / sum psi(x) * x at phases x, (N,) -> (N, P):
    the forcing term is this times weights.T * scale."""
    psi = x[:, None] - centers
    psi *= psi
    psi *= -widths
    np.exp(psi, out=psi)
    psi *= (x / np.sum(psi, axis=1))[:, None]
    return psi


def _rk4_maps(a: np.ndarray, h: float):
    """RK4 step map of the linear system s' = A s + e2 b for step length h.

    One step from state s, with input b1, b2, b4 at the step's start,
    midpoint and end, is exactly P s + q1 b1 + q2 b2 + q4 b4. P and
    Q = [q1, q2, q4] come from applying the RK4 stages to the unit vectors:
    a: (2, 2) -> P (2, 2), Q (2, 3).
    """
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
    return step[:, :2], step[:, 2:]


@functools.lru_cache(maxsize=RESPONSES)
def _response(p: int) -> np.ndarray:
    """The DMP's response on the normalised grid k / n, k = 0..2n, for n =
    ROLLOUT_STEPS, to a unit start (column 0), a unit goal (column 1) and
    each forcing column of `_phase_basis` of `_basis(p)` (2..): read-only
    (2n + 1, p + 2) y rows.

    In normalised time the system is s' = A0 s + e2 b with A0 = tau * A and
    b = ALPHA_Z * BETA_Z * g + f, so a rollout is these rows times
    [start; goal; weights.T * scale], whatever tau is.
    """
    n = ROLLOUT_STEPS
    steps = 2 * n
    a = np.array([[0.0, 1.0], [-ALPHA_Z * BETA_Z, -ALPHA_Z]])
    step_map, q = _rk4_maps(a, 1.0 / n)
    # inputs: none for the start, ALPHA_Z * BETA_Z for the goal, and each
    # forcing column at step k's start, midpoint and end, which are points
    # 2k, 2k + 1 and 2k + 2 of the half-step grid
    f = _phase_basis(np.exp(-ALPHA_X * (np.arange(2 * steps + 1) / (2 * n))), *_basis(p))
    increments = np.zeros((steps, 2, p + 2))
    increments[:, :, 1] = ALPHA_Z * BETA_Z * q.sum(axis=1)
    increments[:, :, 2:] = np.einsum("ij,jkp->kip", q, np.stack([f[:-1:2], f[1::2], f[2::2]]))
    s = np.eye(2, p + 2)
    s[1, 1] = 0.0
    rows = np.empty((steps + 1, p + 2))
    rows[0] = s[0]
    for k in range(steps):
        s = step_map @ s + increments[k]
        rows[k + 1] = s[0]
    rows.setflags(write=False)
    return rows


def rollout(model: DMPModel) -> PoseTrajectory:
    """Integrate the canonical and transformation systems start to goal with
    RK4 on a uniform time grid, as a cached linear response.

    The grid takes n = ROLLOUT_STEPS equal steps of tau / n per duration.
    After the nominal duration the forcing term has decayed with the phase,
    but the state may still lag the goal by the residual fitting error, so
    integration continues on the same grid (up to one extra duration) until
    the state settles within a small fraction of the start-goal span. The
    appended samples are nearly unforced critically damped motion straight to
    the goal.

    Per channel the state s = [y, z] obeys s' = A s + e2 b(t) with the same
    A for every channel, and b depends on time only (the goal term plus the
    forcing term), linearly in the start, the goal and the weights. In
    normalised time t / tau the grid k / n and its step map are the same for
    every model of one basis: `_response` holds the y rows for a unit
    start, a unit goal and each forcing column, and the rollout is one matmul
    with [start; goal; weights.T * scale]. It ends at the first settled state
    at or after the duration, as a step-by-step loop would.
    """
    tau = model.duration
    n = ROLLOUT_STEPS
    rows = _response(model.weights.shape[1])
    goal = model.u_goal
    out = rows @ np.vstack([model.u_start, goal, model.weights.T * model.forcing_scale])
    # the first settled state at or after the duration ends the rollout
    span = float(np.linalg.norm(goal - model.u_start))
    settle_tol = 1e-4 * span + 1e-12
    r = out[n:] - goal
    first = np.flatnonzero(np.einsum("ij,ij->i", r, r) <= settle_tol * settle_tol)
    m = n + 1 + int(first[0]) if len(first) else 2 * n + 1
    dim = model.dim
    return PoseTrajectory(tau * (np.arange(m) / n), out[:m, :dim], out[:m, dim:])


@dataclass
class ValidationReport:
    fallback: bool


def validate_and_finalize(smoothed: PoseTrajectory, raw_demo: PoseTrajectory,
                          robot: Superquadric, obstacles: list[Superquadric]):
    """Return the smoothed trajectory, or the raw demonstration itself if
    the smoothed one collides.

    A colliding raw demonstration means the roadmap stage violated its
    clearance guarantees, which is a hard error.
    """
    if len(smoothed.times) == 0 or len(raw_demo.times) == 0:
        raise ValueError("trajectories must be nonempty")
    if not trajectory_collides(smoothed, robot, obstacles):
        return smoothed, ValidationReport(fallback=False)
    if trajectory_collides(raw_demo, robot, obstacles):
        raise RuntimeError("raw demonstration collides with an obstacle; "
                           "roadmap clearance invariant violated")
    return raw_demo, ValidationReport(fallback=True)
