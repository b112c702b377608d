import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (BLOCK, block_kernel, check_decision, exact_distances, load_bench_scenes,
                     reference_fit_lwr, sampled_collides)
from sqplan import clearance, dmp, pipeline
from sqplan.clearance import AUDIT_TOL, min_trajectory_distance
from sqplan.dmp import (ALPHA_X, ALPHA_Z, BETA_Z, DMPModel, PoseTrajectory, _basis,
                        _rk4_maps, fit_lwr, interpolate_waypoints, rollout,
                        trajectory_collides, validate_and_finalize)
from sqplan.geometry import (RigidPose, Superquadric, box_gaps, inside_outside,
                             stack_shapes, surface_samples)
from sqplan.poses import PoseWaypoint, robot_pose_at, robot_rotations
from sqplan.rotations import exp_so3
from sqplan.scenario import generate_benchmark, scenario_from_dict


def straight_demo(n=400, duration=2.0):
    # minimum-jerk straight line in the plane plus a held heading
    t = np.linspace(0.0, duration, n)
    s = t / duration
    prof = 10 * s**3 - 15 * s**4 + 6 * s**5
    return PoseTrajectory(t, np.stack([prof * 2.0, prof * 1.0], axis=-1), np.zeros((n, 1)),
                          smoothed=False)


def test_interpolate_two_waypoints_is_linear():
    ways = [PoseWaypoint(np.array([0.0, 0.0]), np.array([0.3])),
            PoseWaypoint(np.array([2.0, 1.0]), np.array([0.3]))]
    demo = interpolate_waypoints(ways)
    d = np.array([2.0, 1.0])
    # all samples on the segment
    p = demo.positions
    cross = p[:, 0] * d[1] - p[:, 1] * d[0]
    assert np.max(np.abs(cross)) <= 1e-9
    assert np.allclose(p[0], [0.0, 0.0], atol=1e-12)
    assert np.allclose(p[-1], [2.0, 1.0], atol=1e-9)
    assert np.allclose(demo.orientations[:, 0], 0.3, atol=1e-9)
    assert not demo.smoothed
    assert np.all(np.diff(demo.times) > 0.0)
    # duration from arc length at unit reference speed
    assert np.isclose(demo.times[-1], np.linalg.norm(d), atol=1e-9)


def test_interpolate_collinear_waypoints_zero_curvature():
    ways = [PoseWaypoint(np.array([0.0, 0.0]), np.array([0.0])),
            PoseWaypoint(np.array([1.0, 1.0]), np.array([0.0])),
            PoseWaypoint(np.array([2.0, 2.0]), np.array([0.0]))]
    demo = interpolate_waypoints(ways)
    p = demo.positions
    cross = p[:, 0] - p[:, 1]
    assert np.max(np.abs(cross)) <= 1e-9


def test_demonstration_samples_equal_time_steps():
    # max(400, 100 per waypoint) samples, a repeated waypoint counted
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0]),
           np.array([3.0, 1.5])]
    for count, n in ((4, 400), (5, 500), (9, 900)):
        ways = [PoseWaypoint(p, np.array([0.2 * k]))
                for k, p in enumerate(pts[:1] * (count - 3) + pts[1:])]
        demo = interpolate_waypoints(ways)
        assert np.isclose(demo.times[-1], 2.0 + np.hypot(2.0, 0.5), rtol=1e-15)
        assert np.array_equal(demo.times, np.linspace(0.0, demo.times[-1], n))
        assert np.array_equal(demo.positions[[0, -1]], [pts[0], pts[-1]])


def test_interpolate_collapses_duplicates_and_errors():
    w = PoseWaypoint(np.array([0.0, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        interpolate_waypoints([w, w])


def test_interpolate_hemisphere_alignment_3d():
    v = np.array([0.0, 0.0, 3.0])  # same rotation as -pi-side vector
    ways = [PoseWaypoint(np.array([0.0, 0.0, 0.0]), v),
            PoseWaypoint(np.array([1.0, 0.0, 0.0]), -v * (2 * np.pi - 3.0) / 3.0)]
    demo = interpolate_waypoints(ways)
    steps = np.linalg.norm(np.diff(demo.orientations, axis=0), axis=1)
    assert steps.max() < 0.1  # no +-pi jump in the rotation channels


def test_basis_widths_overlap_at_half():
    centers, widths = _basis(10)
    for k in range(9):
        mid = 0.5 * (centers[k] + centers[k + 1])
        psi = np.exp(-widths[k] * (mid - centers[k]) ** 2)
        assert np.isclose(psi, 0.5, atol=1e-12)


def test_fit_straight_line_tracks_within_one_percent():
    demo = straight_demo()
    model = fit_lwr(demo, p=25)
    traj = rollout(model)
    ref = np.interp(traj.times, demo.times, demo.positions[:, 0])
    ref_y = np.interp(traj.times, demo.times, demo.positions[:, 1])
    err = np.sqrt(np.mean((traj.positions[:, 0] - ref) ** 2 +
                          (traj.positions[:, 1] - ref_y) ** 2))
    path_len = traj.arc_length()
    assert err <= 0.01 * path_len


def test_fit_self_consistency_known_weights():
    rng = np.random.default_rng(12)
    w0 = rng.normal(scale=20.0, size=(3, 15))
    goal = np.array([1.0, 2.0, 0.5])
    model0 = DMPModel(w0, 2.0, np.zeros(3), goal, 2, goal.copy())
    traj0 = rollout(model0)
    model = fit_lwr(traj0, p=15)
    traj = rollout(model)
    rms = np.sqrt(np.mean((traj.positions - traj0.positions) ** 2))
    assert rms <= 1e-3


def test_constant_demo_stays_put():
    t = np.linspace(0.0, 1.0, 100)
    demo = PoseTrajectory(t, np.full((100, 2), 0.7), np.full((100, 1), 0.7), smoothed=False)
    model = fit_lwr(demo, p=10)
    traj = rollout(model)
    assert np.max(np.abs(traj.positions - 0.7)) <= 1e-6


def test_zero_weights_monotone_no_overshoot():
    goal = np.array([1.0, -2.0, 0.5])
    model = DMPModel(np.zeros((3, 10)), 2.0, np.zeros(3), goal, 2, goal.copy())
    traj = rollout(model)
    y = np.hstack([traj.positions, traj.orientations])
    for ch, g in enumerate([1.0, -2.0, 0.5]):
        v = y[:, ch] * np.sign(g)
        assert np.all(np.diff(v) >= -1e-9)  # monotone approach
        assert v.max() <= abs(g) + 1e-6     # no overshoot
    assert np.allclose(y[-1], [1.0, -2.0, 0.5], atol=1e-3)


def test_zero_weights_goal_scaling_linear():
    g1 = np.array([1.0, 0.5, -0.3])
    m1 = DMPModel(np.zeros((3, 10)), 1.5, np.zeros(3), g1, 2, g1.copy())
    m2 = DMPModel(np.zeros((3, 10)), 1.5, np.zeros(3), 2.0 * g1, 2, 2.0 * g1)
    t1 = rollout(m1)
    t2 = rollout(m2)
    y1 = np.hstack([t1.positions, t1.orientations])
    y2 = np.hstack([t2.positions, t2.orientations])
    assert np.max(np.abs(y2 - 2.0 * y1)) <= 1e-9


def test_rollout_endpoint_exactness():
    demo = straight_demo()
    model = fit_lwr(demo, p=25)
    traj = rollout(model)
    start = np.hstack([traj.positions[0], traj.orientations[0]])
    assert np.array_equal(start, model.u_start)
    end = np.hstack([traj.positions[-1], traj.orientations[-1]])
    assert np.linalg.norm(end - model.u_goal) <= \
        1e-3 * np.linalg.norm(model.u_goal - model.u_start) + 1e-9


def test_rollout_rotations_stay_proper_3d():
    ways = [PoseWaypoint(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])),
            PoseWaypoint(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.2])),
            PoseWaypoint(np.array([2.0, 0.0, 0.5]), np.array([0.4, 0.0, 1.2]))]
    demo = interpolate_waypoints(ways)
    model = fit_lwr(demo, p=20)
    traj = rollout(model)
    for v in traj.orientations[::10]:
        r = exp_so3(v)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-6)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-6)


def test_smoothness_no_new_jerk_spikes():
    ways = [PoseWaypoint(np.array([0.0, 0.0]), np.array([0.0])),
            PoseWaypoint(np.array([1.0, 0.0]), np.array([np.pi / 2])),
            PoseWaypoint(np.array([1.0, 1.0]), np.array([np.pi / 2]))]
    demo = interpolate_waypoints(ways)
    model = fit_lwr(demo, p=25)
    traj = rollout(model)
    acc_demo = np.max(np.abs(np.diff(demo.positions, 2, axis=0)))
    acc_dmp = np.max(np.abs(np.diff(traj.positions, 2, axis=0)))
    assert acc_dmp <= 3.0 * acc_demo


def test_validate_returns_clean_trajectory_unchanged():
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    obstacles = [Superquadric.create([1.0], [0.05, 0.05], [5.0, 5.0])]
    demo = straight_demo()
    traj = rollout(fit_lwr(demo))
    out, report = validate_and_finalize(traj, demo, robot, obstacles)
    assert out is traj and not report.fallback


def test_validate_falls_back_on_collision():
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    # obstacle sits off the straight demo line but on the corrupted path
    obstacles = [Superquadric.create([1.0], [0.2, 0.2], [1.0, -0.5])]
    demo = straight_demo()
    bad = PoseTrajectory(demo.times.copy(),
                         np.stack([demo.positions[:, 0],
                                   demo.positions[:, 0] * 0.5 - 1.0], axis=-1),
                         demo.orientations)
    assert trajectory_collides(bad, robot, obstacles)
    out, report = validate_and_finalize(bad, demo, robot, obstacles)
    assert report.fallback
    assert out is demo and not out.smoothed


def test_validate_raw_collision_is_hard_error():
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    obstacles = [Superquadric.create([1.0], [0.3, 0.3], [1.0, 0.5])]
    demo = straight_demo()
    with pytest.raises(RuntimeError):
        validate_and_finalize(demo, demo, robot, obstacles)


# ------------------------------------------------- rollout reference


def model_of_ends(weights, duration, start, goal, dim):
    """A DMPModel with the standard forcing scale, goal - start."""
    return DMPModel(weights, duration, start, goal, dim, goal - start)


def two_loop_rollout(model):
    """Reference rollout: the forcing term evaluated inside deriv at every RK4
    stage, one loop over the n = ROLLOUT_STEPS equal steps up to the duration
    and a second settle loop after it, on the same steps up to 2 tau."""
    tau = model.duration
    n = dmp.ROLLOUT_STEPS
    times = tau * (np.arange(2 * n + 1) / n)
    h = tau / n
    k = model.u_start.shape[0]
    centers, widths = _basis(model.weights.shape[1])
    span = float(np.linalg.norm(model.u_goal - model.u_start))
    settle_tol = 1e-4 * span + 1e-12

    def deriv(t, y, z):
        x = np.exp(-ALPHA_X * t / tau)
        psi = np.exp(-widths * (x - centers) ** 2)
        f = (model.weights @ psi) / np.sum(psi) * x * model.forcing_scale
        return z / tau, (ALPHA_Z * (BETA_Z * (model.u_goal - y) - z) + f) / tau

    def step(t, y, z):
        k1y, k1z = deriv(t, y, z)
        k2y, k2z = deriv(t + h / 2, y + h / 2 * k1y, z + h / 2 * k1z)
        k3y, k3z = deriv(t + h / 2, y + h / 2 * k2y, z + h / 2 * k2z)
        k4y, k4z = deriv(t + h, y + h * k3y, z + h * k3z)
        return (y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
                z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z))

    y = model.u_start.astype(float).copy()
    z = np.zeros(k)
    out = [y]
    for i in range(n):
        y, z = step(times[i], y, z)
        out.append(y)
    i = n
    while np.linalg.norm(y - model.u_goal) > settle_tol and i < 2 * n:
        y, z = step(times[i], y, z)
        i += 1
        out.append(y)
    return times[:i + 1], np.array(out)


def test_rollout_matches_two_loop_reference():
    rng = np.random.default_rng(0)
    for trial in range(8):
        k = 3 if trial % 2 else 6
        # at 50, two of the 6-channel models settle at the duration on the
        # planner's grid and skip the settle loop
        model = model_of_ends(rng.normal(scale=[150.0, 300.0][trial % 2], size=(k, 15)),
                              float(rng.uniform(0.5, 3.0)), rng.normal(size=k),
                              rng.normal(size=k), 2 if k == 3 else 3)
        times, samples = two_loop_rollout(model)
        traj = rollout(model)
        assert len(traj.times) == len(times)
        assert np.array_equal(traj.times, times)
        got = np.hstack([traj.positions, traj.orientations])
        assert np.max(np.abs(got - samples)) <= 1e-12
        # the state had not settled at the duration, and settled before 2x
        assert model.duration + 1e-12 < times[-1] < 2.0 * model.duration - model.duration / 400.0


def assert_matches_two_loop_reference(model):
    """Same time grid as the reference, values within 1e-12; returns its length."""
    times, samples = two_loop_rollout(model)
    traj = rollout(model)
    assert len(traj.times) == len(times)
    assert np.array_equal(traj.times, times)
    got = np.hstack([traj.positions, traj.orientations])
    assert np.max(np.abs(got - samples)) <= 1e-12
    return len(times)


@pytest.mark.parametrize("name", ["pillars3d", "narrow2d"])
def test_rollout_matches_two_loop_reference_on_plan_models(name, monkeypatch):
    # models fitted from the scene's reference plan and from a seeded stream
    # of start/goal queries
    _, _, _, box_a, box_b = STREAMS[{"pillars3d": "pillars", "narrow2d": "narrow-wall"}[name]]
    scn = generate_benchmark(name, 0)
    pre = pipeline.precompute(scn)
    models = []

    def capture(model):
        models.append(model)
        return rollout(model)

    monkeypatch.setattr(pipeline, "rollout", capture)
    assert pipeline.plan(scn, pre).success
    rng = np.random.default_rng(12)
    for k in range(4):
        a, b = (box_a, box_b) if k % 2 == 0 else (box_b, box_a)
        scn.start = RigidPose.create(clear_point(rng, scn, *map(np.asarray, a)))
        scn.goal = RigidPose.create(clear_point(rng, scn, *map(np.asarray, b)))
        assert pipeline.plan(scn, pre).success
    assert len(models) == 5
    for model in models:
        assert 401 <= assert_matches_two_loop_reference(model) <= 801
        assert rollout(model).times[400] == model.duration


def test_rollout_block_edges_match_two_loop_reference():
    rng = np.random.default_rng(8)
    # models that settle at the duration, some steps later, or never (a zero
    # start-goal span)
    lengths = set()
    for trial, scale in enumerate([0.0, 50.0, 300.0] * 2 + [50.0]):
        start = rng.normal(size=3)
        goal = start.copy() if trial == 6 else rng.normal(size=3)
        model = DMPModel(rng.normal(scale=scale, size=(3, 15)),
                         float(rng.uniform(0.5, 3.0)), start, goal, 2,
                         forcing_scale=np.ones(3))
        lengths.add(assert_matches_two_loop_reference(model))
    assert min(lengths) == 401 and max(lengths) == 801 and len(lengths) > 3
    # forcing scaled until the state first settles on the first, and on the
    # last, step of a block of the block scan: the block from step i holds
    # the states after steps i + 1 .. i + BLOCK
    weights = rng.normal(size=(6, 15))
    start, goal = rng.normal(size=6), rng.normal(size=6)

    def model_of(scale):
        return model_of_ends(weights * scale, 1.0, start, goal, 3)

    def onset(index):
        """log10 of the least scale that first settles at index or later;
        the settled index grows with the scale."""
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if len(rollout(model_of(10.0 ** mid)).times) - 1 < index:
                lo = mid
            else:
                hi = mid
        return hi

    first = next(j for j in range(401, 800) if j % BLOCK == 1)
    last = next(j for j in range(401, 800) if j % BLOCK == 0)
    for settled in (first, last):
        # midway between the onsets, no state sits at the tolerance itself
        model = model_of(10.0 ** (0.5 * (onset(settled) + onset(settled + 1))))
        assert assert_matches_two_loop_reference(model) == settled + 1
        steps = np.diff(rollout(model).times)
        assert np.all(np.abs(steps - 1.0 / 400.0) <= 1e-9 / 400.0)


def test_rk4_maps_reproduce_one_explicit_step():
    # s' = A s + e2 b with the DMP's A; inputs at the DMP's scale, where the
    # goal term alpha_z * beta_z * g / tau dwarfs the state
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = rng.uniform(0.2, 5.0)
        a = np.array([[0.0, 1.0 / tau], [-ALPHA_Z * BETA_Z / tau, -ALPHA_Z / tau]])
        for hm in rng.uniform(1e-4, 0.1 * tau, 4):
            p, q = _rk4_maps(a, hm)
            assert p.shape == (2, 2) and q.shape == (2, 3)
            s = rng.normal(size=(2, 5))
            b1, b2, b4 = rng.normal(scale=100.0, size=(3, 5))

            def deriv(s, b):
                return a @ s + np.array([[0.0], [1.0]]) * b

            k1 = deriv(s, b1)
            k2 = deriv(s + hm / 2 * k1, b2)
            k3 = deriv(s + hm / 2 * k2, b2)
            k4 = deriv(s + hm * k3, b4)
            ref = s + hm / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            got = p @ s + q @ np.stack([b1, b2, b4])
            # a few roundings on each side: 8 ulps of the largest component
            assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))


# --------------------------------------- batched validation vs exact oracle


def line_trajectory(a, b, ori_a, ori_b, n):
    s = np.linspace(0.0, 1.0, n)[:, None]
    a, b = np.asarray(a, float), np.asarray(b, float)
    ori_a, ori_b = np.asarray(ori_a, float), np.asarray(ori_b, float)
    return PoseTrajectory(np.linspace(0.0, 1.0, n), a + s * (b - a),
                          ori_a + s * (ori_b - ori_a))


def random_shape(rng, dim, lo, hi, position, aligned=False):
    rotation = rng.uniform(-np.pi, np.pi, 1) if dim == 2 else rng.normal(size=3)
    if aligned:
        rotation = np.zeros_like(rotation)
    return Superquadric.create(rng.uniform(0.1, 2.0, dim - 1),
                               np.sort(rng.uniform(lo, hi, dim)), position, rotation)


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_validation_matches_per_pose_loop(dim):
    rng = np.random.default_rng(40 + dim)
    k = 1 if dim == 2 else 3
    decisions = []
    for trial in range(24):
        robot = random_shape(rng, dim, 0.05, 0.4, np.zeros(dim))
        obstacles = [random_shape(rng, dim, 0.2, 1.2, rng.uniform(1.0, 5.0, dim))
                     for _ in range(int(rng.integers(1, 4)))]
        n = [1, 31, 32, 33, 81][trial % 5]
        traj = line_trajectory(rng.uniform(0.0, 6.0, dim), rng.uniform(0.0, 6.0, dim),
                               rng.normal(size=k), 3.0 * rng.normal(size=k), n)
        got, _ = check_decision(traj, robot, obstacles)
        decisions.append(got)
    assert any(decisions) and not all(decisions)


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_validation_matches_per_pose_loop_when_grazing(dim):
    # a robot swept past an obstacle at offsets bracketing the first offset
    # where the exact distance is 0; axis-aligned shapes touch on the faces
    # of their bounding boxes
    rng = np.random.default_rng(7 + dim)
    k = 1 if dim == 2 else 3
    for aligned in (True, True, False, False, False):
        robot = random_shape(rng, dim, 0.1, 0.4, np.zeros(dim))
        obstacle = random_shape(rng, dim, 0.3, 1.0, np.zeros(dim), aligned)
        ori = np.zeros(k) if aligned else rng.normal(size=k)
        direction = np.zeros(dim)
        direction[1] = 1.0

        def traj(offset):
            a, b = -2.0 * np.eye(dim)[0], 2.0 * np.eye(dim)[0]
            return line_trajectory(a + offset * direction, b + offset * direction,
                                   ori, ori, 41)

        lo, hi = 0.0, 3.0  # colliding, clear
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if exact_distances(traj(mid), robot, [obstacle]).min() <= 0.0:
                lo = mid
            else:
                hi = mid
        for offset in (lo, hi, lo - 1e-9, hi + 1e-9, 0.5 * (lo + hi), hi + 1e-5):
            check_decision(traj(offset), robot, [obstacle])
        assert trajectory_collides(traj(lo), robot, [obstacle])
        got, d = check_decision(traj(hi + 1e-5), robot, [obstacle])
        assert not got and d > AUDIT_TOL * robot.bounding_radius()


@pytest.mark.parametrize("position, expected", [([0.0, 0.0], True),
                                                ([3.0, 0.0], False)])
def test_batched_validation_single_pose(position, expected):
    robot = Superquadric.create([1.0], [0.1, 0.3], [0.0, 0.0])
    obstacle = Superquadric.create([0.6], [0.4, 0.5], [0.5, 0.2])
    traj = PoseTrajectory(np.zeros(1), np.array([position]), np.array([[0.4]]))
    assert trajectory_collides(traj, robot, [obstacle]) is expected
    assert check_decision(traj, robot, [obstacle])[0] is expected


def test_batched_validation_obstacle_enclosing_robot():
    robot = Superquadric.create([1.0, 1.0], [0.1, 0.2, 0.3], np.zeros(3))
    obstacle = Superquadric.create([1.0, 1.0], [3.0, 3.0, 3.0], np.zeros(3))
    traj = line_trajectory([-0.5, 0.0, 0.0], [0.5, 0.2, 0.0],
                           [0.0, 0.0, 0.0], [0.3, 0.0, 1.0], 5)
    # no obstacle surface point reaches the robot; the robot lies inside
    assert check_decision(traj, robot, [obstacle])[0]


@pytest.mark.parametrize("robot_at, obstacle_at", [
    ([0.0, 0.0, 0.0], [0.4, 0.0, 0.0]),   # obstacle centre inside the robot
    ([0.0, 0.0, 0.4], [0.0, 0.0, 0.0])])  # robot centre inside the obstacle
def test_batched_validation_centre_tests_decide(robot_at, obstacle_at):
    # two thin rods crossed (robot along x, obstacle along z) 0.4 from one
    # rod's centre: rod samples lie 0.1, 0.31, 0.5, ... from their centre, so
    # no surface sample of either is inside the other, and the sampled
    # validator decides by the centre tests alone
    robot = Superquadric.create([1.0, 1.0], [0.05, 0.05, 1.0], np.zeros(3))
    obstacle = Superquadric.create([1.0, 1.0], [0.05, 0.05, 1.0], obstacle_at)
    posed = robot_pose_at(robot, robot_at, np.zeros(3))
    assert np.all(inside_outside(obstacle, surface_samples(posed, 16)) > 0.0)
    assert np.all(inside_outside(posed, surface_samples(obstacle, 16)) > 0.0)
    traj = PoseTrajectory(np.zeros(1), np.array([robot_at]), np.zeros((1, 3)))
    assert check_decision(traj, robot, [obstacle])[0]
    assert sampled_collides(traj, robot, [obstacle])


# ------------------------------------- box broad phase vs sphere broad phase


def sphere_broadphase_collides(trajectory, robot, obstacles):
    """Reference: the exact per-pair oracle behind a bounding-sphere broad
    phase, which solves every pose within r_robot + r_obstacle of an obstacle
    centre; contact when a solve reports distance 0."""
    reach = [robot.bounding_radius() + o.bounding_radius() for o in obstacles]
    for o, r in zip(obstacles, reach):
        n = np.linalg.norm(trajectory.positions - o.center, axis=1) - r <= 0.0
        if n.any():
            near = PoseTrajectory(trajectory.times[n], trajectory.positions[n],
                                  trajectory.orientations[n])
            if exact_distances(near, robot, [o]).min() <= 0.0:
                return True
    return False


def clear_point(rng, scn, lo, hi):
    """A point of the box [lo, hi] whose robot bounding sphere stays inside
    the world and off every obstacle's box."""
    r = scn.robot.bounding_radius()
    lo = np.maximum(lo, scn.world_lo + r)
    hi = np.minimum(hi, scn.world_hi - r)
    while True:
        p = rng.uniform(lo, hi)
        if np.all(box_gaps(p[None], stack_shapes(scn.obstacles)) > r):
            return p


# (scene, seed, queries, start box, goal box); the boxes lie on either side
# of the pillar row, of the wall, and in opposite corners of the field
STREAMS = {
    "pillars": ("pillars3d", 0, 10, ([0.0, 0.0, 0.0], [12.0, 3.5, 12.0]),
                ([0.0, 8.5, 0.0], [12.0, 12.0, 12.0])),
    "narrow-wall": ("narrow2d", 0, 24, ([0.0, 0.0], [0.5, 0.23]),
                    ([0.0, 0.27], [0.5, 0.5])),
    "random-field": ("moderate3d", 1, 6, ([0.0] * 3, [3.0] * 3),
                     ([9.0] * 3, [12.0] * 3)),
}


@pytest.mark.parametrize("stream", list(STREAMS))
def test_box_broadphase_matches_sphere_broadphase_on_query_streams(stream, monkeypatch):
    # every smoothed and raw trajectory of the stream: the certified
    # validator decides like the exact oracle behind a sphere broad phase,
    # and like the sampled validator except where the exact clearance is 0
    name, seed, queries, box_a, box_b = STREAMS[stream]
    scn = generate_benchmark(name, seed)
    pre = pipeline.precompute(scn)
    rng = np.random.default_rng(11)
    trajectories = []

    def capture(smoothed, demo, robot, obstacles):
        trajectories.extend([smoothed, demo])
        return validate_and_finalize(smoothed, demo, robot, obstacles)

    monkeypatch.setattr(pipeline, "validate_and_finalize", capture)
    for k in range(queries):
        a, b = (box_a, box_b) if k % 2 == 0 else (box_b, box_a)
        scn.start = RigidPose.create(clear_point(rng, scn, *map(np.asarray, a)))
        scn.goal = RigidPose.create(clear_point(rng, scn, *map(np.asarray, b)))
        assert pipeline.plan(scn, pre).success
    assert len(trajectories) == 2 * queries
    decisions = [trajectory_collides(t, scn.robot, scn.obstacles) for t in trajectories]
    assert decisions == [sphere_broadphase_collides(t, scn.robot, scn.obstacles)
                         for t in trajectories]
    for t, got in zip(trajectories, decisions):
        if got != sampled_collides(t, scn.robot, scn.obstacles):
            assert got and min_trajectory_distance(t, scn.robot, scn.obstacles) == 0.0
    if stream != "random-field":
        # some smoothed trajectories of these streams cut a corner
        assert any(decisions)


def test_box_broadphase_skips_poses_inside_the_bounding_sphere(monkeypatch):
    # a boxy pillar like the benchmark's: its bounding sphere (radius 6.15)
    # holds every pose below, but only the last one comes within r of its box
    robot = Superquadric.create([1.0, 1.0], [0.1, 0.2, 0.3], np.zeros(3))
    pillar = Superquadric.create([0.2, 0.2], [0.5, 1.25, 6.0], np.zeros(3))
    far = line_trajectory([3.0, 0.0, 2.0], [1.0, 0.0, -2.0],
                          np.zeros(3), [0.0, 0.4, 0.0], 64)
    into = PoseTrajectory(np.arange(65.0),
                          np.vstack([far.positions, [[0.55, 0.0, 0.0]]]),
                          np.vstack([far.orientations, np.zeros((1, 3))]))
    r = robot.bounding_radius()
    assert np.all(np.linalg.norm(far.positions, axis=1) < r + pillar.bounding_radius())
    assert np.all(box_gaps(far.positions, stack_shapes([pillar])) > r)
    tested = []

    def counting_rotations(dim, orientations):
        tested.append(len(orientations))
        return robot_rotations(dim, orientations)

    monkeypatch.setattr(clearance, "robot_rotations", counting_rotations)
    assert not trajectory_collides(far, robot, [pillar])
    assert tested == []
    assert trajectory_collides(into, robot, [pillar])
    assert tested == [1]
    for traj, expected in ((far, False), (into, True)):
        assert sphere_broadphase_collides(traj, robot, [pillar]) is expected
        assert check_decision(traj, robot, [pillar])[0] is expected


def bench_stream(stream):
    """perfbench's precomputed scene and its query sampler, seed 1001."""
    bench = load_bench_scenes()
    scene, regions = {"pillars": (bench.pillars(), bench.pillar_regions()),
                      "narrow-wall": (bench.narrow_wall(), bench.wall_regions())}[stream]
    return pipeline.precompute(scenario_from_dict(scene)), bench.QuerySampler(scene, regions, 1001)


# --------------------------------------------------- cached rollout response


def block_scan_rollout(model):
    """Reference rollout: the forcing term over the whole uniform grid of
    ROLLOUT_STEPS steps per duration up to 2 tau, then the linear step map
    scanned BLOCK steps at a time from the start, stopping after the first
    block that holds a settled state at or after the duration."""
    tau = model.duration
    n = dmp.ROLLOUT_STEPS
    times = tau * (np.arange(2 * n + 1) / n)
    h = tau / n
    centers, widths = _basis(model.weights.shape[1])

    def forcing_at(t):
        x = np.exp(-ALPHA_X * t / tau)
        psi = np.exp(-widths * (x[:, None] - centers) ** 2)
        return ((psi @ model.weights.T) / np.sum(psi, axis=1)[:, None] * x[:, None]
                * model.forcing_scale)

    at_grid = forcing_at(times)
    at_mid = forcing_at(times[:-1] + h / 2)
    forcing = np.stack([at_grid[:-1], at_mid, at_grid[1:]], axis=1)
    span = float(np.linalg.norm(model.u_goal - model.u_start))
    settle_tol = 1e-4 * span + 1e-12
    goal = model.u_goal
    k = len(goal)
    a = np.array([[0.0, 1.0 / tau], [-ALPHA_Z * BETA_Z / tau, -ALPHA_Z / tau]])
    step_map, input_map = _rk4_maps(a, h)
    b = (ALPHA_Z * BETA_Z * goal + forcing) / tau
    increments = np.einsum("ij,njk->ink", input_map, b)
    powers, kernel = block_kernel(step_map, BLOCK)
    s = np.stack([model.u_start.astype(float), np.zeros(k)])
    out = np.empty((2 * n + 1, k))
    out[0] = s[0]
    m = len(out)
    for i in range(0, 2 * n, BLOCK):
        j = min(BLOCK, 2 * n - i)
        states = powers[:, :j].reshape(2 * j, 2) @ s \
            + kernel[:, :j, :, :j].reshape(2 * j, 2 * j) @ increments[:, i:i + j].reshape(2 * j, k)
        out[i + 1:i + 1 + j] = states[:j]
        s = states[j - 1::j]
        first = max(i + 1, n)
        r = out[first:i + 1 + j] - goal
        settled = np.flatnonzero(np.einsum("ij,ij->i", r, r) <= settle_tol * settle_tol)
        if len(settled):
            m = first + int(settled[0]) + 1
            break
    return times[:m], out[:m]


def assert_matches_block_scan(model):
    """Same time grid as the block scan, values within 1e-12; returns its length."""
    times, samples = block_scan_rollout(model)
    traj = rollout(model)
    assert np.array_equal(traj.times, times)
    got = np.hstack([traj.positions, traj.orientations])
    assert np.max(np.abs(got - samples)) <= 1e-12
    return len(times)


def random_model(rng, p, k, duration, scale=50.0):
    return model_of_ends(rng.normal(scale=scale, size=(k, p)), duration,
                         rng.normal(size=k), rng.normal(size=k), 2 if k == 3 else 3)


def trajectory_bytes(traj):
    return traj.times.tobytes() + traj.positions.tobytes() + traj.orientations.tobytes()


@pytest.mark.parametrize("name", ["pillars3d", "narrow2d"])
def test_rollout_matches_block_scan_on_plan_models(name, monkeypatch):
    # the reference plan's model and a seeded stream's
    _, _, _, box_a, box_b = STREAMS[{"pillars3d": "pillars", "narrow2d": "narrow-wall"}[name]]
    scn = generate_benchmark(name, 0)
    pre = pipeline.precompute(scn)
    models = []

    def capture(model):
        models.append(model)
        return rollout(model)

    monkeypatch.setattr(pipeline, "rollout", capture)
    assert pipeline.plan(scn, pre).success
    rng = np.random.default_rng(12)
    for k in range(4):
        a, b = (box_a, box_b) if k % 2 == 0 else (box_b, box_a)
        scn.start = RigidPose.create(clear_point(rng, scn, *map(np.asarray, a)))
        scn.goal = RigidPose.create(clear_point(rng, scn, *map(np.asarray, b)))
        assert pipeline.plan(scn, pre).success
    assert len(models) == 5
    for model in models:
        assert_matches_block_scan(model)
        assert_matches_two_loop_reference(model)


def test_rollout_is_bitwise_equal_with_cold_warm_and_shared_cache():
    rng = np.random.default_rng(21)
    model = random_model(rng, 25, 6, 1.7, scale=300.0)
    dmp._response.cache_clear()
    cold = trajectory_bytes(rollout(model))
    assert dmp._response.cache_info().misses == 1
    warm = trajectory_bytes(rollout(model))
    assert dmp._response.cache_info().hits == 1
    # other durations share the entry; other basis counts fill (and
    # overflow) the cache
    dmp._response.cache_clear()
    for p in [25, 15, 10, 25, 20, 30, 40, 12]:
        other = random_model(rng, p, 3, float(rng.uniform(0.5, 3.0)))
        rollout(other)
    assert dmp._response.cache_info().currsize == dmp.RESPONSES
    assert dmp._response.cache_info().misses == 7
    shared = trajectory_bytes(rollout(model))
    assert cold == warm == shared


def test_response_arrays_are_read_only_and_cache_is_bounded():
    rng = np.random.default_rng(22)
    dmp._response.cache_clear()
    for p in range(2, 2 + 3 * dmp.RESPONSES):
        rollout(random_model(rng, p, 3, 1.0))
        assert dmp._response.cache_info().currsize <= dmp.RESPONSES
    rows = dmp._response(12)
    # y rows on the grid k / 400 up to 2: a unit start, a unit goal and each
    # forcing column
    assert rows.shape == (801, 14)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 2.0
    assert dmp._response(12) is rows
    # a rollout of 12 basis functions reads this entry, whatever its duration
    hits = dmp._response.cache_info().hits
    rollout(random_model(rng, 12, 3, 2.5))
    assert dmp._response.cache_info().hits == hits + 1
    # without forcing, a unit start and a unit goal sum to a state at rest
    assert np.allclose(rows[:, 0] + rows[:, 1], 1.0, rtol=0.0, atol=1e-13)


def test_response_is_finite_up_to_the_largest_basis():
    # the settle tail runs the phase to exp(-2 ALPHA_X), where the basis
    # sum underflows from 141 functions on; MAX_BASIS keeps well below
    dmp._response.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = dmp._response(dmp.MAX_BASIS)
    assert rows.shape == (2 * dmp.ROLLOUT_STEPS + 1, dmp.MAX_BASIS + 2)
    assert np.all(np.isfinite(rows))
    dmp._response.cache_clear()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_rejects_more_than_the_largest_basis():
    # from 141 functions on the rollout's forcing columns underflow; the fit
    # refuses any basis above MAX_BASIS, in the library as at load
    demo = straight_demo()
    for p in (dmp.MAX_BASIS + 1, 150):
        with pytest.raises(ValueError, match="basis functions"):
            fit_lwr(demo, p)
    traj = rollout(fit_lwr(demo, dmp.MAX_BASIS))
    assert all(np.all(np.isfinite(a)) for a in (traj.times, traj.positions, traj.orientations))
    assert np.linalg.norm(traj.positions[-1] - demo.positions[-1]) <= 1e-3
    scn = generate_benchmark("narrow2d")
    scn.dmp_basis = 150
    with pytest.raises(ValueError, match="basis functions"):
        pipeline.plan(scn)


@pytest.mark.parametrize("stream", ["pillars", "narrow-wall"])
def test_query_streams_create_at_most_two_responses(stream, monkeypatch):
    # perfbench's scene and query sampler (seed 1001): every query takes 400
    # steps per duration and the default basis, so the stream shares one
    # response
    pre, sampler = bench_stream(stream)
    ends = []

    def capture(model):
        traj = rollout(model)
        ends.append(traj.times[400] == model.duration)
        return traj

    monkeypatch.setattr(pipeline, "rollout", capture)
    dmp._response.cache_clear()
    for _ in range(100):
        pipeline.plan(scenario_from_dict(sampler.next()), pre)
    assert len(ends) == 100 and all(ends)
    assert dmp._response.cache_info().misses == 1


def test_default_dt_takes_400_equal_steps():
    # a zero start-goal span never settles, so the rollout runs to 2 tau: 800
    # equal steps of tau / 400, whatever tau is
    rng = np.random.default_rng(23)
    start = rng.normal(size=6)
    model = DMPModel(rng.normal(scale=50.0, size=(6, 25)), 1.0,
                     start, start.copy(), 3, forcing_scale=np.ones(6))
    for tau in np.concatenate([[26.59995192128542], 10.0 ** rng.uniform(-3.0, 3.0, 200)]):
        model.duration = float(tau)
        traj = rollout(model)
        assert len(traj.times) == 801
        assert traj.times[400] == tau and traj.times[-1] == 2.0 * tau
        assert np.allclose(np.diff(traj.times), tau / 400.0, rtol=1e-12, atol=0.0)
    length = assert_matches_block_scan(model)
    assert assert_matches_two_loop_reference(model) == length == 801


def test_rollout_is_stable_under_one_ulp_waypoint_changes(monkeypatch):
    # perfbench's pillars stream, seed 1001, query 54: moving each waypoint
    # coordinate by one ulp moved the rollout by up to 3e-5 m while passage
    # times sat in the demonstration grid, next to a grid time
    bench = load_bench_scenes()
    scene = bench.pillars()
    pre = pipeline.precompute(scenario_from_dict(scene))
    sampler = bench.QuerySampler(scene, bench.pillar_regions(), 1001)
    for _ in range(54):
        sampler.next()
    captured = []

    def capture(waypoints):
        captured.append(waypoints)
        return interpolate_waypoints(waypoints)

    monkeypatch.setattr(pipeline, "interpolate_waypoints", capture)
    assert pipeline.plan(scenario_from_dict(sampler.next()), pre).success
    waypoints, = captured

    def positions(ways):
        return rollout(fit_lwr(interpolate_waypoints(ways))).positions

    base = positions(waypoints)
    rng = np.random.default_rng(0)
    for trial in range(22):
        toward = [np.full(3, [np.inf, -np.inf][trial]) if trial < 2
                  else np.where(rng.random(3) < 0.5, np.inf, -np.inf) for _ in waypoints]
        moved = positions([PoseWaypoint(np.nextafter(w.position, d), w.orientation)
                           for w, d in zip(waypoints, toward)])
        assert moved.shape == base.shape
        assert np.max(np.abs(moved - base)) <= 1e-9


def test_min_samples_is_the_least_that_plans_two_waypoints():
    # a straight demonstration between two waypoints, of the fewest samples
    for n in range(dmp.MIN_SAMPLES, dmp.MIN_SAMPLES + 3):
        traj = rollout(fit_lwr(straight_demo(n)))
        assert np.linalg.norm(traj.positions[-1] - [2.0, 1.0]) <= 1e-3
    with pytest.raises(ValueError):
        fit_lwr(straight_demo(dmp.MIN_SAMPLES - 1))


# ------------------------------------------------------------ cached LWR map


def assert_fit_matches_reference(demo, p):
    """Weights within 1e-9 of each channel's largest reference weight
    (zero channels exactly zero), and rollouts of equal length."""
    got, ref = fit_lwr(demo, p), reference_fit_lwr(demo, p)
    scale = np.max(np.abs(ref.weights), axis=1, keepdims=True)
    assert np.all(np.abs(got.weights - ref.weights) <= 1e-9 * scale)
    for field in ("u_start", "u_goal", "forcing_scale"):
        assert np.array_equal(getattr(got, field), getattr(ref, field))
    assert got.duration == ref.duration and got.dim == ref.dim
    assert len(rollout(got).times) == len(rollout(ref).times)


def profile_demo(n, offset=0.0, duration=2.0):
    """Minimum-jerk channels: two spans, a constant, a start-goal span of
    1e-7 (where the fit's regulariser is active) and an excursion of 1e-7
    that returns to its start, all offset by `offset`."""
    t = np.linspace(0.0, duration, n)
    s = t / duration
    prof = 10 * s**3 - 15 * s**4 + 6 * s**5
    samples = np.stack([2.0 * prof + 0.4, -prof, np.full(n, 0.7), 1e-7 * prof,
                        1e-7 * np.sin(np.pi * s), 1e-9 * prof], axis=-1) + offset
    return PoseTrajectory(t, samples[:, :3], samples[:, 3:], smoothed=False)


@pytest.mark.parametrize("plans", ["pillars", "narrow-wall", "benchmarks"])
def test_fit_matches_reference_on_plan_demonstrations(plans, monkeypatch):
    # 30 queries of perfbench's stream (seed 1001), or the six benchmarks'
    # reference plans
    demos = []

    def capture(demo, p):
        demos.append((demo, p))
        return fit_lwr(demo, p)

    monkeypatch.setattr(pipeline, "fit_lwr", capture)
    if plans == "benchmarks":
        for name in ["narrow2d", "t_block", "u_block", "pillars3d", "moderate3d", "dense3d"]:
            assert pipeline.plan(generate_benchmark(name, 0)).success
    else:
        pre, sampler = bench_stream(plans)
        for _ in range(30):
            pipeline.plan(scenario_from_dict(sampler.next()), pre)
    assert len(demos) == (6 if plans == "benchmarks" else 30)
    for demo, p in demos:
        assert_fit_matches_reference(demo, p)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 400])
@pytest.mark.parametrize("p", [2, 25, 50])
def test_fit_matches_reference_on_small_and_degenerate_channels(n, p):
    # up to 8 samples the regression keeps its boundary samples
    assert_fit_matches_reference(profile_demo(n), p)


def test_fit_is_the_reference_fit_of_goal_centred_samples():
    # a constant offset cancels in the forcing target; the reference's
    # finite differences lose up to 1e-6 of a 1e-7 span to it, while the fit
    # applies its map to the goal-centred samples
    for n in (5, 9, 400, 1000):
        demo = profile_demo(n, offset=5.0)
        centred = PoseTrajectory(demo.times, demo.positions - demo.positions[-1],
                                 demo.orientations - demo.orientations[-1], smoothed=False)
        got, ref = fit_lwr(demo, 25), reference_fit_lwr(centred, 25)
        scale = np.max(np.abs(ref.weights), axis=1, keepdims=True)
        assert np.all(np.abs(got.weights - ref.weights) <= 1e-12 * scale)


def test_fit_rejects_unequally_spaced_times():
    demo = profile_demo(50)
    for times in (demo.times ** 1.5, demo.times + 0.1, np.sort(demo.times * (1.0 + 1e-6
                  * np.random.default_rng(3).random(50)))):
        with pytest.raises(ValueError, match="equally spaced"):
            fit_lwr(PoseTrajectory(times, demo.positions, demo.orientations, smoothed=False))
    # the rollout's grid and a linspace grid are accepted
    fit_lwr(rollout(fit_lwr(demo)))


def test_lwr_maps_are_read_only_and_cache_is_bounded():
    dmp._lwr_map.cache_clear()
    for n in range(40, 40 + 3 * dmp.LWR_MAPS):
        fit_lwr(profile_demo(n), 12)
        assert dmp._lwr_map.cache_info().currsize <= dmp.LWR_MAPS
    key = (40, 12)
    entry = dmp._lwr_map(*key)
    assert [a.shape for a in entry] == [(12, 40), (12,), (12, 12)]
    for a in entry:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 2.0
    assert dmp._lwr_map(*key) is entry
    # a fit of 40 samples reads this entry
    hits = dmp._lwr_map.cache_info().hits
    fit_lwr(profile_demo(40, duration=3.1), 12)
    assert dmp._lwr_map.cache_info().hits == hits + 1


def test_lwr_map_build_forms_no_square_array():
    # an (N, N) operator at N = 4000 alone would take 128 MB
    dmp._lwr_map.cache_clear()
    tracemalloc.start()
    try:
        dmp._lwr_map(4000, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dmp._lwr_map.cache_clear()
    assert peak < 8e6


@pytest.mark.parametrize("stream", ["pillars", "narrow-wall"])
def test_query_streams_create_at_most_five_lwr_maps(stream):
    # perfbench's scene and query sampler (seed 1001): the sample count is
    # max(400, 100 per waypoint), so the stream takes a few sample counts
    pre, sampler = bench_stream(stream)
    dmp._lwr_map.cache_clear()
    for _ in range(100):
        assert pipeline.plan(scenario_from_dict(sampler.next()), pre).success
    assert 1 <= dmp._lwr_map.cache_info().misses <= 5
