import numpy as np
import pytest

from oracles import (check_decision, exact_distances, load_bench_scenes, robot_pose_at,
                     sampled_collides, with_pose)
from sqplan import clearance, dmp, pipeline
from sqplan.clearance import (AUDIT_TOL, _pair_bounds, _upper_bounds,
                              min_trajectory_distance, trajectory_collides)
from sqplan.dmp import PoseTrajectory, validate_and_finalize
from sqplan.geometry import Superquadric, stack_pairs
from sqplan.proximity import closest_pair
from sqplan.scenario import (compute_metrics, generate_benchmark, metrics_to_dict,
                             scenario_from_dict)


def random_shape(rng, dim, lo, hi, position):
    return Superquadric.create(rng.uniform(0.1, 2.0, dim - 1), np.sort(rng.uniform(lo, hi, dim)),
                               position, rng.normal(size=1 if dim == 2 else 3))


def wandering(rng, dim, n, lo, hi):
    """Smooth random path through [lo, hi]^dim with turning orientations."""
    knots = rng.uniform(lo, hi, size=(4, dim))
    s = np.linspace(0.0, 3.0, n)
    positions = np.stack([np.interp(s, np.arange(4), knots[:, k]) for k in range(dim)], axis=-1)
    turns = rng.normal(scale=1.0, size=(4, 1 if dim == 2 else 3))
    orientations = np.stack([np.interp(s, np.arange(4), turns[:, k])
                             for k in range(turns.shape[1])], axis=-1)
    return PoseTrajectory(np.linspace(0.0, 1.0, n), positions, orientations)


def per_pair_distance(trajectory, robot, obstacles):
    """The exact minimum by a closest_pair call per (pose, obstacle)."""
    return min(closest_pair(robot_pose_at(robot, p, o), obstacle).distance
               for p, o in zip(trajectory.positions, trajectory.orientations)
               for obstacle in obstacles)


@pytest.mark.parametrize("dim", [2, 3])
def test_threshold_query_matches_per_pair_loop_on_random_scenes(dim):
    # validation decides like the exact per-pair minimum
    rng = np.random.default_rng([dim, 16])
    decisions = []
    for trial in range(30):
        robot = random_shape(rng, dim, 0.05, 0.3, np.zeros(dim))
        obstacles = [random_shape(rng, dim, 0.1, 0.6, rng.uniform(0.0, 2.0, dim))
                     for _ in range(3)]
        traj = wandering(rng, dim, [1, 2, 40][trial % 3], 0.0, 2.0)
        exact = per_pair_distance(traj, robot, obstacles)
        got, d = check_decision(traj, robot, obstacles)
        assert d == exact
        decisions.append(got)
    assert 5 <= sum(decisions) <= 25


@pytest.mark.parametrize("dim", [2, 3])
def test_threshold_query_when_grazing(dim):
    # a rotated robot swept past a rotated obstacle at offsets around the
    # first contact: contact at exact distance 0, clear above the tolerance
    rng = np.random.default_rng([dim, 17])
    for _ in range(4):
        robot = random_shape(rng, dim, 0.1, 0.4, np.zeros(dim))
        obstacle = random_shape(rng, dim, 0.3, 1.0, np.zeros(dim))
        ori = rng.normal(size=1 if dim == 2 else 3)

        def traj(offset):
            a = np.eye(dim)[1] * offset
            return PoseTrajectory(np.linspace(0.0, 1.0, 31),
                                  np.linspace(a - 2.0 * np.eye(dim)[0], a + 2.0 * np.eye(dim)[0], 31),
                                  np.tile(ori, (31, 1)))

        lo, hi = 0.0, 3.0
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if exact_distances(traj(mid), robot, [obstacle]).min() <= 0.0 else (lo, mid)
        assert check_decision(traj(lo), robot, [obstacle])[0]
        for offset in (hi, hi + 1e-7, hi + 1e-4):
            check_decision(traj(offset), robot, [obstacle])
        assert not trajectory_collides(traj(hi + 1e-4), robot, [obstacle])


@pytest.mark.parametrize("dim", [2, 3])
def test_threshold_query_obstacle_enclosing_robot(dim):
    # no support point of the obstacle reaches the robot; the robot's lie
    # inside the obstacle
    robot = Superquadric.create(np.ones(dim - 1), np.linspace(0.1, 0.3, dim), np.zeros(dim))
    obstacle = Superquadric.create(np.ones(dim - 1), np.full(dim, 3.0), np.zeros(dim))
    traj = PoseTrajectory(np.zeros(1), np.full((1, dim), 0.2), np.full((1, 1 if dim == 2 else 3), 0.3))
    assert trajectory_collides(traj, robot, [obstacle])
    assert check_decision(traj, robot, [obstacle])[0]


@pytest.mark.parametrize("dim", [2, 3])
def test_threshold_query_contact_only_at_the_last_pose(dim):
    # a long clear approach whose last pose touches; one pose less is clear
    robot = Superquadric.create(np.ones(dim - 1), np.linspace(0.1, 0.3, dim), np.zeros(dim))
    obstacle = Superquadric.create(np.full(dim - 1, 0.5), np.full(dim, 0.5), 5.0 * np.eye(dim)[0])
    k = 1 if dim == 2 else 3
    n = 97
    positions = np.vstack([np.linspace(np.zeros(dim), 3.5 * np.eye(dim)[0], n - 1),
                           4.4 * np.eye(dim)[:1]])
    traj = PoseTrajectory(np.arange(float(n)), positions,
                          np.linspace(np.zeros(k), np.full(k, 0.3), n))
    head = PoseTrajectory(traj.times[:-1], traj.positions[:-1], traj.orientations[:-1])
    assert check_decision(traj, robot, [obstacle])[0]
    assert not check_decision(head, robot, [obstacle])[0]
    distances = exact_distances(traj, robot, [obstacle])[:, 0]
    assert distances[-1] == 0.0 and np.all(distances[:-1] > 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_bounds_never_exceed_the_distance(dim):
    # boxy, round and pointed shapes at random poses, from overlapping to
    # far: every bound is at most the exact distance, contact is proved only
    # for overlapping pairs, and the bounds are tight for far, round pairs
    rng = np.random.default_rng([dim, 18])
    robots, obstacles = [], []
    for _ in range(400):
        robots.append(random_shape(rng, dim, 0.1, 0.5, rng.uniform(-1.0, 1.0, dim)))
        obstacles.append(random_shape(rng, dim, 0.2, 1.5, rng.uniform(-2.0, 2.0, dim)))
    bounds, _ = _pair_bounds(stack_pairs(robots, obstacles))
    exact = np.array([closest_pair(a, b).distance for a, b in zip(robots, obstacles)])
    assert np.all(bounds <= exact + 1e-12)
    assert np.count_nonzero(exact > 0.0) > 100 and np.count_nonzero(exact == 0.0) > 20
    assert np.median(bounds[exact > 0.5] / exact[exact > 0.5]) > 0.7
    for k in range(len(robots)):
        _, contact = _pair_bounds(stack_pairs(robots, obstacles).take(np.s_[:, k:k + 1]))
        assert not contact or exact[k] == 0.0


def test_pair_bounds_are_tight_along_the_contact_normal():
    # the bound is the exact distance 0.1 when the contact normal is one of
    # its directions: a rotated slab's thin axis (robot side, a ball beside
    # it), a boxy slab's face normal (obstacle side), and the centre line of
    # two balls on a diagonal (box-nearest)
    def bound(robot, obstacle):
        return float(_pair_bounds(stack_pairs([robot], [obstacle]))[0][0])

    rotation = np.array([0.2, -0.3, 0.4])
    slab = Superquadric.create([0.1, 0.1], [0.1, 1.0, 1.0], np.zeros(3), rotation)
    normal = slab.pose.matrix[:, 0]
    ball = Superquadric.create([1.0, 1.0], [0.5, 0.5, 0.5], 0.7 * normal)
    assert bound(slab, ball) == pytest.approx(0.1, abs=1e-12)
    assert bound(ball, slab) == pytest.approx(0.1, abs=1e-12)
    other = Superquadric.create([1.0, 1.0], [0.5, 0.5, 0.5], np.full(3, 1.1 / np.sqrt(3.0)))
    assert bound(with_pose(ball, slab.pose), other) == pytest.approx(0.1, abs=1e-12)
    for robot, obstacle in ((slab, ball), (ball, slab)):
        assert closest_pair(robot, obstacle).distance == pytest.approx(0.1, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_upper_bounds_never_fall_below_the_distance(dim):
    # boxy, round and pointed exponents (0.1, 1, 2 and between), robots
    # near and far, with their centre inside the obstacle's box, and at the
    # obstacle's centre, where the bound is 0
    rng = np.random.default_rng([dim, 19])

    def shape(lo, hi, position):
        eps = rng.choice([0.1, 1.0, 2.0, rng.uniform(0.1, 2.0)], size=dim - 1)
        return Superquadric.create(eps, np.sort(rng.uniform(lo, hi, dim)), position,
                                   rng.normal(size=1 if dim == 2 else 3))

    robots, obstacles = [], []
    for k in range(600):
        obstacle = shape(0.2, 1.5, rng.uniform(-2.0, 2.0, dim))
        inside = obstacle.pose.transform(rng.uniform(-1.0, 1.0, dim) * obstacle.axes)
        centre = [rng.uniform(-3.0, 3.0, dim), inside, obstacle.center][k % 3]
        robots.append(shape(0.05, 0.5, centre))
        obstacles.append(obstacle)
    bounds = _upper_bounds(stack_pairs(robots, obstacles))
    exact = np.array([closest_pair(a, b).distance for a, b in zip(robots, obstacles)])
    assert np.all(bounds >= exact - 1e-12)
    assert np.all(bounds[2::3] == 0.0)
    assert np.count_nonzero(exact > 0.5) > 100
    # a crude bound, but of the distance's order for far pairs
    assert np.median(bounds[exact > 0.5] / exact[exact > 0.5]) < 1.25
    # two balls: exact when apart; at a 1e-200 m offset the obstacle's
    # point is still on its surface, 1 m from its centre
    ball = Superquadric.create(np.ones(dim - 1), np.ones(dim), np.zeros(dim))
    for x, want in ((3.0, 1.9), (1e-200, 1.1)):
        robot = Superquadric.create(np.ones(dim - 1), np.full(dim, 0.1), x * np.eye(dim)[0])
        assert _upper_bounds(stack_pairs([robot], [ball]))[0] == pytest.approx(want, abs=1e-12)


def test_threshold_query_builds_no_rotation_when_boxes_are_clear(monkeypatch):
    robot = Superquadric.create([1.0, 1.0], [0.1, 0.2, 0.3], np.zeros(3))
    obstacle = Superquadric.create([0.2, 0.2], [0.5, 1.25, 6.0], np.zeros(3))
    traj = PoseTrajectory(np.arange(3.0), np.array([[2.0, 0.0, 0.0], [2.5, 0.0, 0.0],
                                                    [3.0, 0.0, 0.0]]), np.zeros((3, 3)))
    monkeypatch.setattr(clearance, "robot_rotations", None)
    assert trajectory_collides(traj, robot, [obstacle]) is False


def test_pillars_query_93_falls_back_to_a_clear_trajectory(monkeypatch):
    # the sampled validator passed this query's smoothed trajectory, whose
    # certified clearance is 0: the threshold query rejects it, and the raw
    # demonstration returned instead is certified clear
    bench = load_bench_scenes()
    scene = bench.pillars()
    sampler = bench.QuerySampler(scene, bench.pillar_regions(), 1001)
    for _ in range(93):
        sampler.next()
    scn = scenario_from_dict(sampler.next())
    smoothed = []

    def capture(trajectory, demo, robot, obstacles):
        smoothed.append(trajectory)
        return validate_and_finalize(trajectory, demo, robot, obstacles)

    monkeypatch.setattr(pipeline, "validate_and_finalize", capture)
    result = pipeline.plan(scn, pipeline.precompute(scenario_from_dict(scene)))
    assert result.success and result.validation.fallback
    assert min_trajectory_distance(smoothed[0], scn.robot, scn.obstacles) == 0.0
    assert not sampled_collides(smoothed[0], scn.robot, scn.obstacles)
    assert result.trajectory is not smoothed[0]
    assert result.trajectory is result.demonstration
    assert min_trajectory_distance(result.trajectory, scn.robot, scn.obstacles) > 0.0


def test_validation_agrees_with_the_audit_on_planned_trajectories(monkeypatch):
    # every trajectory that validation checks on the first 60 seed-1001
    # queries of the pillars scene and of the narrow wall, raw
    # demonstrations included: contact wherever the audit reads 0, clear
    # wherever the audit is above twice its tolerance, and both occur
    bench = load_bench_scenes()
    checked = []

    def capture(trajectory, robot, obstacles):
        checked.append((trajectory_collides(trajectory, robot, obstacles),
                        trajectory, robot, obstacles))
        return checked[-1][0]

    monkeypatch.setattr(dmp, "trajectory_collides", capture)
    for scene, regions in ((bench.pillars(), bench.pillar_regions()),
                           (bench.narrow_wall(), bench.wall_regions())):
        pre = pipeline.precompute(scenario_from_dict(scene))
        sampler = bench.QuerySampler(scene, regions, 1001)
        for _ in range(60):
            pipeline.plan(scenario_from_dict(sampler.next()), pre)
    contacts = clear = 0
    for got, trajectory, robot, obstacles in checked:
        d = min_trajectory_distance(trajectory, robot, obstacles)
        if d == 0.0:
            assert got
            contacts += 1
        elif d > 2.0 * AUDIT_TOL * robot.bounding_radius():
            assert not got
            clear += 1
    assert contacts and clear


def test_audit_first_round_is_stable_under_rounding_of_the_trajectory(monkeypatch):
    # on the pillars reference plan each pillar's box bound is least, and
    # exactly tied, over poses 197-199, where the path runs along the face
    # x = 6 at x = 6 - 1e-14; the opening round solves the centre of that
    # run for every pillar, and shifting the trajectory by 1e-13 leaves its
    # (pose, pillar) pairs and its work
    scn = generate_benchmark("pillars3d", 0)
    traj = pipeline.plan(scn).trajectory
    centres = np.array([o.center for o in scn.obstacles])
    rounds = []
    solve = clearance.closest_pair_arrays

    def record(pairs, *args, **kwargs):
        rounds.append(pairs.pos.copy())
        return solve(pairs, *args, **kwargs)

    monkeypatch.setattr(clearance, "closest_pair_arrays", record)

    def audit(positions):
        """The distance, the stats and the opening round's (pose, pillar)
        pairs."""
        rounds.clear()
        stats = clearance.AuditStats()
        moved = PoseTrajectory(traj.times, positions, traj.orientations)
        d = min_trajectory_distance(moved, scn.robot, scn.obstacles, stats)
        return d, stats, {(int(np.flatnonzero(np.all(positions == p, axis=1))[0]),
                           int(np.flatnonzero(np.all(centres == c, axis=1))[0]))
                          for p, c in zip(*rounds[0])}

    base = audit(traj.positions)
    assert {(198, j) for j in range(len(scn.obstacles))} <= base[2]
    for shift in ([1, 1, 1], [-1, -1, -1], [1, 0, 0], [-1, 0, 0], [0, 1, -1], [-1, 1, 1]):
        d, stats, first = audit(traj.positions + 1e-13 * np.array(shift))
        assert first == base[2] and stats == base[1]
        assert abs(d - base[0]) <= 1e-12


@pytest.mark.parametrize("name, most", [("pillars3d", 24), ("narrow2d", 12)])
def test_audit_opens_with_one_min_search_round(name, most):
    # the opening round's bound retires solves, and the slowest solve of
    # each round, summed, stays at most `most` (45 and 22 when the picks
    # and the stride poses were two rounds); both counts reach metrics.json
    scn = generate_benchmark(name, 0)
    report = compute_metrics(pipeline.plan(scn).trajectory, scn, {})
    out = metrics_to_dict(report)
    assert out["audit_round_iterations"] == report.audit.round_iterations <= most
    assert out["audit_bound_retired"] == report.audit.bound_retired > 0
    assert report.audit.nonconverged == 0
