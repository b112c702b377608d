import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import closest_pairs, robot_pose_at
from sqplan.cli import EXIT_VALIDATION, main
from sqplan.dmp import PoseTrajectory
from sqplan.geometry import (Superquadric, box_gaps, expand, stack_pairs, stack_shapes,
                             surface_samples)
from sqplan.pipeline import plan
from sqplan.poses import robot_rotations
from sqplan import clearance, proximity
from sqplan.clearance import AuditStats
from sqplan.proximity import closest_pair, overlaps
from sqplan.scenario import (BENCHMARK_NAMES, Scenario, ScenarioError,
                             compute_metrics, generate_benchmark,
                             load_scenario, load_trajectory, metrics_to_dict,
                             min_trajectory_distance, save_scenario,
                             save_trajectory, scenario_from_dict,
                             scenario_to_dict)


def minimal_dict():
    return {
        "version": 1,
        "dim": 2,
        "world": {"min": [0.0, 0.0], "max": [1.0, 1.0]},
        "robot": {"eps": [0.5], "axes": [0.02, 0.06],
                  "position": [0.0, 0.0], "rotation": [0.0]},
        "obstacles": [{"eps": [1.0], "axes": [0.1, 0.1],
                       "position": [0.5, 0.5], "rotation": [0.0]}],
        "start": {"position": [0.1, 0.1], "rotation": [0.0]},
        "goal": {"position": [0.9, 0.9], "rotation": [0.0]},
    }


def test_minimal_scenario_gets_defaults():
    scn = scenario_from_dict(minimal_dict())
    assert scn.dim == 2
    # the basis size is the one parameter; the planner derives the rest
    assert scn.dmp_basis == 25


def test_load_error_names_obstacle_index():
    data = minimal_dict()
    data["obstacles"][0]["axes"] = [0.1, -0.1]
    with pytest.raises(ScenarioError, match="obstacles\\[0\\]"):
        scenario_from_dict(data)


def test_load_error_start_inside_obstacle():
    data = minimal_dict()
    data["start"]["position"] = [0.5, 0.5]
    with pytest.raises(ScenarioError, match="start"):
        scenario_from_dict(data)


def test_load_error_start_outside_world():
    data = minimal_dict()
    data["goal"]["position"] = [1.5, 0.5]
    with pytest.raises(ScenarioError, match="goal"):
        scenario_from_dict(data)


def test_load_error_unknown_param_and_version():
    data = minimal_dict()
    data["params"] = {"bogus": 1}
    with pytest.raises(ScenarioError, match="bogus"):
        scenario_from_dict(data)
    # scenes carry no randomness, so seed is not a parameter, and bridging
    # is not one either; the planner derives the bridging distance h, the
    # rollout step dt and the demonstration samples, so a scene may not set
    # them, not even to null
    for key, value in (("seed", 0), ("bridging", False), ("h", None), ("h", 0.1),
                       ("dt", None), ("dt", 1e-7), ("n_samples", None), ("n_samples", 400)):
        data["params"] = {key: value}
        with pytest.raises(ScenarioError, match=f"params.{key}: unknown parameter"):
            scenario_from_dict(data)
    data = minimal_dict()
    data["version"] = 99
    with pytest.raises(ScenarioError, match="version"):
        scenario_from_dict(data)


@pytest.mark.parametrize("key, value", [("version", True), ("version", 1.0),
                                        ("dim", 2.0), ("dim", "2")])
def test_load_error_version_and_dim_must_be_integers(key, value):
    # True == 1 and 2.0 == 2, so a value test alone would take them
    data = minimal_dict()
    data[key] = value
    with pytest.raises(ScenarioError, match=f"^{key}: .*integer"):
        scenario_from_dict(data)


@pytest.mark.parametrize("world", [5, None, "min max", ["min", "max"]])
def test_load_error_world_must_be_an_object(world, tmp_path, capsys):
    # a string holding "min" passed the key test and was then indexed
    data = minimal_dict()
    data["world"] = world
    with pytest.raises(ScenarioError, match="^world: expected an object$"):
        scenario_from_dict(data)
    path = tmp_path / "world.json"
    path.write_text(json.dumps(data))
    code = main(["plan", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "world: expected an object" in err and "internal error" not in err


def test_dmp_basis_survives_save_and_load(tmp_path):
    scn = generate_benchmark("narrow2d")
    scn.dmp_basis = 40
    path = str(tmp_path / "a.json")
    save_scenario(scn, path)
    with open(path) as fh:
        assert json.load(fh)["params"] == {"dmp_basis": 40}
    assert load_scenario(path).dmp_basis == 40


def test_scenario_roundtrip_byte_identical(tmp_path):
    scn = generate_benchmark("narrow2d")
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    save_scenario(scn, p1)
    save_scenario(load_scenario(p1), p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    traj = PoseTrajectory(np.sort(rng.uniform(0, 5, 40)),
                          rng.normal(size=(40, 3)),
                          rng.normal(size=(40, 3)))
    p1 = str(tmp_path / "t.csv")
    p2 = str(tmp_path / "t2.csv")
    save_trajectory(traj, p1)
    back = load_trajectory(p1)
    assert np.allclose(back.times, traj.times, atol=1e-12)
    assert np.allclose(back.positions, traj.positions, atol=1e-12)
    assert np.allclose(back.orientations, traj.orientations, atol=1e-12)
    save_trajectory(back, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("field", ["abc", "nan", "-inf", ""])
def test_trajectory_load_rejects_a_field_that_is_not_a_finite_number(tmp_path, field):
    traj = PoseTrajectory(np.linspace(0.0, 1.0, 3), np.zeros((3, 2)), np.zeros((3, 1)))
    path = tmp_path / "t.csv"
    save_trajectory(traj, str(path))
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[2] = field
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError, match=f"t.csv: row 2, column 'y': .*{field!r}"):
        load_trajectory(str(path))


@pytest.mark.parametrize("header", ["t,x,y,z,theta", "t,q,wx,wy,wz"])
def test_trajectory_load_rejects_a_header_it_does_not_write(tmp_path, header):
    # a header must be one that save_trajectory writes: read by its last
    # column alone, these load as a 2D trajectory with two orientation
    # columns, or as a 3D one with positions (q, wx, wy)
    path = tmp_path / "t.csv"
    path.write_text(header + "\n" + ",".join(["0"] * len(header.split(","))) + "\n")
    with pytest.raises(ScenarioError, match="t.csv: unrecognized column layout"):
        load_trajectory(str(path))


def test_benchmarks_deterministic():
    for name in BENCHMARK_NAMES:
        a = scenario_to_dict(generate_benchmark(name, seed=3))
        b = scenario_to_dict(generate_benchmark(name, seed=3))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    a = scenario_to_dict(generate_benchmark("moderate3d", seed=1))
    b = scenario_to_dict(generate_benchmark("moderate3d", seed=2))
    assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)


def test_unknown_benchmark_errors():
    with pytest.raises(ScenarioError, match="narrow2d"):
        generate_benchmark("nope")


def test_u_block_trap_forms_one_cluster():
    scn = generate_benchmark("u_block")
    margin = float(scn.robot.axes[0])
    grown = [expand(o, margin) for o in scn.obstacles]
    for i in range(len(grown)):
        for j in range(i + 1, len(grown)):
            assert overlaps(grown[i], grown[j], closest_pair(grown[i], grown[j]))


def test_pillars3d_exactly_one_feasible_gap():
    scn = generate_benchmark("pillars3d")
    a1, a3 = float(scn.robot.axes[0]), float(scn.robot.axes[-1])
    pillars = sorted(scn.obstacles, key=lambda o: o.center[0])
    feasible = 0
    for left, right in zip(pillars, pillars[1:]):
        pair = closest_pair(left, right)
        gap = pair.distance
        if 2.0 * a1 < gap < 2.0 * a3:
            feasible += 1
        else:
            assert gap <= 2.0 * a1  # all other gaps too narrow
    assert feasible == 1


def test_arc_length_straight_line():
    traj = PoseTrajectory(np.linspace(0, 1, 50),
                          np.linspace([0, 0], [0.6, 0.8], 50),
                          np.zeros((50, 1)))
    assert np.isclose(traj.arc_length(), 1.0, atol=1e-12)


def test_min_distance_circle_robot_passing_obstacle():
    robot = Superquadric.create([1.0], [1.0, 1.0], [0.0, 0.0])
    obstacle = Superquadric.create([1.0], [1.0, 1.0], [0.0, 3.0])
    xs = np.linspace(-5.0, 5.0, 41)
    traj = PoseTrajectory(np.linspace(0, 1, 41),
                          np.stack([xs, np.zeros(41)], axis=-1),
                          np.zeros((41, 1)))
    d = min_trajectory_distance(traj, robot, [obstacle])
    assert abs(d - 1.0) <= 1e-6


def test_min_distance_zero_on_contact():
    robot = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    obstacle = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.8])
    traj = PoseTrajectory(np.array([0.0, 1.0]),
                          np.array([[0.0, 0.0], [1.0, 0.0]]),
                          np.zeros((2, 1)))
    assert min_trajectory_distance(traj, robot, [obstacle]) == 0.0


def test_metrics_report_fields():
    scn = generate_benchmark("narrow2d")
    traj = PoseTrajectory(np.linspace(0, 1, 20),
                          np.linspace(scn.start.position,
                                      scn.start.position + [0.0, 0.02], 20),
                          np.zeros((20, 1)))
    report = compute_metrics(traj, scn, {"query_s": 0.5, "precompute_s": 1.0})
    assert report.planning_time_s == 0.5
    assert report.precompute_time_s == 1.0
    assert np.isclose(report.arc_length_m, 0.02, atol=1e-12)
    assert report.min_distance_m > 0.0
    assert not report.fallback
    assert report.audit.solves > 0 and report.audit.rounds > 0
    assert report.audit.nonconverged == 0
    out = metrics_to_dict(report)
    assert out["success"] is True and out["fallback"] is False
    assert (out["audit_solves"], out["audit_rounds"], out["audit_nonconverged"]) == (
        report.audit.solves, report.audit.rounds, 0)
    # the fallback is the unsmoothed trajectory
    traj.smoothed = False
    assert compute_metrics(traj, scn, {"query_s": 0.5, "precompute_s": 1.0}).fallback


# ------------------------------------------- audit vs the per-pose routines


def per_pose_distances(trajectory, robot, obstacles):
    """All-pairs oracle: every pose against every obstacle, in one
    closest_pairs call; each pose's least distance."""
    posed = [robot_pose_at(robot, p, o)
             for p, o in zip(trajectory.positions, trajectory.orientations)]
    pairs = closest_pairs([shape for shape in posed for _ in obstacles],
                          [obs for _ in posed for obs in obstacles])
    return pairs.distance.reshape(len(posed), -1).min(axis=1)


def per_pose_exact_distance(trajectory, robot, obstacles):
    """The all-pairs oracle's minimum over every pose."""
    return float(per_pose_distances(trajectory, robot, obstacles).min())


def per_pose_min_distance(trajectory, robot, obstacles):
    """Sampled audit: each kept pose posed as a shape, pruned and ranked
    one pair at a time. Every value it returns is the exact distance of
    one pair, so it bounds the minimum from above. Returns (distance,
    pairs pruned, pairs refined)."""
    n_poses = len(trajectory.times)
    keep = (np.arange(n_poses) if n_poses <= 256
            else np.unique(np.linspace(0, n_poses - 1, 256).astype(int)))
    res_r = 256 if robot.dim == 2 else 16
    res_o = 1024 if robot.dim == 2 else 24
    otrees = [cKDTree(surface_samples(o, res_o)) for o in obstacles]
    posed = [robot_pose_at(robot, trajectory.positions[i],
                           trajectory.orientations[i]) for i in keep]
    slack = 0.0
    for tree in otrees + [cKDTree(surface_samples(posed[0], res_r))]:
        d, _ = tree.query(tree.data, k=2)
        slack = max(slack, float(np.max(d[:, 1])))
    coarse = np.full((len(posed), len(obstacles)), np.inf)
    best_coarse = np.inf
    pruned = 0
    for i, shape in enumerate(posed):
        pts = surface_samples(shape, res_r)
        for j, obs in enumerate(obstacles):
            sphere_gap = (np.linalg.norm(shape.center - obs.center)
                          - shape.bounding_radius() - obs.bounding_radius())
            if sphere_gap > best_coarse + slack:
                pruned += 1
                continue
            coarse[i, j] = float(otrees[j].query(pts)[0].min())
            best_coarse = min(best_coarse, coarse[i, j])
    best = np.inf
    refined = 0
    for idx in np.argsort(coarse, axis=None):
        i, j = divmod(int(idx), len(obstacles))
        if coarse[i, j] - slack >= best or refined >= 64:
            break
        refined += 1
        best = min(best, closest_pair(posed[i], obstacles[j]).distance)
    return float(best), pruned, refined


def interval_audit(trajectory, robot, obstacles, stats):
    """Interval-search audit: pose intervals, one [0, N-1] per obstacle to
    start with, are dropped when their motion bound (l_a + l_b - motion) / 2
    or least box bound reaches the best solved d - h, and split 16 ways
    otherwise, each round solving the live endpoints in one batched,
    tolerance-stopped call. Certified like the audit, but with a motion bound
    that loses first order in the turn, r |dR|."""
    positions = trajectory.positions
    r = robot.bounding_radius()
    half = clearance.AUDIT_TOL * r / 2.0
    rotations = robot_rotations(robot.dim, trajectory.orientations)
    steps = (np.linalg.norm(np.diff(positions, axis=0), axis=1)
             + r * np.linalg.norm(np.diff(rotations, axis=0), axis=(1, 2)))
    motion = np.concatenate([[0.0], np.cumsum(steps)]).tolist()
    lb = (box_gaps(positions, stack_shapes(obstacles)) - r).tolist()
    certified, best = {}, np.inf

    def bound(a, b, j):
        l_a, l_b = certified.get((a, j), lb[j][a]), certified.get((b, j), lb[j][b])
        return max((l_a + l_b - motion[b] + motion[a]) / 2.0, min(lb[j][a:b + 1]))

    last = len(positions) - 1
    intervals = [(0, last, j) for j in range(len(obstacles))]
    todo = {(i, j) for j in range(len(obstacles)) for i in (0, last)}
    while todo:
        todo = sorted(todo)
        i, j = np.array(todo).T
        pairs = stack_pairs([robot] * len(j), [obstacles[k] for k in j])
        pairs.rot[0], pairs.pos[0] = rotations[i], positions[i]
        _, _, distance, converged, iterations, *_ = proximity.closest_pair_arrays(
            pairs, tol=half)
        stats.rounds += 1
        stats.solves += len(todo)
        stats.nonconverged += len(todo) - int(np.count_nonzero(converged))
        stats.iterations += int(iterations.sum())
        for key, d, ok in zip(todo, distance.tolist(), converged.tolist()):
            certified[key] = d - half if ok else lb[key[1]][key[0]]
            best = min(best, d)
        if best <= 0.0:
            return 0.0
        todo, kept = set(), []
        for a, b, j in intervals:
            if b - a <= 1 or bound(a, b, j) >= best - half:
                continue
            cuts = sorted({a + (b - a) * k // 16 for k in range(17)})
            for s, e in zip(cuts, cuts[1:]):
                if bound(s, e, j) < best - half:
                    kept.append((s, e, j))
                    todo |= {(s, j), (e, j)} - certified.keys()
        intervals = kept
    return float(best)


def check_audit(trajectory, robot, obstacles, sampled=np.inf, stats=None):
    """The audit is never below the all-pairs minimum, at most 1e-6 r above
    it (r the robot's bounding radius), and never above the sampled audit's
    value. `stats` receives the audit's counts."""
    got = min_trajectory_distance(trajectory, robot, obstacles, stats)
    tol = 1e-6 * robot.bounding_radius()
    exact = per_pose_exact_distance(trajectory, robot, obstacles)
    assert exact - 1e-12 <= got <= exact + tol
    assert got <= sampled + tol
    return got


def wandering_trajectory(rng, dim, n, lo, hi):
    """Smooth random path through [lo, hi]^dim with turning orientations."""
    knots = rng.uniform(lo, hi, size=(5, dim))
    s = np.linspace(0.0, 4.0, n)
    positions = np.stack([np.interp(s, np.arange(5), knots[:, k])
                          for k in range(dim)], axis=-1)
    turns = rng.normal(scale=0.5, size=(5, 1 if dim == 2 else 3))
    orientations = np.stack([np.interp(s, np.arange(5), turns[:, k])
                             for k in range(turns.shape[1])], axis=-1)
    return PoseTrajectory(np.linspace(0.0, 1.0, n), positions, orientations)


def random_scene(rng, dim):
    robot = Superquadric.create(rng.uniform(0.3, 1.5, dim - 1),
                                np.sort(rng.uniform(0.05, 0.2, dim)), np.zeros(dim))
    obstacles = [Superquadric.create(rng.uniform(0.3, 1.8, dim - 1),
                                     np.sort(rng.uniform(0.1, 0.3, dim)),
                                     rng.uniform(0.0, 2.0, dim),
                                     rng.normal(size=1 if dim == 2 else 3))
                 for _ in range(4)]
    return robot, obstacles


@pytest.mark.parametrize("dim, n_poses", [(2, 40), (2, 300), (3, 60), (3, 300)])
def test_audit_equals_per_pose_routine_on_random_scenes(dim, n_poses):
    rng = np.random.default_rng([dim, n_poses])
    robot, obstacles = random_scene(rng, dim)
    for trial in range(3):
        traj = wandering_trajectory(rng, dim, n_poses, 0.0, 2.0)
        want, _, refined = per_pose_min_distance(traj, robot, obstacles)
        assert refined > 0
        stats = AuditStats()
        check_audit(traj, robot, obstacles, want, stats)
        # the second round solves every open pair without an upper bound
        assert 1 <= stats.rounds <= 2


@pytest.mark.parametrize("dim", [2, 3])
def test_audit_single_pose_trajectory(dim):
    rng = np.random.default_rng([dim, 1])
    robot, obstacles = random_scene(rng, dim)
    traj = wandering_trajectory(rng, dim, 1, 0.0, 2.0)
    check_audit(traj, robot, obstacles)


def test_audit_certifies_nonconverged_solves_by_their_box_bound(monkeypatch):
    # two GJK iterations leave every solve short of its distance: the audit
    # may only certify those poses by their box bounds, so it lands within
    # the tolerance of the capped all-pairs minimum and never below the
    # true minimum
    rng = np.random.default_rng([3, 300, 0])
    robot, obstacles = random_scene(rng, 3)
    traj = wandering_trajectory(rng, 3, 300, 0.0, 2.0)
    true_min = per_pose_exact_distance(traj, robot, obstacles)
    monkeypatch.setattr(proximity, "MAX_ITER", 2)
    stats = AuditStats()
    got = min_trajectory_distance(traj, robot, obstacles, stats)
    assert got == check_audit(traj, robot, obstacles)
    assert got >= true_min - 1e-12 and true_min > 0.0
    assert 0 < stats.nonconverged <= stats.solves


def test_audit_does_not_certify_by_an_unconverged_distance(monkeypatch):
    # an unconverged solve's distance bounds its pair only from above. A
    # disc passes disc A at its first pose (0.2 m) and disc B at pose 85
    # (0.1 m); every other solve is reported 0.5 m too far and unconverged.
    # Certified by those distances, the intervals around pose 85 would be
    # dropped behind A's 0.2 m; certified by their box bounds, they are not
    n = 161
    robot = Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.0])
    xs = np.linspace(0.0, 2.0, n)
    obstacles = [Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.4]),
                 Superquadric.create([1.0], [0.1, 0.1], [xs[85], 0.3])]
    traj = PoseTrajectory(np.linspace(0.0, 1.0, n),
                          np.stack([xs, np.zeros(n)], axis=-1), np.zeros((n, 1)))
    pose_of = {p.tobytes(): k for k, p in enumerate(traj.positions)}
    solve = proximity.closest_pair_arrays

    def too_far(pairs, tol=0.0, threshold=None, upper=None):
        result = solve(pairs, tol, threshold, upper)
        far = np.array([pose_of[p.tobytes()] not in (0, 85) for p in pairs.pos[0]])
        return result._replace(distance=result.distance + 0.5 * far,
                               converged=result.converged & ~far)

    monkeypatch.setattr(clearance, "closest_pair_arrays", too_far)
    stats = AuditStats()
    got = min_trajectory_distance(traj, robot, obstacles, stats)
    assert got == check_audit(traj, robot, obstacles)
    assert abs(got - 0.1) <= 1e-6
    assert 0 < stats.nonconverged < stats.solves


# with these seeds, marking the retired pairs solved would end the audit
# 1e-3 .. 3e-2 m above the all-pairs minimum
@pytest.mark.parametrize("dim, seed", [(2, 16), (2, 22), (3, 0), (3, 8)])
def test_audit_solves_again_what_a_too_low_opening_bound_retired(dim, seed, monkeypatch):
    # an opening bound of 0 retires the min-search round's solves on lower
    # bounds below the round's best distance: those pairs stay open and the
    # second round solves them without a bound, so the audit keeps its
    # certificate and ends there
    rng = np.random.default_rng([dim, 300, seed])
    robot, obstacles = random_scene(rng, dim)
    traj = wandering_trajectory(rng, dim, 120, 0.0, 2.0)
    monkeypatch.setattr(clearance, "_upper_bounds", lambda *arrays: np.zeros(len(obstacles)))
    stats = AuditStats()
    got = check_audit(traj, robot, obstacles)
    assert min_trajectory_distance(traj, robot, obstacles, stats) == got
    assert stats.rounds == 2 and stats.bound_retired > 0 and stats.nonconverged == 0


@pytest.mark.parametrize("move", ["translate", "rotate"])
def test_audit_finds_a_minimum_between_solved_poses(move):
    # the closest pose lies inside wide intervals whose solved endpoints are
    # far: a disc backs straight away from the obstacle, so the distance
    # changes as fast as the motion bound allows, or a needle turning in
    # place sweeps its tip past it. A motion bound that undercounts either
    # term drops the interval that holds the minimum
    n = 101
    obstacle = Superquadric.create([1.0], [0.2, 0.2], [0.0, 0.0])
    if move == "translate":
        robot = Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.0])
        positions = np.stack([0.5 + 0.01 * np.abs(np.arange(n) - 30.0),
                              np.zeros(n)], axis=-1)
        orientations = np.zeros((n, 1))
    else:
        robot = Superquadric.create([1.0], [0.02, 1.0], [0.0, 0.0])
        positions = np.tile(-1.5 * np.array([np.cos(0.3 * np.pi),
                                              np.sin(0.3 * np.pi)]), (n, 1))
        orientations = np.linspace(0.0, np.pi, n)[:, None]
    traj = PoseTrajectory(np.linspace(0.0, 1.0, n), positions, orientations)
    want, _, _ = per_pose_min_distance(traj, robot, [obstacle])
    check_audit(traj, robot, [obstacle], want)


def test_audit_equals_per_pose_routine_when_spheres_prune():
    # a far obstacle's bounding sphere never comes near the robot
    robot = Superquadric.create([0.5], [0.05, 0.12], [0.0, 0.0])
    obstacles = [Superquadric.create([1.0], [0.2, 0.3], [1.0, 0.5], [0.3]),
                 Superquadric.create([0.4], [0.1, 0.2], [30.0, 30.0], [1.1])]
    traj = PoseTrajectory(np.linspace(0.0, 1.0, 80),
                          np.linspace([0.0, 0.0], [2.0, 0.1], 80),
                          np.linspace([0.0], [1.5], 80))
    want, pruned, _ = per_pose_min_distance(traj, robot, obstacles)
    assert pruned >= 70
    check_audit(traj, robot, obstacles, want)


@pytest.mark.parametrize("dim", [2, 3])
def test_audit_equals_per_pose_routine_at_constant_clearance(dim):
    # every pose ties with the minimum, so the sampled audit stops at its
    # refinement cap and the certified one refines down to single steps:
    # in 2D the robot rides parallel to a long flat wall, in 3D a ball
    # circles a ball
    if dim == 2:
        robot = Superquadric.create([1.0], [0.05, 0.1], [0.0, 0.0])
        obstacle = Superquadric.create([0.2], [0.1, 4.0], [0.0, 0.0], [np.pi / 2])
        positions = np.linspace([-2.0, 0.3], [2.0, 0.3], 200)
    else:
        robot = Superquadric.create([1.0, 1.0], [0.1, 0.1, 0.1], np.zeros(3))
        obstacle = Superquadric.create([1.0, 1.0], [1.0, 1.0, 1.0], np.zeros(3))
        angle = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        positions = 1.5 * np.stack([np.cos(angle), np.sin(angle),
                                    np.zeros(200)], axis=-1)
    # a heading off the axes makes the ranking depend on the posed samples
    traj = PoseTrajectory(np.linspace(0.0, 1.0, 200), positions,
                          np.full((200, 1 if dim == 2 else 3), 0.3))
    want, _, refined = per_pose_min_distance(traj, robot, [obstacle])
    assert refined == 64
    check_audit(traj, robot, [obstacle], want)


# dense3d seed 4 is a plan whose minimum per_pose_min_distance overstates by
# 0.92 mm. It and moderate3d seeds 1, 2 and dense3d seed 2 are also the
# audited build3d fields of perfbench (random_field(seed, count)), whose
# other two reference scenes are pillars3d and narrow2d
@pytest.mark.parametrize("name, seed", [
    *(pytest.param(name, 0, id=name) for name in BENCHMARK_NAMES),
    pytest.param("dense3d", 4, id="dense3d-seed4"),
    pytest.param("moderate3d", 1, id="moderate3d-seed1"),
    pytest.param("moderate3d", 2, id="moderate3d-seed2"),
    pytest.param("dense3d", 2, id="dense3d-seed2")])
def test_audit_equals_per_pose_routine_on_reference_plans(name, seed):
    scn = generate_benchmark(name, seed)
    result = plan(scn)
    assert result.success
    want, _, _ = per_pose_min_distance(result.trajectory, scn.robot, scn.obstacles)
    check_audit(result.trajectory, scn.robot, scn.obstacles, want)


# ------------------------------------------- axis bounds and the interval search


def random_posed_pair(rng, dim):
    """Two separated random superquadrics, exponents across [0.1, 2] with the
    ends (q = inf at eps = 2) drawn as often as the inside."""
    def eps():
        return rng.choice([0.1, 2.0, rng.uniform(0.1, 2.0)], size=dim - 1)

    def shape(centre):
        return Superquadric.create(eps(), np.sort(rng.uniform(0.1, 0.6, dim)), centre,
                                   rng.normal(size=1 if dim == 2 else 3))

    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return shape(np.zeros(dim)), shape(rng.uniform(1.3, 3.0) * direction)


@pytest.mark.parametrize("dim", [2, 3])
def test_axis_gaps_bound_the_distance(dim):
    # any unit axis gives a lower bound; the witness normal of a converged,
    # tolerance-stopped solve gives the distance to within the audit's
    # tolerance
    rng = np.random.default_rng([dim, 12])
    for _ in range(150):
        shape_i, shape_j = random_posed_pair(rng, dim)
        arrays = stack_pairs([shape_i], [shape_j])
        distance = float(proximity.closest_pair_arrays(arrays).distance[0])
        assert distance > 0.0
        normals = rng.normal(size=(8, dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        many = arrays.take(np.s_[:, np.zeros(8, int)])
        assert np.all(clearance.axis_gaps(many, normals) <= distance + 1e-12)
        tol = clearance.AUDIT_TOL * shape_i.bounding_radius()
        p_i, p_j, _, converged, *_ = proximity.closest_pair_arrays(arrays, tol=tol / 2)
        assert converged[0]
        witness = (p_j - p_i) / np.linalg.norm(p_j - p_i)
        gap = float(clearance.axis_gaps(arrays, witness)[0])
        assert distance - tol <= gap <= distance + 1e-12


def reference_audits(name):
    """The audit and the interval search on the benchmark's reference plan,
    with their work counts."""
    scn = generate_benchmark(name)
    result = plan(scn)
    assert result.success
    new, old = AuditStats(), AuditStats()
    got = min_trajectory_distance(result.trajectory, scn.robot, scn.obstacles, new)
    want = interval_audit(result.trajectory, scn.robot, scn.obstacles, old)
    return scn, got, want, new, old


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_audit_agrees_with_interval_search_on_reference_plans(name):
    scn, got, want, new, old = reference_audits(name)
    assert new.nonconverged == 0 and old.nonconverged == 0
    assert abs(got - want) <= clearance.AUDIT_TOL * scn.robot.bounding_radius()
    assert new.iterations >= new.solves > 0 and new.axis_certified > 0
    if name in ("pillars3d", "narrow2d"):
        assert new.solves < old.solves


@pytest.mark.parametrize("dim", [2, 3])
def test_audit_worst_pose_is_the_all_pairs_argmin(dim):
    # an ellipse (ellipsoid) passes a box-like obstacle on a straight line
    # while turning, so the distance has one minimum, off the stride grid
    n = 101
    if dim == 2:
        robot = Superquadric.create([1.0], [0.05, 0.15], np.zeros(2))
        obstacle = Superquadric.create([0.3], [0.2, 0.3], [0.3, 0.6], [0.4])
        positions = np.linspace([-1.3, 0.0], [1.5, 0.1], n)
        orientations = np.linspace(0.0, 1.2, n)[:, None]
    else:
        robot = Superquadric.create([1.0, 1.0], [0.05, 0.1, 0.15], np.zeros(3))
        obstacle = Superquadric.create([0.3, 0.6], [0.2, 0.25, 0.3], [0.3, 0.6, 0.1],
                                       [0.2, 0.4, 0.1])
        positions = np.linspace([-1.0, 0.0, 0.0], [1.5, 0.1, 0.2], n)
        orientations = np.linspace([0.0, 0.0, 0.0], [0.3, 0.5, 1.2], n)
    traj = PoseTrajectory(np.linspace(0.0, 2.0, n), positions, orientations)
    per_pose = per_pose_distances(traj, robot, [obstacle])
    want = int(np.argmin(per_pose))
    tol = clearance.AUDIT_TOL * robot.bounding_radius()
    assert np.sort(per_pose)[1] > per_pose[want] + tol       # a unique minimum
    assert want % clearance.AUDIT_STRIDE != 0 and per_pose[want] > 0.0
    stats = AuditStats()
    got = min_trajectory_distance(traj, robot, [obstacle], stats)
    assert per_pose[want] - 1e-12 <= got <= per_pose[want] + tol
    assert stats.worst_pose == want
    scn = Scenario(dim, np.full(dim, -2.0), np.full(dim, 2.0), robot, [obstacle],
                   robot.pose, robot.pose)
    report = compute_metrics(traj, scn, {})
    assert report.min_distance_time_s == traj.times[want]
    out = metrics_to_dict(report)
    assert out["min_distance_time_s"] == traj.times[want]
    assert (out["audit_iterations"], out["audit_axis_certified"]) == (
        stats.iterations, stats.axis_certified)
    assert stats.iterations >= stats.solves
