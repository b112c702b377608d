"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Benchmark plans and metrics are shared across criteria through a
session-scoped fixture so the suite stays fast.
"""

import json
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import cell_contains, robot_pose_at
from sqplan.cli import main
from sqplan.dmp import DMPModel, PoseTrajectory, fit_lwr, rollout
from sqplan.geometry import RigidPose, Superquadric, inside_outside, surface_samples
from sqplan.pipeline import NO_FEASIBLE_PASSAGE, plan
from sqplan.poses import frame_3d
from sqplan.proximity import closest_pair
from sqplan.rotations import exp_so3, log_so3
from sqplan.scenario import Scenario, compute_metrics, generate_benchmark
from sqplan.voronoi import build_diagram

BENCH_2D = ("narrow2d", "t_block", "u_block")
BENCH_3D = ("pillars3d", "moderate3d", "dense3d")


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def bench():
    """name -> (scenario, PlanResult, MetricsReport) for all six benchmarks."""
    out = {}
    for name in BENCH_2D + BENCH_3D:
        scenario = generate_benchmark(name)
        result = plan(scenario)
        assert result.success, f"benchmark {name} did not plan"
        metrics = compute_metrics(result.trajectory, scenario, result.timings)
        out[name] = (scenario, result, metrics)
    return out


def two_wall_scenario(gap):
    half = (0.25 - gap / 2.0) / 2.0
    walls = [
        Superquadric.create([0.2], [half, 0.02], [half, 0.25], [0.0]),
        Superquadric.create([0.2], [half, 0.02], [0.5 - half, 0.25], [0.0]),
    ]
    robot = Superquadric.create([0.5], [0.02, 0.06], [0.0, 0.0])
    return Scenario(2, np.zeros(2), np.full(2, 0.5), robot, walls,
                    RigidPose.create([0.25, 0.1]), RigidPose.create([0.25, 0.4]))


def gap_crossings(trajectory):
    y = trajectory.positions[:, 1]
    x = trajectory.positions[:, 0]
    return x[(y > 0.23) & (y < 0.27)]


def test_criterion_01_passability_law():
    a_minor = 0.02
    t0 = time.perf_counter()
    wide = plan(two_wall_scenario(2 * a_minor + 0.004))
    t_wide = time.perf_counter() - t0
    through = (wide.success and len(gap_crossings(wide.trajectory)) > 0
               and np.all(np.abs(gap_crossings(wide.trajectory) - 0.25) < 0.05))

    t0 = time.perf_counter()
    narrow = plan(two_wall_scenario(2 * a_minor - 0.004))
    t_narrow = time.perf_counter() - t0
    if narrow.success:
        blocked = np.all(np.abs(gap_crossings(narrow.trajectory) - 0.25) > 0.05)
    else:
        blocked = narrow.reason == NO_FEASIBLE_PASSAGE

    ok = through and blocked and t_wide < 1.0 and t_narrow < 1.0
    report(1, "passability law", ok,
           f"wide gap crossed={through} in {t_wide:.2f}s, "
           f"narrow gap blocked={blocked} in {t_narrow:.2f}s")


def test_criterion_02_clearance_2d(bench):
    dists = {name: bench[name][2].min_distance_m for name in BENCH_2D}
    ok = all(d > 0.010 for d in dists.values())
    detail = ", ".join(f"{n}={d * 1000.0:.1f}mm" for n, d in dists.items())
    report(2, "2D clearance > 10 mm", ok, detail)


def test_criterion_03_query_timing(bench):
    times = {name: bench[name][2].planning_time_s
             for name in BENCH_2D + BENCH_3D}
    ok = all(times[n] <= 0.5 for n in BENCH_2D) and \
        all(times[n] <= 2.0 for n in BENCH_3D)
    detail = ", ".join(f"{n}={t:.3f}s" for n, t in times.items())
    report(3, "query-phase timing", ok, detail)


def test_criterion_04_u_block_trap(bench):
    scenario, result, _ = bench["u_block"]
    one_cluster = len(result.diagram.clusters) == 1
    clear = all(
        bool(np.all(inside_outside(grown, result.trajectory.positions) > 0.0))
        for grown in result.diagram.expanded)
    report(4, "U-trap single cluster, trajectory outside expansion",
           one_cluster and clear,
           f"clusters={len(result.diagram.clusters)}, outside={clear}")


def test_criterion_05_pillar_orientation(bench):
    scenario, result, _ = bench["pillars3d"]
    traj = result.trajectory
    # the passage crosses the pillar plane y = 6 through the single wide gap
    order = np.argsort(np.abs(traj.positions[:, 1] - 6.0))[:3]
    gap_normal = np.array([1.0, 0.0, 0.0])
    worst = 0.0
    in_gap = True
    for k in order:
        posed = robot_pose_at(scenario.robot, traj.positions[k],
                              traj.orientations[k])
        short_axis = posed.pose.matrix[:, 0]
        ang = np.degrees(np.arccos(np.clip(abs(short_axis @ gap_normal),
                                           -1.0, 1.0)))
        worst = max(worst, ang)
        in_gap &= 4.65 < traj.positions[k][0] < 7.35  # between inner pillars
    ok = in_gap and worst <= 5.0
    report(5, "pillar gap short-axis alignment", ok,
           f"through unique gap={in_gap}, worst angle={worst:.2f} deg")


def test_criterion_06_point_site_voronoi():
    rng = np.random.default_rng(20)
    sites = rng.uniform(1.0, 9.0, size=(5, 2))
    obstacles = [Superquadric.create([1.0], [1e-3, 1e-3], s) for s in sites]
    robot = Superquadric.create([1.0], [1e-4, 1e-4], [0.0, 0.0])
    diagram = build_diagram(robot, obstacles, [0.0, 0.0], [10.0, 10.0])
    xs = np.linspace(0.025, 9.975, 200)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    nearest = np.argmin(np.linalg.norm(pts[:, None] - sites[None], axis=2),
                        axis=1)
    hits = np.zeros(len(pts), dtype=bool)
    for k in range(len(diagram.cells)):
        hits |= (nearest == k) & cell_contains(diagram, k, pts, tol=1e-7)
    frac = hits.mean()
    report(6, "point-site Voronoi equivalence", frac >= 0.995,
           f"grid agreement={frac * 100.0:.2f}%")


def random_sq(rng, dim):
    center = rng.uniform(-3.0, 3.0, dim)
    if dim == 2:
        return Superquadric.create(rng.uniform(0.4, 1.6, 1),
                                   np.sort(rng.uniform(0.3, 1.2, 2)),
                                   center, rng.uniform(-np.pi, np.pi, 1))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Superquadric.create(rng.uniform(0.4, 1.6, 2),
                               np.sort(rng.uniform(0.3, 1.2, 3)),
                               center, rng.uniform(0.0, np.pi) * axis)


def oracle_distance(a, b, n):
    """Brute force over ~10^4 surface samples per shape, polished locally.

    The winning sample pair seeds an independent derivative-free optimizer
    (Nelder-Mead over the surface angles), removing the grid-resolution bias
    of the raw sample minimum without reusing the production solver.
    """
    from scipy.optimize import minimize
    from sqplan.geometry import surface_point

    pa, pb = surface_samples(a, n), surface_samples(b, n)
    d, idx = cKDTree(pa).query(pb)
    jb = int(np.argmin(d))
    ja = int(idx[jb])
    if a.dim == 2:
        om = np.linspace(-np.pi, np.pi, len(pa), endpoint=False)
        x0 = np.array([om[ja], om[jb]])

        def f(x):
            return float(np.linalg.norm(surface_point(a, x[0])
                                        - surface_point(b, x[1])))
    else:
        eta = np.linspace(-np.pi / 2.0, np.pi / 2.0, n)
        om = np.linspace(-np.pi, np.pi, n, endpoint=False)
        x0 = np.array([eta[ja // n], om[ja % n], eta[jb // n], om[jb % n]])

        def f(x):
            return float(np.linalg.norm(surface_point(a, x[:2])
                                        - surface_point(b, x[2:])))
    res = minimize(f, x0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    return min(float(np.min(d)), float(res.fun))


def test_criterion_07_proximity_oracle():
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    # 100 random 2D and 50 random 3D pairs against ~10^4 surface samples
    for dim, count, n in ((2, 100, 10000), (3, 50, 100)):
        for _ in range(count):
            while True:
                a, b = random_sq(rng, dim), random_sq(rng, dim)
                pair = closest_pair(a, b)
                if pair.distance > 0.1:
                    break
            oracle = oracle_distance(a, b, n)
            worst_rel = max(worst_rel, abs(pair.distance - oracle) / oracle)
    worst_sphere = 0.0
    for _ in range(20):
        ca, cb = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
        ra, rb = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        d = np.linalg.norm(ca - cb)
        if d <= ra + rb + 0.05:
            continue
        a = Superquadric.create([1.0, 1.0], [ra, ra, ra], ca)
        b = Superquadric.create([1.0, 1.0], [rb, rb, rb], cb)
        worst_sphere = max(worst_sphere,
                           abs(closest_pair(a, b).distance - (d - ra - rb)))
    ok = worst_rel <= 1e-3 and worst_sphere <= 1e-9
    report(7, "proximity oracle", ok,
           f"worst relative={worst_rel:.2e}, worst sphere abs={worst_sphere:.2e}")


def test_criterion_08_rotation_correctness():
    rng = np.random.default_rng(21)
    axes = rng.normal(size=(10000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, np.pi - 1e-9, size=(10000, 1))
    angles[:50] = rng.uniform(0.0, 1e-8, size=(50, 1))       # near zero
    angles[50:100] = np.pi - rng.uniform(0.0, 1e-8, (50, 1))  # near pi
    worst = 0.0
    for v in axes * angles:
        worst = max(worst, float(np.linalg.norm(log_so3(exp_so3(v)) - v)))
    worst_frame = 0.0
    for _ in range(500):
        a, b, n = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
        n /= np.linalg.norm(n)
        if np.linalg.norm(np.cross(b - a, n)) < 1e-3:
            continue
        r = frame_3d(a, b, n)
        worst_frame = max(worst_frame,
                          float(np.max(np.abs(r @ r.T - np.eye(3)))),
                          abs(float(np.linalg.det(r)) - 1.0))
    ok = worst <= 1e-9 and worst_frame <= 1e-9
    report(8, "rotation correctness", ok,
           f"roundtrip={worst:.2e}, frame orthonormality={worst_frame:.2e}")


def test_criterion_09_dmp_convergence(bench):
    worst_goal = 0.0
    for name in ("narrow2d", "u_block", "pillars3d"):
        _, result, _ = bench[name]
        model = fit_lwr(result.demonstration)
        traj = rollout(model)
        end = np.hstack([traj.positions[-1], traj.orientations[-1]])
        rel = (np.linalg.norm(end - model.u_goal)
               / max(np.linalg.norm(model.u_goal - model.u_start), 1e-12))
        worst_goal = max(worst_goal, rel)

    goal = np.array([1.0, -2.0, 0.5])
    zero = DMPModel(np.zeros((3, 20)), 2.0, np.zeros(3), goal, 2, goal.copy())
    traj = rollout(zero)
    y = np.hstack([traj.positions, traj.orientations])
    monotone = all(
        bool(np.all(np.diff(y[:, ch] * np.sign(g)) >= -1e-9))
        and float(np.max(y[:, ch] * np.sign(g))) <= abs(g) + 1e-6
        for ch, g in enumerate([1.0, -2.0, 0.5]))

    t = np.linspace(0.0, 2.0, 400)
    s = t / 2.0
    prof = 10 * s**3 - 15 * s**4 + 6 * s**5
    demo = PoseTrajectory(t, np.stack([2 * prof, prof], axis=-1), np.zeros((400, 1)),
                          smoothed=False)
    model = fit_lwr(demo)
    line = rollout(model)
    rx = np.interp(line.times, t, demo.positions[:, 0])
    ry = np.interp(line.times, t, demo.positions[:, 1])
    rms = float(np.sqrt(np.mean((line.positions[:, 0] - rx) ** 2
                                + (line.positions[:, 1] - ry) ** 2)))
    track = rms / line.arc_length()

    ok = worst_goal <= 1e-3 and monotone and track <= 0.01
    report(9, "DMP convergence", ok,
           f"goal rel err={worst_goal:.2e}, zero-weight monotone={monotone}, "
           f"line tracking={track * 100.0:.2f}% of path length")


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run_dir in ("a", "b"):
        out = str(tmp_path / run_dir)
        code = main(["bench", "--suite", "all", "--runs", "1",
                     "--out", out, "--seed", "7"])
        assert code == 0
        with open(f"{out}/results.json") as f:
            outputs.append(json.dumps(strip_timing(json.load(f)),
                                      sort_keys=True))
    ok = outputs[0] == outputs[1]
    report(10, "bench determinism", ok,
           f"non-timing results.json identical={ok}")
