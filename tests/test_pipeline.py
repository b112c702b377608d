import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import load_bench_scenes
from sqplan import roadmap
from sqplan.cli import EXIT_OK, main
from sqplan.clearance import trajectory_collides
from sqplan.geometry import Superquadric, box_gaps, inside_outside, stack_shapes
from sqplan.pipeline import NO_FEASIBLE_PASSAGE, plan, precompute
from sqplan.roadmap import MERGE_TOL
from sqplan.scenario import (BENCHMARK_NAMES, Scenario, compute_metrics, generate_benchmark,
                             save_scenario, scenario_from_dict)
from sqplan.geometry import RigidPose


def two_wall_scenario(gap):
    """Two wall blocks leaving a vertical gap of the given width at x=0.25."""
    half = (0.25 - gap / 2.0) / 2.0
    walls = [
        Superquadric.create([0.2], [half, 0.02], [half, 0.25], [0.0]),
        Superquadric.create([0.2], [half, 0.02], [0.5 - half, 0.25], [0.0]),
    ]
    robot = Superquadric.create([0.5], [0.02, 0.06], [0.0, 0.0])
    return Scenario(2, np.zeros(2), np.full(2, 0.5), robot, walls,
                    RigidPose.create([0.25, 0.1]), RigidPose.create([0.25, 0.4]))


def test_wide_gap_is_passable():
    result = plan(two_wall_scenario(2 * 0.02 + 0.004))
    assert result.success
    # the trajectory actually crosses the wall line through the gap
    y = result.trajectory.positions[:, 1]
    x = result.trajectory.positions[:, 0]
    crossing = x[(y > 0.23) & (y < 0.27)]
    assert len(crossing) > 0
    assert np.all(np.abs(crossing - 0.25) < 0.05)


def test_narrow_gap_is_blocked():
    result = plan(two_wall_scenario(2 * 0.02 - 0.004))
    if result.success:
        # a detour would be acceptable; through the sealed gap is not
        y = result.trajectory.positions[:, 1]
        x = result.trajectory.positions[:, 0]
        crossing = x[(y > 0.23) & (y < 0.27)]
        assert np.all(np.abs(crossing - 0.25) > 0.05)
    else:
        assert result.reason == NO_FEASIBLE_PASSAGE


def test_precompute_reuse_matches_fresh_plan():
    scn = generate_benchmark("narrow2d")
    pre = precompute(scn)
    a = plan(scn, pre)
    b = plan(scn, pre)
    c = plan(scn)
    assert a.success and b.success and c.success
    assert np.allclose(a.trajectory.positions, b.trajectory.positions,
                       atol=1e-15)
    assert np.allclose(a.trajectory.positions, c.trajectory.positions,
                       atol=1e-15)
    assert a.path == b.path == c.path


def test_raw_demonstration_avoids_expanded_obstacles():
    scn = generate_benchmark("u_block")
    result = plan(scn)
    assert result.success
    margin = float(scn.robot.axes[0])
    from sqplan.geometry import expand
    raw = result.demonstration
    for obs in scn.obstacles:
        grown = expand(obs, margin)
        assert np.all(inside_outside(grown, raw.positions) > 0.0)


def test_all_benchmarks_succeed():
    for name in ("narrow2d", "t_block", "u_block"):
        result = plan(generate_benchmark(name))
        assert result.success, name
        assert not result.validation.fallback, name
        assert result.trajectory.arc_length() > 0.0


def test_default_bridging_distance_scales_with_world(monkeypatch):
    # the roadmap merges cell vertices within MERGE_TOL and bridges node
    # pairs within 2% of the world diagonal: 0.014 m on the 0.5 m square,
    # 0.42 m in the 12 m cube
    radii = []

    class Tree(cKDTree):
        def query_pairs(self, r, *args, **kwargs):
            radii.append(r)
            return super().query_pairs(r, *args, **kwargs)

    monkeypatch.setattr(roadmap, "cKDTree", Tree)
    for name in ("narrow2d", "pillars3d"):
        scn = generate_benchmark(name)
        radii.clear()
        precompute(scn)
        assert radii == [MERGE_TOL, 0.02 * scn.world_diagonal], name


def test_trajectory_endpoints_match_terminals():
    scn = generate_benchmark("t_block")
    result = plan(scn)
    assert np.allclose(result.trajectory.positions[0], scn.start.position,
                       atol=1e-9)
    assert np.allclose(result.trajectory.positions[-1], scn.goal.position,
                       atol=1e-3 * scn.world_diagonal)


def test_goal_is_not_projected_onto_start_stub():
    # the goal's closest roadmap edge used to be the start's terminal stub,
    # which has no clearance: the raw demonstration went through a pillar
    scn = generate_benchmark("pillars3d")
    scn.start = RigidPose.create([2.244, 4.341, 4.379])
    scn.goal = RigidPose.create([1.328, 7.700, 5.645])
    result = plan(scn)
    assert result.success
    for node in result.path[1:-1]:
        assert result.graph.node_kinds[node] != "terminal"


@pytest.mark.parametrize("name", ["narrow2d", "pillars3d"])
def test_terminals_on_one_node_go_straight_from_start_to_goal(name, tmp_path):
    # start == goal, and two terminals either side of one roadmap node within
    # MERGE_TOL: both paths are that one node, so the waypoints run straight
    # from the start to the goal, through the node when it lies between them
    scn = generate_benchmark(name)
    pre = precompute(scn)
    node = next(p for p in pre.graph.nodes if scn.world_lo[0] < p[0] < scn.world_hi[0])
    off = np.zeros(scn.dim)
    off[0] = 0.5 * MERGE_TOL
    queries = [(scn.start.position, scn.start.position), (node + off, node - off)]
    for k, (a, b) in enumerate(queries):
        scn.start, scn.goal = RigidPose.create(a), RigidPose.create(b)
        result = plan(scn, pre)
        assert result.success and len(result.path) == 1
        assert len(result.waypoints) == 2 + k
        # a zero-length demonstration is moved 1e-9 m off the start per axis
        assert np.allclose(result.trajectory.positions[0], a, rtol=0.0, atol=1e-12)
        assert np.allclose(result.trajectory.positions[-1], b, rtol=0.0, atol=2e-9)
        path = str(tmp_path / f"query{k}.json")
        save_scenario(scn, path)
        assert main(["plan", "--scenario", path, "--out", str(tmp_path / f"out{k}")]) == EXIT_OK


def empty_roadmap_scenario():
    """A disc touching all four walls of a 1 m box: every box edge is
    rejected, so the roadmap has no edge and the corners are disconnected."""
    disc = Superquadric.create([1.0], [0.5, 0.5], [0.5, 0.5])
    robot = Superquadric.create([0.5], [0.02, 0.06], [0.05, 0.05])
    return Scenario(2, np.zeros(2), np.ones(2), robot, [disc],
                    RigidPose.create([0.05, 0.05]), RigidPose.create([0.95, 0.95]))


def test_roadmap_without_edges_has_no_feasible_passage():
    scn = empty_roadmap_scenario()
    pre = precompute(scn)
    assert len(pre.graph.edges) == 0
    result = plan(scn, pre)
    assert not result.success and result.reason == NO_FEASIBLE_PASSAGE
    assert result.path is None and result.graph is pre.graph


def graph_arrays(graph):
    return graph.nodes, graph.edges, graph.weights


def graph_state(graph):
    """Every array's bytes, the kinds, the faces, the CSR rows and the counts."""
    return ([a.tobytes() for a in graph_arrays(graph)], graph.node_kinds, graph.edge_kinds,
            graph.edge_faces, graph.csr,
            (graph.segments_decided, graph.segments_rejected, graph.bridges_added))


@pytest.mark.parametrize("name", ["narrow2d", "pillars3d", "dense3d"])
def test_queries_share_the_precomputed_graph_read_only(name):
    scn = generate_benchmark(name, 0)
    pre = precompute(scn)
    before = graph_state(pre.graph)
    assert not any(a.flags.writeable for a in graph_arrays(pre.graph))
    start, goal = scn.start.position, scn.goal.position
    rng = np.random.default_rng(20)
    for _ in range(20):
        # the reference query's terminals, each moved by 2% of the diagonal
        scn.start, scn.goal = (RigidPose.create(p + 0.02 * scn.world_diagonal
                                                * rng.normal(size=scn.dim))
                               for p in (start, goal))
        result = plan(scn, pre)
        assert result.success
        assert result.graph.edge_kinds.count("stub") == 2
        assert not any(a.flags.writeable for a in graph_arrays(result.graph))
    assert graph_state(pre.graph) == before


def reachable_arrays(obj, seen=None):
    """Every numpy array reachable from obj through attributes, cached
    properties, tuples, lists and dict values."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (tuple, list)):
        items = list(obj)
    else:
        items = list(vars(obj).values()) if hasattr(obj, "__dict__") else []
    return [a for item in items for a in reachable_arrays(item, seen)]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_no_array_reachable_from_a_graph_is_writeable(name):
    # the precomputed graph and a query's derived graph, CSR rows built
    scn = generate_benchmark(name, 0)
    pre = precompute(scn)
    result = plan(scn, pre)
    assert result.success and result.graph is not pre.graph
    for graph in (pre.graph, result.graph):
        graph.csr
        arrays = reachable_arrays(graph)
        assert len(arrays) >= 3
        assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("scene", ["narrow-wall", "pillars"])
def test_the_fallback_is_recorded_once(scene):
    # the first 60 seed-1001 queries of perfbench's scene: the validation
    # report, the trajectory and the metrics agree on every fallback
    bench = load_bench_scenes()
    spec, regions = {"narrow-wall": (bench.narrow_wall(), bench.wall_regions()),
                     "pillars": (bench.pillars(), bench.pillar_regions())}[scene]
    pre = precompute(scenario_from_dict(spec))
    sampler = bench.QuerySampler(spec, regions, 1001)
    fallbacks = 0
    for _ in range(60):
        scn = scenario_from_dict(sampler.next())
        result = plan(scn, pre)
        assert result.success
        assert set(result.timings) == {"precompute_s", "query_s"}
        fallback = result.validation.fallback
        assert fallback == (not result.trajectory.smoothed)
        assert (result.trajectory is result.demonstration) == fallback
        assert result.demonstration is not None and not result.demonstration.smoothed
        report = compute_metrics(result.trajectory, scn, {"query_s": 1.0, "precompute_s": 2.0})
        assert report.fallback == fallback
        fallbacks += fallback
    assert fallbacks > 0


def test_every_perfbench_patch_point_resolves(monkeypatch):
    # perfbench's traced run wraps sqplan functions where each module looks
    # them up, some through imports the module itself does not use (the
    # re-exports marked noqa: F401); a name renamed or dropped fails here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("spans").Tracer()
    try:
        workloads.install_tracing(tracer)
        patched = list(tracer._patched)
        assert len(patched) == 26
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.unpatch()
    assert all(getattr(module, attr) is original for module, attr, original in patched)


def whole_box_terminals(scenario, count, rng):
    """count points drawn uniformly in the world box, keeping those where the
    robot's bounding sphere clears every wall and every obstacle's box."""
    r = scenario.robot.bounding_radius()
    shapes = stack_shapes(scenario.obstacles)
    points = []
    while len(points) < count:
        p = rng.uniform(scenario.world_lo, scenario.world_hi, size=(64, scenario.dim))
        walls = np.minimum(p - scenario.world_lo, scenario.world_hi - p).min(axis=1)
        points.extend(p[(walls > r) & (box_gaps(p, shapes).min(axis=0) > r)])
    return points[:count]


@pytest.mark.parametrize("name", [
    *(n for n in BENCHMARK_NAMES if n != "dense3d"),
    pytest.param("dense3d", marks=pytest.mark.xfail(
        strict=True, raises=RuntimeError,
        reason="roadmap edges are certified for a point, not the posed robot "
               "(ROADMAP item 3): some raw demonstrations collide")),
])
def test_whole_box_queries_plan_clear_or_say_why(name):
    # ROADMAP item 13's first invariant on whole-box terminals: plan never
    # raises, and every success is certified clear
    scn = generate_benchmark(name)
    pre = precompute(scn)
    points = whole_box_terminals(scn, 80, np.random.default_rng(7))
    for start, goal in zip(points[0::2], points[1::2]):
        query = dataclasses.replace(scn, start=RigidPose.create(start),
                                    goal=RigidPose.create(goal))
        result = plan(query, pre)
        if result.success:
            assert not trajectory_collides(result.trajectory, scn.robot, scn.obstacles)
        else:
            assert result.reason == NO_FEASIBLE_PASSAGE
