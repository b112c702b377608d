import numpy as np
import pytest

from sqplan.geometry import Superquadric, inside_outside
from sqplan.pipeline import NO_FEASIBLE_PASSAGE, default_bridging_distance, \
    plan, precompute
from sqplan.scenario import Scenario, generate_benchmark
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
    raw = result.raw_trajectory
    for obs in scn.obstacles:
        grown = expand(obs, margin)
        assert np.all(inside_outside(grown, raw.positions) > 0.0)


def test_all_benchmarks_succeed():
    for name in ("narrow2d", "t_block", "u_block"):
        result = plan(generate_benchmark(name))
        assert result.success, name
        assert not result.validation.fallback, name
        assert result.trajectory.arc_length() > 0.0


def test_default_bridging_distance_scales_with_world():
    scn = generate_benchmark("narrow2d")
    assert np.isclose(default_bridging_distance(scn),
                      0.02 * scn.world_diagonal)


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
