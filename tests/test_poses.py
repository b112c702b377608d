import numpy as np
import pytest

from sqplan.geometry import Superquadric
from sqplan.poses import (frame_3d, heading_2d, plan_poses, robot_pose_at,
                          robot_rotations)
from sqplan.roadmap import RoadmapGraph
from sqplan.rotations import exp_so3, rot2d
from sqplan.voronoi import Hyperplane


def test_heading_2d_trivial():
    assert np.isclose(heading_2d([0, 0], [1, 0]), 0.0)
    assert np.isclose(heading_2d([0, 0], [0, 1]), np.pi / 2.0)
    assert np.isclose(abs(heading_2d([0, 0], [-1, 0])), np.pi)
    with pytest.raises(ValueError):
        heading_2d([1, 1], [1, 1])


def test_heading_2d_rotation_equivariant():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a, b = rng.normal(size=2), rng.normal(size=2)
        phi = rng.uniform(-np.pi, np.pi)
        r = rot2d(phi)
        base = heading_2d(a, b)
        rotated = heading_2d(r @ a, r @ b)
        diff = (rotated - base - phi + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(diff) <= 1e-12


def test_frame_3d_trivial_cases():
    r = frame_3d([0, 0, 0], [1, 0, 0], [0, 0, 1])
    assert np.allclose(r, np.eye(3), atol=1e-12)
    r = frame_3d([0, 0, 0], [0, 1, 0], [0, 0, 1])
    expect = np.column_stack([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert np.allclose(r, expect, atol=1e-12)


def test_frame_3d_random_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.normal(size=3), rng.normal(size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        d = b - a
        if np.linalg.norm(np.cross(d, n)) < 1e-3:
            continue
        r = frame_3d(a, b, n)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-9)
        assert np.allclose(r[:, 0], d / np.linalg.norm(d), atol=1e-9)
        # r3 equals the normal up to the re-orthogonalization component
        resid = n - (n @ r[:, 0]) * r[:, 0]
        assert np.allclose(r[:, 2], resid / np.linalg.norm(resid), atol=1e-9)


def test_frame_3d_parallel_rejected():
    with pytest.raises(ValueError):
        frame_3d([0, 0, 0], [1, 0, 0], [1, 0, 0])


def bisector(normal, gap):
    """Hyperplane through the origin with the given normal and witness gap."""
    n = np.asarray(normal, dtype=float)
    return Hyperplane(n, 0.0, 0, 1, 0.5 * gap * n, -0.5 * gap * n)


def line_graph_2d(points, kinds=None):
    ids = list(range(len(points)))
    g = RoadmapGraph.create(points, ["cell"] * len(points), list(zip(ids, ids[1:])),
                            ["cell"] * (len(ids) - 1) if kinds is None else kinds)
    return g, ids


def test_plan_poses_2d_straight():
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    g, ids = line_graph_2d([[0.0, 0.0], [1.0, 0.0]])
    ways = plan_poses(ids, g, robot, [])
    assert len(ways) == 2
    assert all(np.isclose(w.orientation[0], 0.0) for w in ways)


def test_plan_poses_2d_l_shape():
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    g, ids = line_graph_2d([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    ways = plan_poses(ids, g, robot, [])
    assert np.isclose(ways[0].orientation[0], 0.0)
    assert np.isclose(ways[1].orientation[0], np.pi / 2.0)
    assert np.isclose(ways[2].orientation[0], np.pi / 2.0)


def test_plan_poses_2d_stub_inherits_cell_heading():
    # stub, cell, stub: the connective segments take the cell heading
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    g, ids = line_graph_2d([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]],
                           kinds=["stub", "cell", "stub"])
    ways = plan_poses(ids, g, robot, [])
    assert all(np.isclose(w.orientation[0], 0.0) for w in ways)


def test_plan_poses_3d_aligns_short_axis_with_face_normal():
    robot = Superquadric.create([1.0, 1.0], [0.3, 0.5, 0.9], [0.0, 0.0, 0.0])
    normal = np.array([1.0, 0.0, 0.0])
    g = RoadmapGraph.create([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ["cell"] * 2, [(0, 1)],
                            ["cell"], [[0]])
    ways = plan_poses([0, 1], g, robot, [bisector(normal, 0.4)])
    for w in ways:
        assert np.linalg.norm(w.orientation) <= np.pi + 1e-12
        r = exp_so3(w.orientation)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.allclose(r[:, 2], normal, atol=1e-9)  # r3 = face normal
        assert np.allclose(r[:, 0], [0.0, 1.0, 0.0], atol=1e-9)  # r1 = travel
        posed = robot_pose_at(robot, w.position, w.orientation)
        rm = posed.pose.matrix
        # shortest local axis (axes ascending) ends up on the face normal
        assert np.allclose(np.abs(rm[:, 0] @ normal), 1.0, atol=1e-9)
        # longest local axis along travel
        assert np.allclose(np.abs(rm[:, 2] @ np.array([0.0, 1.0, 0.0])), 1.0,
                           atol=1e-9)


def test_plan_poses_3d_takes_the_widest_gap_face_ties_to_the_lowest_id():
    robot = Superquadric.create([1.0, 1.0], [0.3, 0.5, 0.9], [0.0, 0.0, 0.0])
    x, z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    for faces, planes, want in (([0, 1], [bisector(x, 0.4), bisector(z, 0.6)], z),
                                ([1, 0], [bisector(x, 0.6), bisector(z, 0.6)], x)):
        g = RoadmapGraph.create([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ["cell"] * 2, [(0, 1)],
                                ["cell"], [faces])
        for w in plan_poses([0, 1], g, robot, planes):
            assert np.allclose(exp_so3(w.orientation)[:, 2], want, atol=1e-9)


def test_plan_poses_3d_continuity_no_flip():
    robot = Superquadric.create([1.0, 1.0], [0.3, 0.5, 0.9], [0.0, 0.0, 0.0])
    pts = [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, 0.0]]
    ids = [0, 1, 2]
    # second face normal stored with flipped sign; continuity must unflip it
    g = RoadmapGraph.create(pts, ["cell"] * 3, [(0, 1), (1, 2)], ["cell"] * 2, [[0], [1]])
    ways = plan_poses(ids, g, robot, [bisector([0.0, 0.0, 1.0], 0.4),
                                      bisector([0.0, 0.0, -1.0], 0.4)])
    r3s = [exp_so3(w.orientation)[:, 2] for w in ways]
    for k in range(len(r3s) - 1):
        assert r3s[k] @ r3s[k + 1] > 0.0


def test_plan_poses_2d_robot_pose_convention():
    # heading 0 means the long axis lies along +x, so the stored shape angle
    # compensates for the local long axis being +y
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    posed = robot_pose_at(robot, [0.5, 0.5], [0.0])
    r = posed.pose.matrix
    long_world = r @ np.array([0.0, 1.0])
    assert np.allclose(np.abs(long_world), [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_robot_rotations_match_robot_pose_at(dim):
    rng = np.random.default_rng(dim)
    axes = [0.02, 0.06] if dim == 2 else [0.1, 0.2, 0.3]
    robot = Superquadric.create(np.ones(dim - 1), axes, np.zeros(dim))
    ori = rng.uniform(-4.0, 4.0, size=(30, 1 if dim == 2 else 3))
    ori[0] = np.pi / 2.0 - np.pi  # heading that wraps to exactly -pi
    want = np.stack([robot_pose_at(robot, np.zeros(dim), o).pose.matrix
                     for o in ori])
    got = robot_rotations(dim, ori)
    if dim == 2:
        assert np.array_equal(got, want)
    else:  # want went through a rotation-vector round trip
        assert np.max(np.abs(got - want)) <= 1e-12


def test_plan_poses_requires_two_nodes():
    robot = Superquadric.create([1.0], [0.02, 0.06], [0.0, 0.0])
    g, ids = line_graph_2d([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        plan_poses([ids[0]], g, robot, [])
