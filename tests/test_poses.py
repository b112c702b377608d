import numpy as np
import pytest

from oracles import frame_3d, load_bench_scenes, reference_plan_poses_3d, robot_pose_at
from sqplan.geometry import Superquadric
from sqplan.pipeline import precompute
from sqplan.poses import heading_2d, plan_poses, robot_rotations
from sqplan.roadmap import Edge, project_terminal, shortest_path
from sqplan.rotations import exp_so3, rot2d
from sqplan.scenario import generate_benchmark, scenario_from_dict
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


def line_path(points, kinds=None, faces=None):
    """The node array of a path through the points, and the Edge rows it
    takes between them (cell edges without bisector faces by default)."""
    nodes = np.array(points, dtype=float)
    n = len(nodes) - 1
    kinds = ["cell"] * n if kinds is None else kinds
    faces = [()] * n if faces is None else faces
    return nodes, [Edge(k, k + 1, float(np.linalg.norm(nodes[k + 1] - nodes[k])), kind,
                        tuple(f)) for k, (kind, f) in enumerate(zip(kinds, faces))]


def test_plan_poses_2d_straight():
    nodes, edges = line_path([[0.0, 0.0], [1.0, 0.0]])
    positions, orientations = plan_poses(nodes, edges, [])
    assert np.array_equal(positions, nodes)
    assert orientations.shape == (2, 1)
    assert np.allclose(orientations, 0.0)


def test_plan_poses_2d_l_shape():
    positions, orientations = plan_poses(*line_path([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), [])
    assert orientations.shape == (3, 1)
    assert np.allclose(orientations[:, 0], [0.0, np.pi / 2.0, np.pi / 2.0])


def test_plan_poses_2d_stub_inherits_cell_heading():
    # stub, cell, stub: the connective segments take the cell heading
    nodes, edges = line_path([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]],
                             kinds=["stub", "cell", "stub"])
    _, orientations = plan_poses(nodes, edges, [])
    assert orientations.shape == (4, 1)
    assert np.allclose(orientations, 0.0)


def test_plan_poses_3d_aligns_short_axis_with_face_normal():
    robot = Superquadric.create([1.0, 1.0], [0.3, 0.5, 0.9], [0.0, 0.0, 0.0])
    normal = np.array([1.0, 0.0, 0.0])
    nodes, edges = line_path([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], faces=[[0]])
    positions, orientations = plan_poses(nodes, edges, [bisector(normal, 0.4)])
    assert np.array_equal(positions, nodes) and orientations.shape == (2, 3)
    for p, o in zip(positions, orientations):
        assert np.linalg.norm(o) <= np.pi + 1e-12
        r = exp_so3(o)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.allclose(r[:, 2], normal, atol=1e-9)  # r3 = face normal
        assert np.allclose(r[:, 0], [0.0, 1.0, 0.0], atol=1e-9)  # r1 = travel
        posed = robot_pose_at(robot, p, o)
        rm = posed.pose.matrix
        # shortest local axis (axes ascending) ends up on the face normal
        assert np.allclose(np.abs(rm[:, 0] @ normal), 1.0, atol=1e-9)
        # longest local axis along travel
        assert np.allclose(np.abs(rm[:, 2] @ np.array([0.0, 1.0, 0.0])), 1.0,
                           atol=1e-9)


def test_plan_poses_3d_takes_the_widest_gap_face_ties_to_the_lowest_id():
    x, z = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    for faces, planes, want in (([0, 1], [bisector(x, 0.4), bisector(z, 0.6)], z),
                                ([1, 0], [bisector(x, 0.6), bisector(z, 0.6)], x)):
        nodes, edges = line_path([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], faces=[faces])
        for o in plan_poses(nodes, edges, planes)[1]:
            assert np.allclose(exp_so3(o)[:, 2], want, atol=1e-9)


def test_plan_poses_3d_continuity_no_flip():
    # second face normal stored with flipped sign; continuity must unflip it
    nodes, edges = line_path([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0, 0.0]],
                             faces=[[0], [1]])
    _, orientations = plan_poses(nodes, edges, [bisector([0.0, 0.0, 1.0], 0.4),
                                                bisector([0.0, 0.0, -1.0], 0.4)])
    r3s = [exp_so3(o)[:, 2] for o in orientations]
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
    with pytest.raises(ValueError):
        plan_poses(np.zeros((1, 2)), [], [])


def roadmap_path(scn, pre):
    """The path nodes, the Edge rows between them and the hyperplanes of one
    query, as `pipeline.plan` hands them to `plan_poses`."""
    graph, start = project_terminal(scn.start.position, pre.graph)
    graph, goal = project_terminal(scn.goal.position, graph)
    path, edges = shortest_path(graph, start, goal)
    return graph.nodes[path], edges, pre.diagram.hyperplanes


def assert_matches_reference(nodes, edges, hyperplanes):
    positions, orientations = plan_poses(nodes, edges, hyperplanes)
    assert np.array_equal(positions, nodes)
    assert np.array_equal(orientations, reference_plan_poses_3d(nodes, edges, hyperplanes))


@pytest.mark.parametrize("name", ["pillars3d", "moderate3d", "dense3d"])
def test_plan_poses_equals_the_per_segment_reference_on_benchmarks(name):
    scn = generate_benchmark(name)
    assert_matches_reference(*roadmap_path(scn, precompute(scn)))


@pytest.mark.parametrize("scene", ["pillars", "field-1-8", "field-2-8", "field-2-16",
                                   "field-4-16"])
def test_plan_poses_equals_the_per_segment_reference_on_query_streams(scene):
    # the first 20 seed-1001 queries of perfbench's streams; every stream's
    # paths take edges without a bisector face (inherited normals), and on
    # fields (2, 8), (2, 16) and (4, 16) whole paths without one (fallback
    # normals)
    bench = load_bench_scenes()
    if scene == "pillars":
        data, regions = bench.pillars(), bench.pillar_regions()
    else:
        data, regions = bench.random_field(*map(int, scene.split("-")[1:])), bench.field_regions()
    pre = precompute(scenario_from_dict(data))
    sampler = bench.QuerySampler(data, regions, 1001)
    faceless = 0
    for _ in range(20):
        nodes, edges, hyperplanes = roadmap_path(scenario_from_dict(sampler.next()), pre)
        assert_matches_reference(nodes, edges, hyperplanes)
        faceless += sum(not e.faces for e in edges)
    assert faceless > 0
