import numpy as np

from oracles import cell_contains, closest_pairs, load_bench_scenes, reference_diagram
from sqplan.geometry import Superquadric
from sqplan.proximity import OVERLAP_TOL, closest_pair
from sqplan.scenario import BENCHMARK_NAMES, generate_benchmark, scenario_from_dict
from sqplan.voronoi import (Cluster, build_clusters, build_diagram, diagram_to_dict,
                            separating_hyperplane)


def cell_of_point(diagram, point):
    """Index of the first cell containing the point, or None (a hole)."""
    for k in range(len(diagram.cells)):
        if bool(cell_contains(diagram, k, point)):
            return k
    return None


def tiny_sphere(center, dim, r=1e-3):
    if dim == 2:
        return Superquadric.create([1.0], [r, r], center)
    return Superquadric.create([1.0, 1.0], [r, r, r], center)


def point_robot(dim, r=1e-4):
    return tiny_sphere(np.zeros(dim), dim, r)


def test_clusters_merge_chains():
    circles = [Superquadric.create([1.0], [0.5, 0.5], [float(k) * 0.8, 0.0])
               for k in range(3)]
    circles.append(Superquadric.create([1.0], [0.5, 0.5], [10.0, 0.0]))
    pairs = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)]).T
    clusters = build_clusters(len(circles), pairs, closest_pairs(
        [circles[i] for i in pairs[0]], [circles[j] for j in pairs[1]], OVERLAP_TOL).distance)
    assert [c.members for c in clusters] == [[0, 1, 2], [3]]
    assert [c.id for c in clusters] == [0, 1]


def test_hyperplane_is_maximum_margin_bisector():
    a = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    b = Superquadric.create([1.0], [0.5, 0.5], [3.0, 0.0])
    pair = closest_pair(a, b)
    hp = separating_hyperplane(Cluster(0, [0]), Cluster(1, [1]), pair.p_i, pair.p_j,
                               pair.distance)
    assert np.allclose(np.abs(hp.normal), [1.0, 0.0], atol=1e-6)
    mid = 0.5 * (hp.witness_i + hp.witness_j)
    assert np.isclose(hp.normal @ mid, hp.offset, atol=1e-9)
    assert np.isclose(hp.witness_distance, 2.0, atol=1e-6)
    # witnesses sit on the two surfaces, equidistant from the plane
    assert np.isclose(abs(hp.normal @ hp.witness_i - hp.offset),
                      abs(hp.normal @ hp.witness_j - hp.offset), atol=1e-9)


def test_hyperplane_tie_goes_to_the_first_cross_pair_in_member_order():
    # mirror-symmetric about x = 0: cluster 0 is a bar (0) with a post at
    # each end (2 left, 3 right), cluster 1 a bar (5) with a block at each
    # end (1 right, 4 left). Each post faces a block across the same gap, so
    # the cross pairs (2, 4) and (1, 3) tie at exactly equal GJK distance.
    # Member order (i over cluster 0's members, then j over cluster 1's)
    # puts (2, 4) first; row order (i < j) would put (1, 3) first.
    def box(axes, x, y):
        return Superquadric.create([0.2], axes, [x, y])

    obstacles = [box([4.5, 0.2], 0.0, 0.0), box([0.5, 0.5], 4.0, 5.5),
                 box([0.2, 2.0], -4.0, 2.0), box([0.2, 2.0], 4.0, 2.0),
                 box([0.5, 0.5], -4.0, 5.5), box([4.5, 0.3], 0.0, 6.2)]
    case = (point_robot(2), obstacles, [-10.0, -10.0], [10.0, 10.0])
    diagram = build_diagram(*case)
    assert [c.members for c in diagram.clusters] == [[0, 2, 3], [1, 4, 5]]
    grown = diagram.expanded
    tied = closest_pairs([grown[2], grown[1]], [grown[4], grown[3]]).distance
    assert tied[0] == tied[1] and np.all(closest_pairs(
        [grown[i] for i, _ in ((0, 1), (0, 5), (2, 5), (3, 5))],
        [grown[j] for _, j in ((0, 1), (0, 5), (2, 5), (3, 5))]).distance > tied[0])
    (hp,) = diagram.hyperplanes
    assert hp.witness_i[0] < 0.0 and hp.witness_j[0] < 0.0
    assert_same_diagram(diagram, reference_diagram(*case))


def test_point_site_diagram_matches_nearest_site_2d():
    rng = np.random.default_rng(7)
    sites = rng.uniform(1.0, 9.0, size=(5, 2))
    obstacles = [tiny_sphere(s, 2) for s in sites]
    diagram = build_diagram(point_robot(2), obstacles, [0.0, 0.0], [10.0, 10.0])
    assert len(diagram.cells) == 5
    xs = np.linspace(0.05, 9.95, 120)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    nearest = np.argmin(np.linalg.norm(pts[:, None, :] - sites[None], axis=2), axis=1)
    ok = np.array([bool(cell_contains(diagram, nearest[k], pts[k], tol=1e-7))
                   for k in range(len(pts))])
    assert ok.mean() >= 0.995


def test_cells_cover_world_and_have_disjoint_interiors():
    rng = np.random.default_rng(8)
    sites = rng.uniform(2.0, 8.0, size=(4, 2))
    obstacles = [tiny_sphere(s, 2, r=0.3) for s in sites]
    diagram = build_diagram(point_robot(2), obstacles, [0.0, 0.0], [10.0, 10.0])
    pts = rng.uniform(0.0, 10.0, size=(500, 2))
    counts = np.zeros(len(pts), dtype=int)
    for k in range(len(diagram.cells)):
        counts += cell_contains(diagram, k, pts, tol=1e-9).astype(int)
    assert np.all(counts >= 1)  # cells cover the world box
    strict = np.zeros(len(pts), dtype=int)
    for k in range(len(diagram.cells)):
        strict += cell_contains(diagram, k, pts, tol=-1e-7).astype(int)
    assert np.all(strict <= 1)  # interiors are disjoint


def test_diagram_3d_small():
    centers = [[3.0, 5.0, 5.0], [7.0, 5.0, 5.0]]
    obstacles = [Superquadric.create([1.0, 1.0], [1.0, 1.0, 1.0], c)
                 for c in centers]
    robot = Superquadric.create([1.0, 1.0], [0.2, 0.2, 0.2], [0.0, 0.0, 0.0])
    diagram = build_diagram(robot, obstacles, [0.0] * 3, [10.0] * 3)
    assert len(diagram.clusters) == 2
    assert len(diagram.hyperplanes) == 1
    hp = diagram.hyperplanes[0]
    assert np.allclose(np.abs(hp.normal), [1.0, 0.0, 0.0], atol=1e-5)
    assert np.isclose(abs(hp.offset), 5.0, atol=1e-5)
    # expansion by the robot's shortest semi-axis
    assert np.allclose(diagram.expanded[0].axes, 1.2)
    assert cell_of_point(diagram, [1.0, 5.0, 5.0]) == 0
    assert cell_of_point(diagram, [9.0, 5.0, 5.0]) == 1


def test_overlapping_obstacles_share_one_cell():
    a = Superquadric.create([1.0], [0.5, 0.5], [4.0, 5.0])
    b = Superquadric.create([1.0], [0.5, 0.5], [4.7, 5.0])
    c = Superquadric.create([1.0], [0.5, 0.5], [8.0, 5.0])
    robot = point_robot(2)
    diagram = build_diagram(robot, [a, b, c], [0.0, 0.0], [10.0, 10.0])
    assert len(diagram.clusters) == 2
    assert diagram.clusters[0].members == [0, 1]


def test_diagram_to_dict_serializable():
    import json
    a = Superquadric.create([1.0], [0.5, 0.5], [3.0, 5.0])
    b = Superquadric.create([1.0], [0.5, 0.5], [7.0, 5.0])
    diagram = build_diagram(point_robot(2), [a, b], [0.0, 0.0], [10.0, 10.0])
    text = json.dumps(diagram_to_dict(diagram), sort_keys=True)
    assert "cells" in text and "hyperplanes" in text


def test_diagram_counts_nonconverged_solves(monkeypatch):
    import json
    from sqplan import proximity
    obstacles = [Superquadric.create([0.7, 1.3], [0.4, 0.7, 1.1], [3.0, 3.0, 3.0],
                                     [0.3, 0.5, -0.2]),
                 Superquadric.create([1.2, 0.6], [0.3, 0.8, 1.0], [6.0, 4.0, 3.5],
                                     [-0.4, 0.1, 0.7]),
                 Superquadric.create([1.0, 1.0], [0.5, 0.5, 0.5], [3.0, 7.5, 3.0])]
    robot = Superquadric.create([1.0, 1.0], [0.05, 0.1, 0.2], [0.0, 0.0, 0.0])
    full = build_diagram(robot, obstacles, [0.0] * 3, [10.0] * 3)
    assert full.nonconverged == 0
    monkeypatch.setattr(proximity, "MAX_ITER", 2)
    capped = build_diagram(robot, obstacles, [0.0] * 3, [10.0] * 3)
    assert capped.nonconverged > 0
    out = json.loads(json.dumps(diagram_to_dict(capped)))
    assert out["nonconverged"] == capped.nonconverged


# ------------------------------------ two-pass diagram against every-pair full solve


def assert_same_diagram(diagram, reference):
    clusters, hyperplanes, cells, _ = reference
    assert [(c.id, c.members) for c in diagram.clusters] == [(c.id, c.members)
                                                           for c in clusters]
    assert len(diagram.hyperplanes) == len(hyperplanes)
    for h, w in zip(diagram.hyperplanes, hyperplanes):
        assert (h.cluster_i, h.cluster_j, h.offset) == (w.cluster_i, w.cluster_j, w.offset)
        for x, y in ((h.normal, w.normal), (h.witness_i, w.witness_i),
                     (h.witness_j, w.witness_j)):
            assert np.array_equal(x, y)
    assert len(diagram.cells) == len(cells)
    for c, w in zip(diagram.cells, cells):
        assert c.cluster_id == w.cluster_id and np.array_equal(c.vertices, w.vertices)
        assert c.edges == w.edges and c.faces == w.faces


def random_scene_2d(rng, count):
    """Boxy to diamond-shaped obstacles scattered over a 10 m square, so that
    they form anything from one cluster to one per obstacle."""
    obstacles = [Superquadric.create([rng.uniform(0.2, 1.8)], rng.uniform(0.2, 1.2, 2),
                                     rng.uniform(1.0, 9.0, 2), [rng.uniform(0.0, np.pi)])
                 for _ in range(count)]
    robot = Superquadric.create([1.0], [0.05, 0.1], [0.0, 0.0])
    return robot, obstacles, [0.0, 0.0], [10.0, 10.0]


def test_two_pass_diagram_equals_every_pair_full_solve():
    # the diagram equals the one from solving every pair in full, and
    # bitwise, with the same GJK work, the one of the dict-based precompute
    # on per-pair records
    bench = load_bench_scenes()
    scenes = [generate_benchmark(name) for name in BENCHMARK_NAMES]
    scenes += [scenario_from_dict(bench.random_field(*f)) for f in bench.BUILD3D_FIELDS]
    rng = np.random.default_rng(11)
    scenes += [scenario_from_dict(bench.random_field(int(seed), int(count)))
               for seed, count in zip(range(100, 112), rng.integers(4, 25, 12))]
    cases = [(s.robot, s.obstacles, s.world_lo, s.world_hi) for s in scenes]
    cases += [random_scene_2d(rng, int(count)) for count in rng.integers(4, 25, 12)]
    robot3 = Superquadric.create([1.0, 1.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    cases += [(robot3, obstacles, [0.0] * 3, [10.0] * 3) for obstacles in (
        [], [Superquadric.create([0.5, 1.5], [0.5, 1.0, 2.0], [5.0, 5.0, 5.0])])]
    cases += [(point_robot(2), [tiny_sphere([5.0, 5.0], 2, 0.5)], [0.0, 0.0], [10.0, 10.0])]
    full_solves = 0
    for case in cases:
        diagram = build_diagram(*case)
        assert_same_diagram(diagram, reference_diagram(*case, threshold=None))
        reference = reference_diagram(*case)
        assert_same_diagram(diagram, reference)
        assert {key: getattr(diagram, key) for key in reference[3]} == reference[3]
        n = len(case[1])
        assert diagram.pairs == n * (n - 1) // 2
        assert diagram.threshold_decided <= diagram.pairs
        assert diagram.nonconverged == 0
        full_solves += diagram.full_solves
    assert full_solves > 0


def test_diagram_records_its_gjk_work():
    import json
    scn = generate_benchmark("dense3d")
    diagram = build_diagram(scn.robot, scn.obstacles, scn.world_lo, scn.world_hi)
    n = len(scn.obstacles)
    assert diagram.pairs == n * (n - 1) // 2
    assert 0 < diagram.threshold_decided <= diagram.pairs
    assert 0 < diagram.full_solves <= diagram.threshold_decided
    assert diagram.gjk_iterations >= diagram.pairs + diagram.full_solves
    # only the full solves take Newton steps, in their own iterations
    assert 0 < diagram.newton_steps < diagram.gjk_iterations - diagram.pairs
    out = json.loads(json.dumps(diagram_to_dict(diagram)))
    for key in ("nonconverged", "pairs", "threshold_decided", "full_solves",
                "gjk_iterations", "newton_steps"):
        assert out[key] == getattr(diagram, key)
