import numpy as np

from sqplan.geometry import Superquadric
from sqplan.proximity import closest_pair
from sqplan.voronoi import (all_pairs, build_clusters, build_diagram, cell_of_point,
                            diagram_to_dict, separating_hyperplane)


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
    clusters = build_clusters(circles, all_pairs(circles))
    assert [c.members for c in clusters] == [[0, 1, 2], [3]]
    assert [c.id for c in clusters] == [0, 1]


def test_hyperplane_is_maximum_margin_bisector():
    a = Superquadric.create([1.0], [0.5, 0.5], [0.0, 0.0])
    b = Superquadric.create([1.0], [0.5, 0.5], [3.0, 0.0])
    pairs = {(0, 1): closest_pair(a, b)}
    from sqplan.voronoi import Cluster
    hp = separating_hyperplane(Cluster(0, [0]), Cluster(1, [1]), [a, b], pairs)
    assert np.allclose(np.abs(hp.normal), [1.0, 0.0], atol=1e-6)
    mid = 0.5 * (hp.witness_i + hp.witness_j)
    assert np.isclose(hp.normal @ mid, hp.offset, atol=1e-9)
    assert np.isclose(hp.witness_distance, 2.0, atol=1e-6)
    # witnesses sit on the two surfaces, equidistant from the plane
    assert np.isclose(abs(hp.normal @ hp.witness_i - hp.offset),
                      abs(hp.normal @ hp.witness_j - hp.offset), atol=1e-9)


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
    ok = np.array([bool(diagram.cells[nearest[k]].contains(pts[k], tol=1e-7))
                   for k in range(len(pts))])
    assert ok.mean() >= 0.995


def test_cells_cover_world_and_have_disjoint_interiors():
    rng = np.random.default_rng(8)
    sites = rng.uniform(2.0, 8.0, size=(4, 2))
    obstacles = [tiny_sphere(s, 2, r=0.3) for s in sites]
    diagram = build_diagram(point_robot(2), obstacles, [0.0, 0.0], [10.0, 10.0])
    pts = rng.uniform(0.0, 10.0, size=(500, 2))
    counts = np.zeros(len(pts), dtype=int)
    for cell in diagram.cells:
        counts += cell.contains(pts, tol=1e-9).astype(int)
    assert np.all(counts >= 1)  # cells cover the world box
    strict = np.zeros(len(pts), dtype=int)
    for cell in diagram.cells:
        strict += cell.contains(pts, tol=-1e-7).astype(int)
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
