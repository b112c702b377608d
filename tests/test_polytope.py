import numpy as np

from sqplan.polytope import (box_polygon, box_polyhedron, box_side_tag,
                             clip_polygon, clip_polyhedron, compact_polyhedron,
                             polyhedron_edges)


def euler_characteristic(n_vertices, faces):
    """V - E + F of a polyhedron's face loops."""
    return n_vertices - len(polyhedron_edges(faces)) + len(faces)


def polygon_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def test_box_polygon_ccw_and_tags():
    verts, tags = box_polygon([0.0, 0.0], [2.0, 1.0])
    assert polygon_area(verts) > 0.0
    assert sorted(tags) == sorted(box_side_tag(s) for s in range(4))


def test_clip_polygon_halfplane():
    verts, tags = box_polygon([0.0, 0.0], [4.0, 2.0])
    # keep x <= 2, i.e. -x >= -2
    v, t, changed = clip_polygon(verts, tags, np.array([-1.0, 0.0]), -2.0, 7)
    assert changed
    assert np.isclose(polygon_area(v), 4.0)
    assert 7 in t  # the cut edge carries the hyperplane tag
    assert np.all(v[:, 0] <= 2.0 + 1e-9)


def test_clip_polygon_no_change_and_empty():
    verts, tags = box_polygon([0.0, 0.0], [1.0, 1.0])
    v, t, changed = clip_polygon(verts, tags, np.array([1.0, 0.0]), -1.0, 5)
    assert not changed and np.allclose(v, verts)
    v, t, changed = clip_polygon(verts, tags, np.array([1.0, 0.0]), 2.0, 5)
    assert v is None and changed


def test_clip_polygon_through_vertex():
    verts, tags = box_polygon([0.0, 0.0], [1.0, 1.0])
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v, t, changed = clip_polygon(verts, tags, n, 1.0 / np.sqrt(2.0), 9)
    assert changed and np.isclose(polygon_area(v), 0.5)


def test_box_polyhedron_valid():
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert euler_characteristic(len(verts), faces) == 2
    edges = polyhedron_edges(faces)
    assert len(edges) == 12
    assert all(len(tags) == 2 for tags in edges.values())


def test_clip_polyhedron_halfspace():
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
    v, f, changed = clip_polyhedron(verts, faces, np.array([0.0, 0.0, -1.0]),
                                    -1.0, 3)
    assert changed
    pts, f = compact_polyhedron(v, f)
    assert euler_characteristic(len(pts), f) == 2
    assert np.all(pts[:, 2] <= 1.0 + 1e-9)
    assert any(tag == 3 for _, tag in f)
    # cut face area is 2x2
    cut = next(loop for loop, tag in f if tag == 3)
    poly = pts[cut][:, :2]
    assert np.isclose(abs(polygon_area(poly)), 4.0)


def test_clip_polyhedron_corner_cut_euler():
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    n = -np.ones(3) / np.sqrt(3.0)
    v, f, changed = clip_polyhedron(verts, faces, n, float(n @ [0.5, 0.0, 0.0]), 1)
    assert changed
    pts, f = compact_polyhedron(v, f)
    assert euler_characteristic(len(pts), f) == 2


def test_clip_polyhedron_random_sequence_stays_valid():
    rng = np.random.default_rng(6)
    verts, faces = box_polyhedron([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    for k in range(12):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        b = rng.uniform(-0.8, 0.2)
        v, f, _ = clip_polyhedron(verts, faces, n, b, 100 + k)
        if v is None:
            break
        verts, faces = v, f
        pts, cf = compact_polyhedron(verts, faces)
        assert euler_characteristic(len(pts), cf) == 2
        for (u, w), tags in polyhedron_edges(cf).items():
            assert len(tags) == 2
        assert np.all(pts @ n >= b - 1e-7)


def test_clip_polyhedron_empty():
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    v, f, changed = clip_polyhedron(verts, faces, np.array([1.0, 0.0, 0.0]),
                                    5.0, 0)
    assert v is None and changed
