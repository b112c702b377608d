import numpy as np
import pytest

from oracles import compact_polyhedron, newell_normal, reference_clip_polyhedron
from sqplan.polytope import (GEOM_TOL, box_polygon, box_polyhedron, box_side_tag,
                             clip_polygon, clip_polyhedron, polyhedron_edges)


def euler_characteristic(n_vertices, faces):
    """V - E + F of a polyhedron's face loops."""
    return n_vertices - len(polyhedron_edges(faces)) + len(faces)


def box_outward(side):
    """Outward normal of a box side, sides ordered (x-, x+, y-, y+, z-, z+)."""
    return (1.0 if side % 2 else -1.0) * np.eye(3)[side // 2]


def assert_valid_polyhedron(verts, faces, outward):
    """Every vertex used by a face, closed (V - E + F = 2, two faces at every
    edge), and every face planar and convex. A cut face turns
    counter-clockwise seen from outside, about outward[tag]; a box side
    clockwise, as box_polyhedron winds it."""
    pts = np.asarray(verts)
    assert sorted({i for loop, _ in faces for i in loop}) == list(range(len(pts)))
    assert euler_characteristic(len(pts), faces) == 2
    assert all(len(tags) == 2 for tags in polyhedron_edges(faces).values())
    for loop, tag in faces:
        p = pts[loop]
        normal = newell_normal(p)
        winding = 1.0 if tag >= 0 else -1.0
        assert winding * (normal @ outward[tag]) > 0.0
        unit = normal / np.linalg.norm(normal)
        assert np.ptp(p @ unit) <= 1e-9
        step = np.roll(p, -1, axis=0) - p
        assert np.all(np.cross(step, np.roll(step, -1, axis=0)) @ unit >= -1e-12)


def clip_as_reference(verts, faces, n, b, tag):
    """clip_polyhedron, checked against the boundary-walk reference with the
    vertices no face uses dropped: the same vertices and kept faces, and the
    same cut face up to where it starts, which is its least vertex id.
    Returns the clip's result."""
    got_v, got_f, changed = clip_polyhedron(verts, faces, n, b, tag)
    want_v, want_f, _ = reference_clip_polyhedron(verts, faces, n, b, tag)
    if got_v is None:
        assert changed and want_v is None
        return got_v, got_f, changed
    want_v, want_f = compact_polyhedron(want_v, want_f)
    assert np.array_equal(got_v, want_v)
    assert [f for f in got_f if f[1] != tag] == [f for f in want_f if f[1] != tag]
    got_cut = [loop for loop, t in got_f if t == tag]
    want_cut = [loop for loop, t in want_f if t == tag]
    assert len(got_cut) == len(want_cut) <= 1
    for got, want in zip(got_cut, want_cut):
        k = want.index(got[0])
        assert got == want[k:] + want[:k]
        assert got[0] == min(got)
    assert changed == (got_f != [(list(loop), t) for loop, t in faces])
    return got_v, got_f, changed


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
    assert euler_characteristic(len(v), f) == 2
    assert np.all(v[:, 2] <= 1.0 + 1e-9)
    assert any(tag == 3 for _, tag in f)
    # cut face area is 2x2
    cut = next(loop for loop, tag in f if tag == 3)
    poly = v[cut][:, :2]
    assert np.isclose(abs(polygon_area(poly)), 4.0)


def test_clip_polyhedron_corner_cut_euler():
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    n = -np.ones(3) / np.sqrt(3.0)
    v, f, changed = clip_polyhedron(verts, faces, n, float(n @ [0.5, 0.0, 0.0]), 1)
    assert changed
    assert euler_characteristic(len(v), f) == 2


def test_clip_polyhedron_random_sequence_stays_valid():
    for seed in range(6, 12):
        rng = np.random.default_rng(seed)
        verts, faces = box_polyhedron([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        outward = {box_side_tag(s): box_outward(s) for s in range(6)}
        for k in range(12):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            b = rng.uniform(-0.8, 0.2)
            v, f, _ = clip_as_reference(verts, faces, n, b, 100 + k)
            if v is None:
                break
            verts, faces = v, f
            outward[100 + k] = -n
            assert_valid_polyhedron(verts, faces, outward)
            assert np.all(verts @ n >= b - 1e-7)


SQRT14 = np.sqrt(14.0)


@pytest.mark.parametrize("n, b, on_plane, cut_points", [
    # through two opposite edges: four snapped vertices, no cut point
    (np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0), 0.0, [0, 2, 4, 6], 0),
    (np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0), 0.0, [0, 2, 4, 6], 0),
    # through vertex 1 alone, cutting the edges from vertex 0 to 3 and 4
    (np.array([1.0, 2.0, 3.0]) / SQRT14, 1.0 / SQRT14, [1], 2),
    (-np.array([1.0, 2.0, 3.0]) / SQRT14, -1.0 / SQRT14, [1], 2),
    # within GEOM_TOL of vertex 1, on either side: it is snapped onto the plane
    (np.array([1.0, 2.0, 3.0]) / SQRT14, 1.0 / SQRT14 + 0.5 * GEOM_TOL, [1], 2),
    (np.array([1.0, 2.0, 3.0]) / SQRT14, 1.0 / SQRT14 - 0.5 * GEOM_TOL, [1], 2),
    (-np.array([1.0, 2.0, 3.0]) / SQRT14, -1.0 / SQRT14 + 0.5 * GEOM_TOL, [1], 2),
])
def test_clip_polyhedron_degenerate_planes(n, b, on_plane, cut_points):
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    v, f, changed = clip_as_reference(verts, faces, n, b, 7)
    assert changed
    # the box vertices kept, renumbered in order, then the cut points
    kept = [i for i in range(8) if verts[i] @ n - b >= -GEOM_TOL]
    on_plane = [kept.index(i) for i in on_plane]
    cut = next(loop for loop, tag in f if tag == 7)
    assert sorted(cut) == on_plane + list(range(len(kept), len(kept) + cut_points))
    assert len(v) == len(kept) + cut_points
    assert all(abs(v[i] @ n - b) <= 1e-15 for i in on_plane)
    outward = {box_side_tag(s): box_outward(s) for s in range(6)}
    outward[7] = -n
    assert_valid_polyhedron(v, f, outward)


def test_clip_polyhedron_unused_vertices_decide_nothing():
    # the corner cut returns no unused vertex: box vertex 0, which it cuts
    # away, is dropped, the others renumbered in order, then the 2 cut points
    box, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    n = np.array([1.0, 2.0, 3.0]) / SQRT14
    verts, faces, _ = clip_polyhedron(box, faces, n, 1.0 / SQRT14, 7)
    assert sorted({i for loop, _ in faces for i in loop}) == list(range(9))
    assert len(verts) == 9 and np.array_equal(verts[1:7], box[2:])
    # a plane that only vertex 0 is behind keeps every face and adds none
    m = np.ones(3) / np.sqrt(3.0)
    v, f, changed = clip_as_reference(verts, faces, m, 0.2 / np.sqrt(3.0), 8)
    assert not changed and f == faces
    # a plane that only vertex 0 is in front of leaves nothing
    v, f, changed = clip_as_reference(verts, faces, -m, -0.1 / np.sqrt(3.0), 8)
    assert v is None and changed


def test_clip_polyhedron_empty():
    verts, faces = box_polyhedron([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    v, f, changed = clip_polyhedron(verts, faces, np.array([1.0, 0.0, 0.0]),
                                    5.0, 0)
    assert v is None and changed
