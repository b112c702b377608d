"""Convex polytope clipping against halfspaces, keeping edge/face provenance.

Halfspaces are kept-side oriented: a point x survives the clip when
n . x >= b. Tags identify the generating plane: non-negative integers are
hyperplane ids, negative integers encode world-box sides (-1-side_index).
"""

from __future__ import annotations

import numpy as np

GEOM_TOL = 1e-9


def box_side_tag(side: int) -> int:
    return -1 - side


# ---------------------------------------------------------------- 2D polygons


def box_polygon(lo, hi):
    """Counter-clockwise rectangle with box-side edge tags."""
    x0, y0 = lo
    x1, y1 = hi
    verts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    tags = [box_side_tag(s) for s in range(4)]
    return verts, tags


def clip_polygon(verts, tags, n, b, hp_tag, tol=GEOM_TOL):
    """Clip a convex polygon to n.x >= b.

    Returns (verts, tags, changed); verts is None when the result is empty.
    Vertices within tol of the plane are snapped onto it.
    """
    v = np.asarray(verts, dtype=float)
    s = v @ n - b
    snap = np.abs(s) <= tol
    if snap.any():
        v = v.copy()
        v[snap] -= s[snap, None] * n
        s = s.copy()
        s[snap] = 0.0
    if np.all(s >= 0.0):
        return v, list(tags), False
    if np.all(s <= 0.0):
        return None, None, True
    out_v, out_t = [], []
    m = len(v)
    for k in range(m):
        a, b_pt = v[k], v[(k + 1) % m]
        sa, sb = s[k], s[(k + 1) % m]
        ta = tags[k]
        if sa >= 0.0:
            out_v.append(a)
            out_t.append(ta)
            if sb < 0.0 and sa > 0.0:
                t = sa / (sa - sb)
                out_v.append(a + t * (b_pt - a))
                out_t.append(hp_tag)  # edge leaving along the cut
            elif sb < 0.0:
                out_t[-1] = hp_tag  # vertex already on the plane starts the cut
        elif sb > 0.0:
            t = sa / (sa - sb)
            out_v.append(a + t * (b_pt - a))
            out_t.append(ta)
    # drop duplicate consecutive vertices introduced by snapping
    keep_v, keep_t = [], []
    for k in range(len(out_v)):
        if keep_v and np.linalg.norm(out_v[k] - keep_v[-1]) <= tol:
            continue
        keep_v.append(out_v[k])
        keep_t.append(out_t[k])
    if len(keep_v) > 1 and np.linalg.norm(keep_v[0] - keep_v[-1]) <= tol:
        keep_v.pop()
        keep_t.pop()
    if len(keep_v) < 3:
        return None, None, True
    return np.array(keep_v), keep_t, True


# ------------------------------------------------------------- 3D polyhedra


def box_polyhedron(lo, hi):
    """Axis-aligned box with outward-oriented faces tagged by side.

    Sides are ordered (x-, x+, y-, y+, z-, z+).
    """
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    verts = [
        np.array([x0, y0, z0]), np.array([x1, y0, z0]),
        np.array([x1, y1, z0]), np.array([x0, y1, z0]),
        np.array([x0, y0, z1]), np.array([x1, y0, z1]),
        np.array([x1, y1, z1]), np.array([x0, y1, z1]),
    ]
    loops = [
        [0, 3, 7, 4],  # x-
        [1, 5, 6, 2],  # x+
        [0, 4, 5, 1],  # y-
        [2, 6, 7, 3],  # y+
        [0, 1, 2, 3],  # z-
        [4, 7, 6, 5],  # z+
    ]
    faces = [(loop, box_side_tag(s)) for s, loop in enumerate(loops)]
    return verts, faces


def clip_polyhedron(vertices, faces, n, b, hp_tag, tol=GEOM_TOL):
    """Clip a convex polyhedron to n.x >= b.

    vertices: list of 3-vectors, which may hold some that no face uses (they
    decide nothing); faces: list of (vertex-index loop, tag). Returns
    (vertices, faces, changed); vertices is None when empty. The cut face is
    a convex polygon: the kept vertices on the plane, ordered clockwise about
    n (its outward normal is -n) by their angle around their centroid, from
    the least id.
    """
    verts = [np.asarray(v, dtype=float) for v in vertices]
    s = np.array([v @ n - b for v in verts])
    snap = np.abs(s) <= tol
    for i in np.flatnonzero(snap):
        verts[i] = verts[i] - s[i] * n
        s[i] = 0.0
    used = s[sorted({i for loop, _ in faces for i in loop})]
    if np.all(used >= 0.0):
        return verts, [(list(loop), t) for loop, t in faces], False
    if np.all(used <= 0.0):
        return None, None, True

    cut_cache: dict[tuple[int, int], int] = {}

    def cut_point(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cut_cache:
            t = s[i] / (s[i] - s[j])
            verts.append(verts[i] + t * (verts[j] - verts[i]))
            cut_cache[key] = len(verts) - 1
        return cut_cache[key]

    new_faces = []
    for loop, tag in faces:
        m = len(loop)
        out = []
        for k in range(m):
            u, v = loop[k], loop[(k + 1) % m]
            su, sv = s[u], s[v]
            if su >= 0.0:
                out.append(u)
                if sv < 0.0 < su:
                    out.append(cut_point(u, v))
            elif sv > 0.0:
                out.append(cut_point(u, v))
        dedup = [x for k, x in enumerate(out) if x != out[k - 1]] if out else []
        if len(dedup) >= 3:
            new_faces.append((dedup, tag))

    # cut points have ids past s; clockwise about n is counter-clockwise
    # in the tangent basis (e1, e1 x n)
    on = sorted({x for loop, _ in new_faces for x in loop if x >= len(s) or s[x] == 0.0})
    d = np.array([verts[i] for i in on])
    d -= d.mean(axis=0)
    e1 = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
    order = np.argsort(np.arctan2(d @ np.cross(e1, n), d @ e1))
    new_faces.append(([on[i] for i in np.roll(order, -np.argmin(order))], hp_tag))
    return verts, new_faces, True


def compact_polyhedron(vertices, faces):
    """Drop vertices not referenced by any face, remapping face loops."""
    used = sorted({i for loop, _ in faces for i in loop})
    remap = {old: new for new, old in enumerate(used)}
    verts = np.array([vertices[i] for i in used])
    new_faces = [([remap[i] for i in loop], tag) for loop, tag in faces]
    return verts, new_faces


def polyhedron_edges(faces):
    """Undirected edges with the tags of their adjacent faces."""
    edges: dict[tuple[int, int], list[int]] = {}
    for loop, tag in faces:
        m = len(loop)
        for k in range(m):
            u, v = loop[k], loop[(k + 1) % m]
            key = (u, v) if u < v else (v, u)
            edges.setdefault(key, []).append(tag)
    return edges
