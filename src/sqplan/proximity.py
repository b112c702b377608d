"""Minimum-distance queries between superquadrics.

Every shape is convex (eps in [0.1, 2]) and has a closed-form support map, so
the distance between two shapes is the distance from the origin to their
Minkowski difference, found by GJK (Gilbert, Johnson & Keerthi, IEEE J. Robot.
Autom. 1988) with the signed-volumes distance subalgorithm (Montanari,
Petrinic & Barbieri, ACM TOG 2017). 2D shapes run in the z = 0 plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# surface_point is not used here; perfbench's traced run patches this name
from .geometry import Superquadric, support_map, surface_point  # noqa: F401

MAX_ITER = 100
REL_TOL = 1e-12      # duality gap: stop when |v|^2 - v.w <= REL_TOL * |v|^2
TOUCH_TOL = 1e-12    # |v| below TOUCH_TOL * simplex size counts as enclosed
OVERLAP_TOL = 1e-9   # distances (m) at or below this count as touching


@dataclass
class ClosestPair:
    """Closest points between two shapes and their distance.

    Overlapping shapes report distance 0 with a point of the overlap as
    both witnesses. `converged` is False only when the iteration cap was hit.
    """

    p_i: np.ndarray
    p_j: np.ndarray
    distance: float
    converged: bool


def _same_sign(a: float, b: float) -> bool:
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def _s1d(y):
    """Closest point of a segment to the origin: (kept rows, weights)."""
    t = y[1] - y[0]
    tt = float(t @ t)
    u = 0.0 if tt == 0.0 else -float(y[0] @ t) / tt
    if u <= 0.0:
        return [0], np.ones(1)
    if u >= 1.0:
        return [1], np.ones(1)
    return [0, 1], np.array([1.0 - u, u])


def _s2d(y):
    """Closest point of a triangle to the origin: (kept rows, weights).

    The origin is projected onto the triangle's plane and its barycentric
    weights are signed areas in the coordinate plane where the triangle's
    projected area is largest; a negative weight sends the search to the
    opposite edge.
    """
    rows = y.tolist()
    e1 = [b - a for a, b in zip(rows[0], rows[1])]
    e2 = [c - a for a, c in zip(rows[0], rows[2])]
    n = [e1[1] * e2[2] - e1[2] * e2[1], e1[2] * e2[0] - e1[0] * e2[2],
         e1[0] * e2[1] - e1[1] * e2[0]]
    k = max(range(3), key=lambda c: abs(n[c]))
    mu = n[k]
    areas = [0.0, 0.0, 0.0]
    if mu != 0.0:
        scale = sum(a * b for a, b in zip(rows[0], n)) / sum(c * c for c in n)
        i, j = (k + 1) % 3, (k + 2) % 3
        pi, pj = scale * n[i], scale * n[j]
        for m in range(3):
            b, c = rows[(m + 1) % 3], rows[(m + 2) % 3]
            areas[m] = (b[i] - pi) * (c[j] - pj) - (c[i] - pi) * (b[j] - pj)
        if all(_same_sign(mu, s) for s in areas):
            return [0, 1, 2], np.array(areas) / mu
    return _best_face(y, [m for m in range(3) if not _same_sign(mu, areas[m])],
                      _s1d)


def _s3d(y):
    """Closest point of a tetrahedron to the origin: (kept rows, weights).

    The origin's barycentric weights are signed volumes (cofactors of the
    homogeneous vertex matrix); a weight whose sign differs from the total
    volume sends the search to the opposite facet.
    """
    vols = np.array([-np.linalg.det(y[[1, 2, 3]]), np.linalg.det(y[[0, 2, 3]]),
                     -np.linalg.det(y[[0, 1, 3]]), np.linalg.det(y[[0, 1, 2]])])
    total = float(vols.sum())
    if all(_same_sign(total, s) for s in vols):
        return [0, 1, 2, 3], vols / total
    return _best_face(y, [m for m in range(4) if not _same_sign(total, vols[m])],
                      _s2d)


def _best_face(y, dropped, solve):
    """Closest of the faces of y opposite each vertex in `dropped`."""
    best = None
    for m in dropped:
        face = [r for r in range(len(y)) if r != m]
        idx, lam = solve(y[face])
        v = lam @ y[face][idx]
        dist = float(v @ v)
        if best is None or dist < best[0]:
            best = (dist, [face[r] for r in idx], lam)
    return best[1], best[2]


_SUBALGORITHM = {2: _s1d, 3: _s2d, 4: _s3d}


def _gjk(support_i, support_j, v, dim: int) -> ClosestPair:
    """GJK on the Minkowski difference A - B, starting from direction v.

    Witnesses are the simplex's barycentric weights applied to the support
    points of each shape.
    """
    if not v.any():
        v = np.eye(3)[0]
    a, b = support_i(-v), support_j(v)
    pts_i, pts_j, lam = a[None], b[None], np.ones(1)
    v = a - b
    converged = enclosed = False
    for _ in range(MAX_ITER):
        a, b = support_i(-v), support_j(v)
        vv = float(v @ v)
        if vv - float(v @ (a - b)) <= REL_TOL * vv:
            converged = True
            break
        pts_i, pts_j = np.vstack([pts_i, a]), np.vstack([pts_j, b])
        y = pts_i - pts_j
        keep, lam = _SUBALGORITHM[len(y)](y)
        pts_i, pts_j, y = pts_i[keep], pts_j[keep], y[keep]
        v_new = lam @ y
        size = float(np.max(np.einsum("ij,ij->i", y, y)))
        if len(keep) == dim + 1 or float(v_new @ v_new) <= TOUCH_TOL**2 * size:
            converged = enclosed = True
            break
        if float(v_new @ v_new) >= vv:
            converged = True  # no further decrease in floating point
            break
        v = v_new
    p_i, p_j = lam @ pts_i, lam @ pts_j
    distance = 0.0 if enclosed else float(np.linalg.norm(p_i - p_j))
    return ClosestPair(p_i[:dim], p_j[:dim], distance, converged)


def _support3(sq: Superquadric):
    """Support map in 3D coordinates; 2D shapes live in the z = 0 plane."""
    support = support_map(sq)
    if sq.dim == 3:
        return support
    return lambda d: np.append(support(d[:2]), 0.0)


def _lift(x: np.ndarray) -> np.ndarray:
    return x if x.shape[0] == 3 else np.append(x, 0.0)


def closest_pair(sq_i: Superquadric, sq_j: Superquadric) -> ClosestPair:
    """Closest points between two superquadrics (GJK)."""
    if sq_i.dim != sq_j.dim:
        raise ValueError("shapes must have the same dimension")
    return _gjk(_support3(sq_i), _support3(sq_j),
                _lift(sq_i.center - sq_j.center), sq_i.dim)


def overlaps(sq_i: Superquadric, sq_j: Superquadric,
             pair: ClosestPair | None = None) -> bool:
    """True when the shapes touch or interpenetrate.

    Exact on the GJK distance, which is 0 whenever the Minkowski difference
    encloses the origin, containment included. A closest pair already
    computed for (sq_i, sq_j) may be passed in.
    """
    if pair is None:
        pair = closest_pair(sq_i, sq_j)
    return pair.distance <= OVERLAP_TOL


def point_distance(point, sq: Superquadric):
    """Closest shape point to a world point and the distance to it.

    GJK against the point, whose support map is the point itself. A point
    inside the shape reports distance 0 and itself as the closest point.
    """
    q = _lift(np.asarray(point, dtype=float))
    pair = _gjk(_support3(sq), lambda d: q, _lift(sq.center) - q, sq.dim)
    return pair.p_i, pair.distance


def pair_lower_bound(sq_i: Superquadric, sq_j: Superquadric) -> float:
    """Cheap lower bound on surface distance from bounding spheres."""
    c = float(np.linalg.norm(sq_i.center - sq_j.center))
    return c - sq_i.bounding_radius() - sq_j.bounding_radius()


def batch_closest_pairs(shapes: list[Superquadric], prune_above: float | None = None):
    """Closest pairs over all index pairs, as {(i, j): ClosestPair} with i < j.

    When prune_above is set, pairs whose bounding-sphere lower bound exceeds
    it are skipped. The result is independent of evaluation order.
    """
    out = {}
    n = len(shapes)
    for i in range(n):
        for j in range(i + 1, n):
            if prune_above is not None and pair_lower_bound(shapes[i], shapes[j]) > prune_above:
                continue
            out[(i, j)] = closest_pair(shapes[i], shapes[j])
    return out
