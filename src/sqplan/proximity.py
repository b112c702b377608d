"""Minimum-distance queries between superquadrics.

Every shape is convex (eps in [0.1, 2]) and has a closed-form support map, so
the distance between two shapes is the distance from the origin to their
Minkowski difference, found by GJK (Gilbert, Johnson & Keerthi, IEEE J. Robot.
Autom. 1988). `closest_pair_arrays` advances a whole batch of pairs, given
as a pair stack of shape arrays (`geometry.ShapeArrays`), at once: each
iteration evaluates every active pair's support points in one array pass and
runs Johnson's distance subalgorithm, in closed form, for all of them. GJK
converges only linearly on smooth shapes (Montaut et al., RSS 2022), so a
full solve also takes Newton steps on the separating normal once it is
close, in the same support call, and stops on a certified gap between the
best lower and upper bounds that either method has seen. Solves with a
tolerance, a threshold or an upper bound are plain GJK. The result,
`PairArrays`, is the one form in which every caller reads batched GJK;
`closest_pair` is its front end for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# surface_point is not used here; perfbench's traced run patches this name
from .geometry import (ShapeArrays, Superquadric, stack_pairs,  # noqa: F401
                       support_points, surface_point)

MAX_ITER = 100
REL_TOL = 1e-12      # duality gap: stop when |v|^2 - v.w <= REL_TOL * |v|^2
TOUCH_TOL = 1e-12    # |v| below TOUCH_TOL * simplex size counts as enclosed
OVERLAP_TOL = 1e-9   # distances (m) at or below this count as touching
POLISH_GAP = 0.1     # a full solve adds Newton steps below this relative gap
NEWTON_TOL = REL_TOL / 16  # the gap rule while Newton steps run
FD_STEP = 1e-7       # finite-difference step (rad) of the Newton Jacobian
BEFORE_NEWTON, NEWTON, AFTER_NEWTON = 0, 1, 2  # a polished pair's phases


@dataclass
class ClosestPair:
    """Closest points between two shapes and their distance.

    Overlapping shapes report distance 0 with a point of the overlap as
    both witnesses. `converged` is False only when the iteration cap was hit.
    `iterations` is the GJK iteration in which the pair stopped.
    """

    p_i: np.ndarray
    p_j: np.ndarray
    distance: float
    converged: bool
    iterations: int


class PairArrays(NamedTuple):
    """Batched GJK's result, arrays over the pairs: the witness points on
    each side, the distance, whether the solve converged, the GJK iteration
    in which it stopped, its certified lower bound on the distance if a
    threshold or a bound retired it, NaN otherwise, and how many of its
    iterations also took a Newton step (only full solves take any)."""

    p_i: np.ndarray
    p_j: np.ndarray
    distance: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    lower_bound: np.ndarray
    newton_steps: np.ndarray


# Faces of the simplex [w, y1, y2, y3] that contain the newest support point w
# (slot 0), as slot lists padded with slot 0: the vertex, the segments
# (w, y_k), the triangles (w, y_j, y_k) and the tetrahedron. _PAD marks the
# padding; _REAL[c] the faces made of real slots when c old points are real.
_FACES = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0], [0, 3, 0, 0],
                   [0, 1, 2, 0], [0, 1, 3, 0], [0, 2, 3, 0], [0, 1, 2, 3]])
_FACE_SIZE = np.array([1, 2, 2, 2, 3, 3, 3, 4])
_PAD = np.arange(4) >= _FACE_SIZE[:, None]
_REAL = _FACES.max(axis=1) <= np.arange(4)[:, None]
_J, _K = np.array([1, 1, 2]), np.array([2, 3, 3])  # the triangles' edge pairs
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _dot(x, y):
    """Sum over the last axis of x * y, one component after another."""
    xy = x * y
    out = xy[..., 0]
    for c in range(1, xy.shape[-1]):
        out = out + xy[..., c]
    return out


def _cross(x, y):
    """x cross y; for 2D vectors its z component, kept as a (..., 1) axis."""
    if x.shape[-1] == 2:
        return x[..., :1] * y[..., 1:] - x[..., 1:] * y[..., :1]
    return x[..., _NEXT] * y[..., _PREV] - x[..., _PREV] * y[..., _NEXT]


def _combine(lam, pts):
    """Sum over the 4 slots k of lam[..., k] * pts[..., k, :]."""
    t = lam[..., None] * pts
    return t[..., 0, :] + t[..., 1, :] + t[..., 2, :] + t[..., 3, :]


def _nearest_face(y, count):
    """Johnson's distance subalgorithm over the faces that contain y[:, 0].

    y is (m, 4, dim): the newest support point w, then the previous simplex,
    of which `count` points are real. In exact arithmetic the closest point
    of the new simplex lies on a face containing w. Each face's projection
    of the origin is solved in closed form from the edges e_k = y_k - w and
    triple products with the normals e_j x e_k; a face counts when all its
    weights are positive, and the nearest such point wins, ties to the lower
    face. Returns the face index, its weights, its point v and |v|^2.
    """
    m = len(y)
    z = y - y[:, :1]
    z[:, 0] = y[:, 0]                                        # w, then e_1..e_3
    dots = _dot(z[:, :, None], z[:, None, :])                # (m, 4, 4)
    crosses = _cross(z[:, :, None], z[:, None, :])           # (m, 4, 4, 1 or 3)
    # degenerate segments and triangles divide by NaN: NaN weights fail every test
    ee, n = np.diagonal(dots, 0, 1, 2)[:, 1:], crosses[:, _J, _K]  # triangle normals
    u = dots[:, 0, 1:] / -np.where(ee > 0.0, ee, np.nan)     # segments
    nn = _dot(n, n)
    nn = np.where(nn > 0.0, nn, np.nan)
    l_j, l_k = _dot(n, crosses[:, _K, 0]) / nn, _dot(n, crosses[:, 0, _J]) / nn
    weights = np.zeros((m, 8, 4))
    weights[:, 0, 0] = 1.0
    weights[:, 1:4, 0], weights[:, 1:4, 1] = 1.0 - u, u
    weights[:, 4:7, 0], weights[:, 4:7, 1], weights[:, 4:7, 2] = 1.0 - l_j - l_k, l_j, l_k
    if np.count_nonzero(count == 3):                         # tetrahedron
        det = _dot(z[:, 1], n[:, 2])
        mu = _dot(n, z[:, :1])[:, ::-1] / np.where(det != 0.0, det, np.nan)[:, None]
        weights[:, 7, 1:] = mu * [-1.0, 1.0, -1.0]
        weights[:, 7, 0] = 1.0 - weights[:, 7, 1] - weights[:, 7, 2] - weights[:, 7, 3]
    v = _combine(weights, y[:, _FACES])                      # (m, 8, dim)
    dist = _dot(v, v)
    dist[~(_REAL[count] & ((weights > 0.0) | _PAD).all(axis=2))] = np.inf
    face, rows = dist.argmin(axis=1), np.arange(m)
    return face, weights[rows, face], v[rows, face], dist[rows, face]


def _tangents(n):
    """(dim - 1, m, dim) orthonormal tangents of the unit normals n (m, dim)."""
    if n.shape[-1] == 2:
        return np.stack([-n[:, 1], n[:, 0]], axis=-1)[None]
    e = _cross(n, np.eye(3)[np.abs(n).argmin(axis=1)])    # |e| >= sqrt(2/3)
    e = e / np.sqrt(_dot(e, e))[:, None]
    return np.stack([e, _cross(n, e)])


def _newton_normals(n, tangents, x):
    """One Newton step towards x(n) parallel to n, for unit normals n (m, dim).

    x is (dim, m, dim): the Minkowski difference's support points x(n) and
    x(n + h e_c) for the tangents e_c, h = FD_STEP. With n(t) along
    n + sum_c t_c e_c, x(n(t)) is parallel to n(t) where
    g(t) = E^T x(n(t)) - t (n . x(n(t))) vanishes; the step solves
    J t = -g(0) in closed form (1x1 or 2x2), J by forward differences.
    Returns the new unit normals and whether each step is taken: a step
    with a singular J or a component |t_c| > 1 is not (and moves nothing).
    """
    g = _dot(tangents, x[0])                                 # (dim - 1, m)
    jac = (_dot(tangents[:, None], x[None, 1:]) - g[:, None]) / FD_STEP  # [c, j]
    for c in range(len(g)):
        jac[c, c] -= _dot(n, x[1 + c])
    if len(g) == 1:
        det, num = jac[0, 0], -g
    else:
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        num = np.stack([jac[0, 1] * g[1] - jac[1, 1] * g[0],
                        jac[1, 0] * g[0] - jac[0, 0] * g[1]])
    ok = (det != 0.0) & (np.abs(num) <= np.abs(det)).all(axis=0)
    t = np.where(ok, num / np.where(ok, det, 1.0), 0.0)
    m = n + (t[..., None] * tangents).sum(axis=0)
    return m / np.sqrt(_dot(m, m))[:, None], ok


def closest_pair_arrays(pairs: ShapeArrays, tol: float = 0.0,
                        threshold: float | None = None,
                        upper: float | None = None) -> PairArrays:
    """GJK on a pair stack of posed shapes, all pairs together.

    pairs stacks the shapes with leading axes (2, n): [0] holds the i side
    of every pair, [1] the j side (see `geometry.ShapeArrays`). GJK runs on
    each Minkowski difference A - B from the direction between the centres.
    A pair leaves the batch when a stop rule fires: the duality gap
    |v|^2 - v.w closes to max(REL_TOL |v|^2, tol |v|), the simplex encloses
    the origin (dim + 1 vertices, or |v| below TOUCH_TOL times the simplex
    size), |v| stops decreasing, or MAX_ITER is reached (then `converged` is
    False). Witnesses are the simplex's weights applied to each shape's
    support points. Every step is elementwise per pair, so a pair's result
    is bitwise the same in any batch.

    A full solve (tol = 0, no threshold, no upper bound) is polished by
    Newton's method on the unit normal n. With x(n) = s_A(-n) - s_B(n) the
    support point of A - B along -n, n.x(n) bounds the distance from below
    and |x(n)| from above; the two meet where x(n) is parallel to n. The
    pair keeps lb, the greatest lower bound seen (v.w / |v| or n.x(n)), and
    ub, the least of |v| and the |x(n)| seen, and also stops when
    ub - lb <= REL_TOL ub. Once ub - lb < POLISH_GAP ub, each iteration
    also takes a Newton step on n (`_newton_normals`), starting from v's
    direction, whose dim support directions ride in GJK's support call;
    meanwhile the rule tightens to NEWTON_TOL, which sharpens the normal.
    GJK goes on alongside, so no pair takes more iterations than GJK alone.
    A step whose point does not shrink |x(n)| - n.x(n) ends the pair's
    Newton steps. The witnesses are the support points of the Newton point
    of least |x(n)| where it is nearer than the simplex's.

    A pair stopped by a gap within tol reports a witness distance d with
    d - tol <= distance <= d, since v.w / |v| bounds the distance from
    below (van den Bergen, J. Graphics Tools 1999).

    A threshold turns the solve into a threshold query: a pair also leaves
    once its distance is decided against the threshold, because the lower
    bound v.w / |v| is above it or because |v| is at or below it. Such a
    pair reports its witness distance, so `distance <= threshold` gives the
    full solve's answer, and its certified lower bound (clipped to
    [0, distance]) in `lower_bound`. In an iteration where a rule above also
    fires, that rule wins, so a pair that the threshold does not retire
    keeps the plain GJK solve's result bit for bit. threshold = None
    retires no pair.

    An upper bound turns the solve into a search for the batch's least
    distance. The batch keeps a running bound U, which starts at `upper`
    and each iteration falls to the least |v| of the active pairs and the
    least witness distance of the finished ones; all of these are
    distances between points of the two shapes. A pair whose lower bound
    v.w / |v| is above U - tol leaves like a threshold-retired pair, with
    its witness distance and its certified `lower_bound`. The stop rules
    win here too, so the pair that holds U finishes by one of them, and a
    pair that the bound does not retire keeps the plain GJK solve's result
    bit for bit. When `upper` is at least the batch's least distance plus
    tol (np.inf, say), the least reported distance is within tol of it, up
    to rounding. upper = None retires no pair.
    """
    pos = pairs.pos
    n, dim = pos.shape[1], pos.shape[-1]
    # each pair's witnesses, distance and flags, by pair index
    witnesses, distance = np.empty((2, n, dim)), np.empty(n)
    converged, iterations, lower = np.zeros(n, bool), np.full(n, MAX_ITER), np.full(n, np.nan)
    steps = np.zeros(n, int)
    if not n:  # as the diagram of fewer than two obstacles asks
        return PairArrays(witnesses[0], witnesses[1], distance, converged, iterations, lower,
                          steps)
    shape = [pairs.rot, pos, pairs.axes, pairs.q]
    sign = np.array([-1.0, 1.0])[:, None, None]  # A along -v, B along v
    v = pos[0] - pos[1]
    v[~v.any(axis=1), 0] = 1.0
    ab = support_points(*shape, sign * v)
    simplex = np.repeat(ab[:, :, None], 4, axis=2)           # (2, m, 4 slots, dim)
    lam = np.eye(4)[np.zeros(n, int)]                        # all weight on slot 0
    ids, count, v = np.arange(n), np.ones(n, int), ab[0] - ab[1]
    bound = np.inf if upper is None else upper
    polish = not tol and threshold is None and upper is None
    if polish:
        # the certificate: the greatest lower bound seen, and the Newton
        # point of least |x| (GJK's own best point is its current v); then
        # each pair's Newton phase, normal and last Newton point's gap
        lb, ub, best = np.zeros(n), np.full(n, np.inf), np.empty((2, n, dim))
        phase, normal, own = np.full(n, BEFORE_NEWTON), np.empty((n, dim)), np.full(n, np.inf)

    def finish(rows, simplex, lam, enclosed, done, it):
        nonlocal bound
        k = ids[rows]
        p = _combine(lam[rows], simplex[:, rows])
        d = np.where(enclosed, 0.0, np.sqrt(_dot(p[0] - p[1], p[0] - p[1])))
        if polish:  # or the Newton point of least |x|, where it is nearer
            closer = ub[rows] < d
            p[:, closer], d[closer] = best[:, rows][:, closer], ub[rows][closer]
        witnesses[:, k], distance[k] = p, d
        converged[k], iterations[k] = done, it
        bound = min(bound, d.min())

    for it in range(1, MAX_ITER + 1):
        newton = np.flatnonzero(phase == NEWTON) if polish else []
        if len(newton):  # n and its tangent steps join GJK's direction in one call
            steps[ids[newton]] += 1
            tangents = _tangents(normal[newton])
            d = np.repeat(v[None], dim + 1, axis=0)
            d[1:, newton] = normal[newton]
            d[2:, newton] += FD_STEP * tangents
            ab = support_points(*(s[:, None] for s in shape), sign[:, None] * d)
            ab, x = ab[:, 0], ab[:, 1:, newton]
        else:
            ab = support_points(*shape, sign * v)
        vv = _dot(v, v)
        norm = np.sqrt(vv)
        limit = REL_TOL * vv
        if tol:
            limit = np.maximum(limit, tol * norm)
        vw = _dot(v, ab[0] - ab[1])
        gap = vv - vw <= limit
        if polish:
            lb = np.maximum(lb, vw / np.where(norm > 0.0, norm, 1.0))
            if len(newton):
                xn = x[0] - x[1]                                 # (dim, k, dim)
                nx, r = _dot(normal[newton], xn[0]), np.sqrt(_dot(xn[0], xn[0]))
                lb[newton] = np.maximum(lb[newton], nx)
                closer = r < ub[newton]
                ub[newton[closer]], best[:, newton[closer]] = r[closer], x[:, 0, closer]
            least = np.minimum(ub, norm)
            gap |= least - lb <= np.where(phase == NEWTON, NEWTON_TOL, REL_TOL) * least
        new = np.concatenate([ab[:, :, None], simplex[:, :, :3]], axis=2)
        y = new[0] - new[1]
        face, new_lam, new_v, new_vv = _nearest_face(y, count)
        rows, slots = np.arange(len(v))[:, None], _FACES[face]
        new_simplex = new[:, rows, slots]
        enclosed = ~gap & ((_FACE_SIZE[face] == dim + 1)
                           | (new_vv <= TOUCH_TOL**2 * _dot(y, y)[rows, slots].max(axis=1)))
        stop = ~gap & (enclosed | (new_vv >= vv))  # or no decrease in floating point
        decided = np.zeros(len(v), bool)
        if threshold is not None:
            decided |= (vw > threshold * norm) | (norm <= threshold)
        if upper is not None:
            bound = min(bound, norm.min(initial=np.inf))
            decided |= vw > (bound - tol) * norm
        decided &= ~(gap | stop)
        if len(newton):  # a step that does not shrink |x| - n.x ends the phase
            normal[newton], taken = _newton_normals(normal[newton], tangents, xn)
            phase[newton[~taken | (r - nx >= own[newton])]] = AFTER_NEWTON
            own[newton] = r - nx
        if polish:
            least = np.minimum(ub, np.sqrt(new_vv))
            switch = (phase == BEFORE_NEWTON) & (least - lb < POLISH_GAP * least) & ~stop
            normal[switch] = new_v[switch] / np.sqrt(new_vv[switch])[:, None]
            phase[switch] = NEWTON
        n_gap, n_stop = np.count_nonzero(gap), np.count_nonzero(stop)
        n_decided = np.count_nonzero(decided)
        if n_gap:  # a pair stopped by the duality gap keeps its previous simplex
            finish(gap, simplex, lam, False, True, it)
        if n_stop:
            finish(stop, new_simplex, new_lam, enclosed[stop], True, it)
        if n_decided:  # so does a pair retired by the threshold or the bound
            finish(decided, simplex, lam, False, True, it)
            lower[ids[decided]] = np.maximum(vw[decided] / norm[decided], 0.0)
        if n_gap + n_stop + n_decided == len(v):
            break
        if n_gap + n_stop + n_decided:
            go = ~(gap | stop | decided)
            ids, new_v, new_lam, face = ids[go], new_v[go], new_lam[go], face[go]
            new_simplex, shape = new_simplex[:, go], [s[:, go] for s in shape]
            if polish:
                lb, ub, best = lb[go], ub[go], best[:, go]
                phase, normal, own = phase[go], normal[go], own[go]
        v, simplex, lam, count = new_v, new_simplex, new_lam, _FACE_SIZE[face]
    else:
        finish(np.ones(len(ids), bool), simplex, lam, False, False, MAX_ITER)
    return PairArrays(witnesses[0], witnesses[1], distance, converged, iterations,
                      np.minimum(lower, distance), steps)


def closest_pair(sq_i: Superquadric, sq_j: Superquadric) -> ClosestPair:
    """Closest points between two superquadrics; see `closest_pair_arrays`."""
    p_i, p_j, distance, converged, iterations, *_ = closest_pair_arrays(
        stack_pairs([sq_i], [sq_j]))
    return ClosestPair(p_i[0], p_j[0], float(distance[0]), bool(converged[0]),
                       int(iterations[0]))


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
