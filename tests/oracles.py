"""Reference implementations for the tests.

`exact_distances` solves every (pose, obstacle) pair with a full GJK solve.
`sampled_collides` is the sampled validator that trajectory validation used
before the certified engine: it tests surface samples and centres of the
posed robot and of each obstacle against the other's implicit function, so
it can miss a contact between samples. `reference_fit_lwr` is the LWR fit
before its cached map: finite differences in the demonstration's own times
and three residual passes over (N, P) arrays. `segment_clear` is the
roadmap's edge test one segment at a time, and `reference_build_graph` the
roadmap build that calls it once per candidate edge, in insertion order.
`per_edge_project_terminal` projects a terminal with one point-segment
distance per live edge. Both write a `DictGraph`, the mutable roadmap the
read-only `RoadmapGraph` replaced: a projection tombstones the edge it splits.
`closest_pairs` is batched GJK on two lists of shapes, and `pair_records`
lists its arrays as one `PairRecord` per pair,
and `reference_diagram` is the precompute on those records, keyed (i, j) in
dicts, before it worked on the arrays. `plain_closest_pair_arrays` is
batched GJK without the Newton polish of full solves, as it was before it.
`cell_contains` tests points against every diagram hyperplane that bounds a
cell's cluster and against the world box. `block_kernel` holds the maps of
BLOCK steps of the rollout's linear RK4 step map, which a block scan applies
as two matmuls per block.
`hat` and `reference_exp_so3` are Rodrigues' formula on one rotation
vector, as `rotations.exp_so3` computed it before it became the one-row
case of `exp_so3_batch`.
`with_pose` moves a shape to another pose, and `robot_pose_at` poses the
robot at one waypoint through a `RigidPose`: the reference that
`poses.robot_rotations` is compared against.
`reference_clip_polyhedron` is the polyhedron clip that closed its cut face
by walking a boundary graph: the on-plane vertex pairs of the kept faces
that appear once, chained into a loop (`chain_loop`) and oriented by its
Newell normal (`newell_normal`).
`load_bench_scenes` imports perfbench's scene definitions.
"""

import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

from sqplan.clearance import AUDIT_TOL, trajectory_collides
from sqplan.dmp import ALPHA_X, ALPHA_Z, BETA_Z, DMPModel, _basis
from sqplan.geometry import (RigidPose, Superquadric, box_gaps, expand, inside_outside,
                             inside_outside_local, stack_pairs, stack_shapes,
                             support_points, surface_samples)
from sqplan.polytope import GEOM_TOL
from sqplan.poses import _AXIS_CONVENTION, robot_rotations
from sqplan.proximity import (_FACE_SIZE, _FACES, MAX_ITER, OVERLAP_TOL, REL_TOL,
                              TOUCH_TOL, ClosestPair, PairArrays, _combine, _dot,
                              _nearest_face, closest_pair_arrays, overlaps)
from sqplan.roadmap import EDGE_SAMPLES, INSIDE_TOL, MERGE_TOL, _point_segment
from sqplan.rotations import exp_so3, log_so3
from sqplan.voronoi import (Cluster, ClusterInconsistencyError, Hyperplane, _UnionFind,
                            build_cell)


def closest_pairs(shapes_i, shapes_j, threshold=None) -> PairArrays:
    """Closest points between shapes_i[k] and shapes_j[k], for every k: the
    full solve, or a threshold query, of `closest_pair_arrays` on their pair
    stack."""
    return closest_pair_arrays(stack_pairs(shapes_i, shapes_j), threshold=threshold)


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix such that hat(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def reference_exp_so3(rotvec: np.ndarray) -> np.ndarray:
    """Rotation matrix of one rotation vector by Rodrigues' formula, scalar."""
    v = np.asarray(rotvec, dtype=float)
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        k = hat(v)
        return np.eye(3) + k + 0.5 * (k @ k)
    k = hat(v / theta)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def with_pose(shape: Superquadric, pose: RigidPose) -> Superquadric:
    """The shape at another pose."""
    return Superquadric(shape.eps, shape.axes, pose)


def robot_pose_at(robot: Superquadric, position, orientation) -> Superquadric:
    """Robot posed at a waypoint: longest axis along travel, shortest on the normal."""
    orientation = np.atleast_1d(np.asarray(orientation, dtype=float))
    if robot.dim == 2:
        theta = orientation[0] - np.pi / 2.0  # local long axis is +y
        pose = RigidPose.create(position, theta)
    else:
        r = exp_so3(orientation) @ _AXIS_CONVENTION
        pose = RigidPose.create(position, log_so3(r))
    return with_pose(robot, pose)


def exact_distances(trajectory, robot, obstacles):
    """(poses, obstacles) distances, one full GJK solve per pair."""
    posed = [robot_pose_at(robot, p, o)
             for p, o in zip(trajectory.positions, trajectory.orientations)]
    pairs = closest_pairs([shape for shape in posed for _ in obstacles],
                          [obs for _ in posed for obs in obstacles])
    return pairs.distance.reshape(len(posed), -1)


@dataclass
class PairRecord(ClosestPair):
    """One pair of a batched GJK result; `lower_bound` is None unless a
    threshold retired the pair."""

    lower_bound: float | None = None
    newton_steps: int = 0


def pair_records(shapes_i, shapes_j, threshold=None) -> list[PairRecord]:
    """`closest_pairs(shapes_i, shapes_j, threshold)` as one record per pair."""
    return records_of(closest_pairs(shapes_i, shapes_j, threshold))


def plain_pair_records(shapes_i, shapes_j, threshold=None) -> list[PairRecord]:
    """`pair_records` by `plain_closest_pair_arrays`, without the polish."""
    return records_of(plain_closest_pair_arrays(stack_pairs(shapes_i, shapes_j),
                                                threshold=threshold))


def records_of(result) -> list[PairRecord]:
    """A `PairArrays` as one record per pair."""
    lower = [None if math.isnan(b) else b for b in result.lower_bound.tolist()]
    return [PairRecord(*pair) for pair in zip(
        result.p_i, result.p_j, result.distance.tolist(), result.converged.tolist(),
        result.iterations.tolist(), lower, result.newton_steps.tolist())]


def plain_closest_pair_arrays(pairs, tol=0.0, threshold=None, upper=None) -> PairArrays:
    """`proximity.closest_pair_arrays` without the Newton polish: every solve
    is GJK to the duality gap |v|^2 - v.w <= max(REL_TOL |v|^2, tol |v|),
    and its witnesses are the last simplex's. Solves with tol > 0, a
    threshold or an upper bound are this kernel's bit for bit."""
    pos = pairs.pos
    n, dim = pos.shape[1], pos.shape[-1]
    witnesses, distance = np.empty((2, n, dim)), np.empty(n)
    converged, iterations, lower = np.zeros(n, bool), np.full(n, MAX_ITER), np.full(n, np.nan)
    if not n:
        return PairArrays(witnesses[0], witnesses[1], distance, converged, iterations, lower,
                          np.zeros(n, int))
    shape = [pairs.rot, pos, pairs.axes, pairs.q]
    sign = np.array([-1.0, 1.0])[:, None, None]
    v = pos[0] - pos[1]
    v[~v.any(axis=1), 0] = 1.0
    ab = support_points(*shape, sign * v)
    simplex = np.repeat(ab[:, :, None], 4, axis=2)
    lam = np.eye(4)[np.zeros(n, int)]
    ids, count, v = np.arange(n), np.ones(n, int), ab[0] - ab[1]
    bound = np.inf if upper is None else upper

    def finish(rows, simplex, lam, enclosed, done, it):
        nonlocal bound
        k = ids[rows]
        p = _combine(lam[rows], simplex[:, rows])
        d = np.where(enclosed, 0.0, np.sqrt(_dot(p[0] - p[1], p[0] - p[1])))
        witnesses[:, k], distance[k] = p, d
        converged[k], iterations[k] = done, it
        bound = min(bound, d.min())

    for it in range(1, MAX_ITER + 1):
        ab = support_points(*shape, sign * v)
        vv = _dot(v, v)
        norm = np.sqrt(vv)
        limit = REL_TOL * vv
        if tol:
            limit = np.maximum(limit, tol * norm)
        vw = _dot(v, ab[0] - ab[1])
        gap = vv - vw <= limit
        new = np.concatenate([ab[:, :, None], simplex[:, :, :3]], axis=2)
        y = new[0] - new[1]
        face, new_lam, new_v, new_vv = _nearest_face(y, count)
        rows, slots = np.arange(len(v))[:, None], _FACES[face]
        new_simplex = new[:, rows, slots]
        enclosed = ~gap & ((_FACE_SIZE[face] == dim + 1)
                           | (new_vv <= TOUCH_TOL**2 * _dot(y, y)[rows, slots].max(axis=1)))
        stop = ~gap & (enclosed | (new_vv >= vv))
        decided = np.zeros(len(v), bool)
        if threshold is not None:
            decided |= (vw > threshold * norm) | (norm <= threshold)
        if upper is not None:
            bound = min(bound, norm.min(initial=np.inf))
            decided |= vw > (bound - tol) * norm
        decided &= ~(gap | stop)
        n_gap, n_stop = np.count_nonzero(gap), np.count_nonzero(stop)
        n_decided = np.count_nonzero(decided)
        if n_gap:
            finish(gap, simplex, lam, False, True, it)
        if n_stop:
            finish(stop, new_simplex, new_lam, enclosed[stop], True, it)
        if n_decided:
            finish(decided, simplex, lam, False, True, it)
            lower[ids[decided]] = np.maximum(vw[decided] / norm[decided], 0.0)
        if n_gap + n_stop + n_decided == len(v):
            break
        if n_gap + n_stop + n_decided:
            go = ~(gap | stop | decided)
            ids, new_v, new_lam, face = ids[go], new_v[go], new_lam[go], face[go]
            new_simplex, shape = new_simplex[:, go], [x[:, go] for x in shape]
        v, simplex, lam, count = new_v, new_simplex, new_lam, _FACE_SIZE[face]
    else:
        finish(np.ones(len(ids), bool), simplex, lam, False, False, MAX_ITER)
    return PairArrays(witnesses[0], witnesses[1], distance, converged, iterations,
                      np.minimum(lower, distance), np.zeros(n, int))


def reference_diagram(robot, obstacles, world_lo, world_hi, threshold=OVERLAP_TOL):
    """`voronoi.build_diagram` on PairRecords in dicts keyed (i, j): every
    pair decided against the threshold (threshold None: solved in full) in
    one call, clusters joined pair by pair with `overlaps`, a full solve of
    the retired cross pairs whose lower bound is at most their cluster
    pair's least witness distance, and each hyperplane from the least of
    its cross pairs in member order. Returns the clusters, hyperplanes,
    cells and the six GJK work counters of `voronoi.Diagram`."""
    grown = [expand(o, float(robot.axes[0])) for o in obstacles]

    def solve(keys, threshold=None):
        return dict(zip(keys, pair_records([grown[i] for i, _ in keys],
                                           [grown[j] for _, j in keys], threshold)))

    pairs = solve([(i, j) for i in range(len(grown)) for j in range(i + 1, len(grown))],
                  threshold)
    uf = _UnionFind(len(grown))
    for (i, j), pair in pairs.items():
        if overlaps(grown[i], grown[j], pair):
            uf.union(i, j)
    groups = {}
    for i in range(len(grown)):
        groups.setdefault(uf.find(i), []).append(i)
    clusters = [Cluster(cid, sorted(members))
                for cid, (_, members) in enumerate(sorted(groups.items()))]
    label = {i: c.id for c in clusters for i in c.members}
    cross = {(i, j): tuple(sorted((label[i], label[j]))) for i, j in pairs
             if label[i] != label[j]}
    least = {}
    for key, sides in cross.items():
        least[sides] = min(least.get(sides, math.inf), pairs[key].distance)
    first = list(pairs.values())
    full = solve([key for key, sides in cross.items() if pairs[key].lower_bound is not None
                  and pairs[key].lower_bound <= least[sides]])
    pairs.update(full)
    hyperplanes = []
    for a, ci in enumerate(clusters):
        for cj in clusters[a + 1:]:
            keys = [(min(i, j), max(i, j)) for i in ci.members for j in cj.members]
            best_key = min(keys, key=lambda key: pairs[key].distance)
            best = pairs[best_key]
            if best.distance <= OVERLAP_TOL:
                raise ClusterInconsistencyError(f"clusters {ci.id} and {cj.id} touch")
            p_i, p_j = ((best.p_i, best.p_j) if best_key[0] in ci.members
                        else (best.p_j, best.p_i))
            n = (p_i - p_j) / best.distance
            hyperplanes.append(Hyperplane(n, float(n @ (0.5 * (p_i + p_j))), ci.id, cj.id,
                                          p_i, p_j))
    cells = [build_cell(c, hyperplanes, world_lo, world_hi, robot.dim) for c in clusters]
    solves = first + list(full.values())
    counters = {"nonconverged": sum(not pr.converged for pr in solves),
                "pairs": len(first),
                "threshold_decided": sum(pr.lower_bound is not None for pr in first),
                "full_solves": len(full),
                "gjk_iterations": sum(pr.iterations for pr in solves),
                "newton_steps": sum(pr.newton_steps for pr in solves)}
    return clusters, hyperplanes, cells, counters


def cell_contains(diagram, k, points, tol=GEOM_TOL):
    """bool[...]: which points lie in cell k of the diagram, within tol: on
    the kept side of every diagram hyperplane that bounds the cell's cluster,
    and in the world box."""
    pts = np.asarray(points, dtype=float)
    cid = diagram.cells[k].cluster_id
    ok = np.all((pts >= diagram.world_lo - tol) & (pts <= diagram.world_hi + tol), axis=-1)
    for hp in diagram.hyperplanes:
        if cid in (hp.cluster_i, hp.cluster_j):
            n, b = hp.oriented(cid)
            ok &= pts @ n >= b - tol
    return ok


def check_decision(trajectory, robot, obstacles):
    """trajectory_collides against the exact minimum distance d: contact when
    d is 0, clear when d is above the audit's tolerance AUDIT_TOL * r (r the
    robot's bounding radius); either answer is certified-conservative in
    between. Returns (decision, d)."""
    got = trajectory_collides(trajectory, robot, obstacles)
    d = float(exact_distances(trajectory, robot, obstacles).min())
    if d <= 0.0:
        assert got, d
    elif d > AUDIT_TOL * robot.bounding_radius():
        assert not got, d
    return got, d


def _in_box(axes, local):
    """Mask of (..., dim) shape-frame points inside the box of semi-axes,
    with a relative slack that keeps every point whose rounded values could
    still reach implicit <= 0."""
    return np.all(np.abs(local) <= axes * (1.0 + 1e-9), axis=-1)


def sampled_collides(trajectory, robot, obstacles):
    """The sampled validator: contact when a robot surface sample or centre
    lies inside an obstacle, or an obstacle sample or centre inside the
    robot (implicit function <= 0), tested at the poses within the robot's
    bounding radius r of an obstacle's box."""
    dim = robot.dim
    res = 64 if dim == 2 else 16
    near = (box_gaps(trajectory.positions, stack_shapes(obstacles))
            <= robot.bounding_radius() * (1.0 + 1e-9))
    body = np.vstack([surface_samples(with_pose(robot, RigidPose.create(np.zeros(dim))), res),
                      np.zeros(dim)])
    for o, n in zip(obstacles, near):
        if not n.any():
            continue
        pos = trajectory.positions[n]
        rot = robot_rotations(dim, trajectory.orientations[n])
        world = body @ np.swapaxes(rot, 1, 2) + pos[:, None, :]
        pts = world[_in_box(o.axes, o.pose.inverse_transform(world))]
        if np.any(inside_outside(o, pts) <= 0.0):
            return True
        opts = np.vstack([surface_samples(o, res), o.center])
        local = (opts - pos[:, None, :]) @ rot
        local = local[_in_box(robot.axes, local)]
        if np.any(inside_outside_local(local, robot.axes, robot.eps) <= 0.0):
            return True
    return False


def reference_fit_lwr(demo, p):
    """Forcing-term weights by per-basis weighted least squares, every step
    on the (N, P) sample arrays."""
    t = demo.times
    duration = float(t[-1])
    y = np.hstack([demo.positions, demo.orientations])
    u_start, u_goal = y[0].copy(), y[-1].copy()
    yd = np.gradient(y, t, axis=0, edge_order=2)
    ydd = np.gradient(yd, t, axis=0, edge_order=2)
    # transformation system tau*z' = az*(bz*(g - y) - z) + f with z = tau*y'
    f_target = duration**2 * ydd - ALPHA_Z * (BETA_Z * (u_goal - y) - duration * yd)
    x = np.exp(-ALPHA_X * t / duration)
    centers, widths = _basis(p)
    psi = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)
    interior = slice(2, -2) if len(t) > 8 else slice(None)
    forcing_scale = u_goal - u_start
    amplitude = np.max(y, axis=0) - np.min(y, axis=0)
    degenerate = np.abs(forcing_scale) < 1e-12
    forcing_scale[degenerate] = amplitude[degenerate]
    psi_i = psi[interior]
    psi_sum = np.sum(psi_i, axis=1)[:, None]
    xi = x[interior, None] * forcing_scale
    target = f_target[interior]
    den = psi_i.T @ (xi * xi) + 1e-12
    weights = np.zeros((p, y.shape[1]))
    residual = target
    for _ in range(3):
        weights += (psi_i.T @ (xi * residual)) / den
        residual = target - (psi_i @ weights) / psi_sum * xi
    weights[:, np.abs(forcing_scale) < 1e-12] = 0.0
    return DMPModel(weights.T.copy(), duration, u_start, u_goal, demo.dim, forcing_scale)


BLOCK = 64  # RK4 steps per block of the block scan


def block_kernel(p, b):
    """Maps of b steps of s <- P s + d, in channel-major layout.

    After j steps from s with increments d_0..d_{j-1} the state is
    P^j s + sum_{c<j} P^(j-1-c) d_c. Returns the powers, (2, b, 2) with
    [i, r, j] = P^(r+1)[i, j], and the lower block-triangular kernel,
    (2, b, 2, b) with [i, r, j, c] = P^(r-c)[i, j] for r >= c and zero above
    the diagonal; row (i, r) is component i of the state after r + 1 steps.
    """
    powers = np.empty((b + 1, 2, 2))
    powers[0] = np.eye(2)
    powers[1] = p
    n = 1
    while n < b:  # doubling: P^(n+1)..P^(2n) from P^1..P^n
        m = min(n, b - n)
        powers[n + 1:n + 1 + m] = powers[1:1 + m] @ powers[n]
        n += m
    # [i, j, t] = P^(b-1-t)[i, j], zero for t >= b; window q + c is lag r - c
    # at q = b - 1 - r
    lags = np.concatenate([powers[b - 1::-1], np.zeros((b - 1, 2, 2))]).transpose(1, 2, 0)
    kernel = sliding_window_view(lags, b, axis=-1)[:, :, ::-1].transpose(0, 2, 1, 3)
    return powers[1:].transpose(1, 0, 2).copy(), np.ascontiguousarray(kernel)


def segment_clear(a, b, expanded) -> bool:
    """True when no interior sample of segment a-b is strictly inside any shape."""
    ts = np.arange(1, EDGE_SAMPLES + 1) / (EDGE_SAMPLES + 1.0)
    pts = a + ts[:, None] * (b - a)
    seg_r = 0.5 * np.linalg.norm(b - a)
    mid = 0.5 * (a + b)
    for sq in expanded:
        if np.linalg.norm(sq.center - mid) > seg_r + sq.bounding_radius():
            continue
        if np.any(inside_outside(sq, pts) < -INSIDE_TOL):
            return False
    return True


@dataclass
class DictEdge:
    u: int
    v: int
    weight: float
    kind: str
    faces: list = field(default_factory=list)  # hyperplane ids


class DictGraph:
    """Node and edge lists with a dict-of-dicts adjacency; a removed edge
    stays in the list and only leaves the adjacency."""

    def __init__(self):
        self.nodes, self.node_kinds, self.edges, self.adjacency = [], [], [], {}
        self.segments_decided = self.segments_rejected = self.bridges_added = 0

    @classmethod
    def of(cls, graph):
        """A mutable copy of a RoadmapGraph."""
        g = cls()
        for p, kind in zip(graph.nodes, graph.node_kinds):
            g.add_node(p, kind)
        for e in graph.live_edges():
            g.add_edge(e.u, e.v, e.kind, list(e.faces))
        g.segments_decided, g.segments_rejected, g.bridges_added = (
            graph.segments_decided, graph.segments_rejected, graph.bridges_added)
        return g

    def add_node(self, point, kind):
        self.nodes.append(np.asarray(point, dtype=float))
        self.node_kinds.append(kind)
        self.adjacency[len(self.nodes) - 1] = {}
        return len(self.nodes) - 1

    def add_edge(self, u, v, kind, faces=None):
        if u == v or v in self.adjacency[u]:
            return None
        w = float(np.linalg.norm(self.nodes[u] - self.nodes[v]))
        self.edges.append(DictEdge(u, v, w, kind, faces or []))
        k = len(self.edges) - 1
        self.adjacency[u][v] = k
        self.adjacency[v][u] = k
        return k

    def remove_edge(self, k):
        e = self.edges[k]
        self.adjacency[e.u].pop(e.v, None)
        self.adjacency[e.v].pop(e.u, None)

    def edge_between(self, u, v):
        k = self.adjacency[u].get(v)
        return None if k is None else self.edges[k]

    def live_edges(self):
        seen = set()
        for nbrs in self.adjacency.values():
            seen.update(nbrs.values())
        return [self.edges[k] for k in sorted(seen)]


def reference_build_graph(diagram, h):
    """The roadmap build with one `segment_clear` call per candidate edge:
    a cell edge is tested when no edge joins its nodes yet (again after a
    rejection), a bridge when the k-d tree pair is not yet adjacent. The
    counts are the calls, the rejections and the bridges added."""
    graph = DictGraph()
    all_pts = []
    offsets = []
    for cell in diagram.cells:
        offsets.append(len(all_pts))
        all_pts.extend(cell.vertices)
    if not all_pts:
        return graph
    pts = np.array(all_pts)
    uf = _UnionFind(len(pts))
    for i, j in sorted(cKDTree(pts).query_pairs(MERGE_TOL)):
        uf.union(i, j)
    node_of = {}
    for i in range(len(pts)):
        r = uf.find(i)
        if r not in node_of:
            node_of[r] = graph.add_node(pts[r], "cell")

    def clear(a, b):
        graph.segments_decided += 1
        ok = segment_clear(a, b, diagram.expanded)
        graph.segments_rejected += not ok
        return ok

    for off, cell in zip(offsets, diagram.cells):
        for u, v, tags in cell.edges:
            nu, nv = node_of[uf.find(off + u)], node_of[uf.find(off + v)]
            if nu == nv:
                continue
            faces = [t for t in sorted(set(tags)) if t >= 0]
            existing = graph.edge_between(nu, nv)
            if existing is not None:
                existing.faces.extend(t for t in faces if t not in existing.faces)
                continue
            if clear(graph.nodes[nu], graph.nodes[nv]):
                graph.add_edge(nu, nv, "cell", faces)

    node_pts = np.array(graph.nodes)
    if len(node_pts) > 1 and h > 0.0:
        for i, j in sorted(cKDTree(node_pts).query_pairs(h)):
            if j not in graph.adjacency[i] and clear(node_pts[i], node_pts[j]):
                graph.add_edge(i, j, "bridge")
                graph.bridges_added += 1
    return graph


def per_edge_project_terminal(point, graph):
    """Insert the terminal into the DictGraph; returns its node id. One
    point-segment distance per live edge that is not a stub, in a Python
    loop keeping the first minimum; the split edge is tombstoned."""
    q = np.asarray(point, dtype=float)
    live = [(k, e) for k, e in enumerate(graph.edges)
            if e.kind != "stub" and graph.adjacency[e.u].get(e.v) == k]
    dists = [np.linalg.norm(graph.nodes[i] - q) for i in range(len(graph.nodes))]
    nearest = int(np.argmin(dists))
    if dists[nearest] <= MERGE_TOL:
        return nearest
    best = None
    for k, e in live:
        t, p, d = _point_segment(q, graph.nodes[e.u], graph.nodes[e.v])
        if best is None or d < best[0]:
            best = (d, k, t, p)
    d, k, t, p = best
    e = graph.edges[k]
    if np.linalg.norm(p - graph.nodes[e.u]) <= MERGE_TOL:
        proj = e.u
    elif np.linalg.norm(p - graph.nodes[e.v]) <= MERGE_TOL:
        proj = e.v
    else:
        proj = graph.add_node(p, "projection")
        graph.remove_edge(k)
        graph.add_edge(e.u, proj, e.kind, list(e.faces))
        graph.add_edge(proj, e.v, e.kind, list(e.faces))
    if d <= MERGE_TOL:
        return proj
    term = graph.add_node(q, "terminal")
    graph.add_edge(term, proj, "stub")
    return term


def newell_normal(pts):
    """Newell's normal of a polygon loop: its area vector, along the normal
    the loop turns counter-clockwise about."""
    n = np.zeros(3)
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        n += np.cross(a, b)
    return n


def chain_loop(edges):
    """The cycle of undirected edges, from its least vertex towards that
    vertex's first neighbour."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) != 2 for nb in adj.values()):
        raise RuntimeError("cut boundary does not form a simple cycle")
    start = min(adj)
    loop = [start, adj[start][0]]
    while True:
        prev, cur = loop[-2], loop[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        loop.append(nxt)
        if len(loop) > len(edges):
            raise RuntimeError("cut boundary walk did not close")
    return loop


def reference_clip_polyhedron(vertices, faces, n, b, hp_tag, tol=GEOM_TOL):
    """`polytope.clip_polyhedron` with the cut face closed by a boundary
    walk: the consecutive on-plane vertex pairs of the kept faces that
    appear once, chained into a loop and reversed when its Newell normal
    points along n. Its early returns test every vertex, unused ones too."""
    verts = [np.asarray(v, dtype=float) for v in vertices]
    s = np.array([v @ n - b for v in verts])
    snap = np.abs(s) <= tol
    for i in np.flatnonzero(snap):
        verts[i] = verts[i] - s[i] * n
        s[i] = 0.0
    if np.all(s >= 0.0):
        return verts, [(list(loop), t) for loop, t in faces], False
    if np.all(s <= 0.0):
        return None, None, True

    cut_cache: dict[tuple[int, int], int] = {}

    def cut_point(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in cut_cache:
            t = s[i] / (s[i] - s[j])
            verts.append(verts[i] + t * (verts[j] - verts[i]))
            cut_cache[key] = len(verts) - 1
        return cut_cache[key]

    on_plane = {int(i) for i in np.flatnonzero(s == 0.0)}
    new_faces = []
    boundary_pairs: list[tuple[int, int]] = []
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
            flags = [x in on_plane or x in cut_cache.values() for x in dedup]
            for k in range(len(dedup)):
                if flags[k] and flags[(k + 1) % len(dedup)]:
                    boundary_pairs.append((dedup[k], dedup[(k + 1) % len(dedup)]))

    # edges appearing once bound the cut region; shared on-plane edges do not
    count: dict[tuple[int, int], int] = {}
    for u, v in boundary_pairs:
        key = (u, v) if u < v else (v, u)
        count[key] = count.get(key, 0) + 1
    ring = [key for key, c in count.items() if c == 1]
    if ring:
        cut_loop = chain_loop(ring)
        if newell_normal([verts[i] for i in cut_loop]) @ n > 0.0:
            cut_loop.reverse()
        new_faces.append((cut_loop, hp_tag))
    return verts, new_faces, True


def load_bench_scenes():
    """perfbench/scenes.py as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
