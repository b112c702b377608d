"""Voronoi-style diagram over superquadric obstacles.

Proximity runs in two batched GJK calls. The first decides, for every two
expanded obstacles, whether they overlap (a threshold query against
OVERLAP_TOL); overlapping obstacles are grouped into clusters. The second
solves in full only the cross-cluster pairs that can still be the closest
pair of their two clusters. One maximum-margin separating hyperplane is
computed per cluster pair from its closest cross pair, and each cluster's
cell is the world box clipped by its halfspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Superquadric, expand
from .polytope import (
    EmptyIntersectionError,
    GEOM_TOL,
    box_polygon,
    box_polyhedron,
    clip_polygon,
    clip_polyhedron,
    compact_polyhedron,
    polyhedron_edges,
)
# closest_pair is not used here; perfbench's traced run patches this name
from .proximity import (ClosestPair, OVERLAP_TOL, closest_pair,  # noqa: F401
                        closest_pairs, overlaps)


class ClusterInconsistencyError(RuntimeError):
    pass


@dataclass
class Cluster:
    id: int
    members: list[int]


@dataclass
class Hyperplane:
    """Maximum-margin bisector between two clusters.

    The halfspace {x : normal . x >= offset} is the side of cluster_i.
    """

    normal: np.ndarray
    offset: float
    cluster_i: int
    cluster_j: int
    witness_i: np.ndarray
    witness_j: np.ndarray

    @property
    def witness_distance(self) -> float:
        return float(np.linalg.norm(self.witness_i - self.witness_j))

    def oriented(self, cluster_id: int):
        """(normal, offset) of the kept halfspace for the given cluster."""
        if cluster_id == self.cluster_i:
            return self.normal, self.offset
        if cluster_id == self.cluster_j:
            return -self.normal, -self.offset
        raise ValueError(f"cluster {cluster_id} is not a source of this hyperplane")


@dataclass
class PolytopeCell:
    """Convex cell of one cluster: polygon (2D) or polyhedron (3D)."""

    cluster_id: int
    vertices: np.ndarray                       # (V, dim)
    edges: list[tuple[int, int, list[int]]]    # (u, v, adjacent tags)
    faces: list[tuple[list[int], int]] | None  # 3D only: (loop, tag)
    halfspaces: list[tuple[np.ndarray, float, int]]  # (normal, offset, tag)

    def contains(self, points, tol=GEOM_TOL) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for n, b, _ in self.halfspaces:
            ok &= pts @ n >= b - tol
        return ok


@dataclass
class Diagram:
    dim: int
    world_lo: np.ndarray
    world_hi: np.ndarray
    robot: Superquadric
    obstacles: list[Superquadric]
    expanded: list[Superquadric]
    clusters: list[Cluster]
    hyperplanes: list[Hyperplane]
    cells: list[PolytopeCell]
    nonconverged: int  # GJK solves, in either pass, that hit the iteration cap
    pairs: int  # obstacle pairs in the first pass
    threshold_decided: int  # of those, retired by the overlap threshold
    full_solves: int  # second-pass full solves of cross-cluster pairs
    gjk_iterations: int  # summed over both passes


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def all_pairs(shapes: list[Superquadric]) -> dict[tuple[int, int], ClosestPair]:
    """Every two shapes i < j, keyed (i, j), from one GJK threshold query.

    Each pair's distance is decided against OVERLAP_TOL, so `overlaps` on
    these records answers as on a full solve; a pair retired by the
    threshold carries a lower bound instead of its exact distance.
    """
    return _solve(shapes, [(i, j) for i in range(len(shapes))
                           for j in range(i + 1, len(shapes))], OVERLAP_TOL)


def _solve(shapes, keys, threshold=None) -> dict[tuple[int, int], ClosestPair]:
    return dict(zip(keys, closest_pairs([shapes[i] for i, _ in keys],
                                        [shapes[j] for _, j in keys], threshold)))


def closest_candidates(clusters: list[Cluster],
                       pairs: dict[tuple[int, int], ClosestPair]) -> list[tuple[int, int]]:
    """Cross-cluster pairs that need a full solve to find each cluster
    pair's closest pair.

    These are the pairs a threshold retired whose lower bound does not
    exceed the least witness distance of their cluster pair. Every other
    cross pair is either solved in full already or provably farther than
    that witness distance.
    """
    label = {i: c.id for c in clusters for i in c.members}
    cross = {(i, j): tuple(sorted((label[i], label[j]))) for i, j in pairs
             if label[i] != label[j]}
    least: dict[tuple[int, int], float] = {}
    for key, sides in cross.items():
        least[sides] = min(least.get(sides, math.inf), pairs[key].distance)
    return [key for key, sides in cross.items() if pairs[key].lower_bound is not None
            and pairs[key].lower_bound <= least[sides]]


def build_clusters(expanded_obstacles: list[Superquadric],
                   pairs: dict[tuple[int, int], ClosestPair]) -> list[Cluster]:
    """Connected components of the pairwise overlap relation.

    `pairs` holds every two obstacles, each at least decided against
    OVERLAP_TOL (see `all_pairs`); the pairs that `overlaps` reports are
    joined. Cluster ids are assigned by lowest member index.
    """
    shapes = expanded_obstacles
    uf = _UnionFind(len(shapes))
    for (i, j), pair in pairs.items():
        if overlaps(shapes[i], shapes[j], pair):
            uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(len(shapes)):
        groups.setdefault(uf.find(i), []).append(i)
    return [Cluster(cid, sorted(members))
            for cid, (_, members) in enumerate(sorted(groups.items()))]


def separating_hyperplane(ci: Cluster, cj: Cluster, shapes: list[Superquadric],
                          pairs: dict[tuple[int, int], ClosestPair]) -> Hyperplane:
    """Maximum-margin hyperplane between two clusters.

    The witness pair is the minimum-distance cross pair of `pairs`; ties go to
    the first cross pair in member order.
    """
    if ci.id == cj.id:
        raise ValueError("clusters must be distinct")
    cross = [(min(i, j), max(i, j)) for i in ci.members for j in cj.members]
    best_key = min(cross, key=lambda key: pairs[key].distance)
    best = pairs[best_key]
    if best.distance <= OVERLAP_TOL:
        raise ClusterInconsistencyError(
            f"clusters {ci.id} and {cj.id} touch (witness distance {best.distance:.3e}); "
            "they should have been merged"
        )
    # orient the witnesses so p_i lies on cluster ci
    p_i, p_j = ((best.p_i, best.p_j) if best_key[0] in ci.members
                else (best.p_j, best.p_i))
    n = (p_i - p_j) / best.distance
    mid = 0.5 * (p_i + p_j)
    return Hyperplane(n, float(n @ mid), ci.id, cj.id, p_i, p_j)


def build_cell(ci: Cluster, planes: list[Hyperplane], world_lo, world_hi,
               dim: int) -> PolytopeCell:
    """World box clipped by every halfspace of the cluster.

    `planes` is the diagram's whole hyperplane list; the planes that do not
    bound this cluster are skipped. Halfspaces, edges and faces are tagged
    with their plane's index in `planes` (box walls with negative tags), and
    halfspaces that do not change the cell are pruned from its generating set.
    """
    lo = np.asarray(world_lo, dtype=float)
    hi = np.asarray(world_hi, dtype=float)
    scale = float(np.linalg.norm(hi - lo))
    tol = max(GEOM_TOL, 1e-12 * scale)
    oriented = [(*hp.oriented(ci.id), k) for k, hp in enumerate(planes)
                if ci.id in (hp.cluster_i, hp.cluster_j)]

    # polygon tags are per edge, polyhedron faces (vertex loop, tag) pairs
    verts, parts = box_polygon(lo, hi) if dim == 2 else box_polyhedron(lo, hi)
    clip = clip_polygon if dim == 2 else clip_polyhedron
    kept = []
    for n, b, k in oriented:
        new_v, new_p, changed = clip(verts, parts, n, b, k, tol)
        if new_v is None:
            raise EmptyIntersectionError(
                f"cell of cluster {ci.id} vanished; hyperplane orientation is wrong")
        if changed:
            kept.append((n, b, k))
        verts, parts = new_v, new_p
    if dim == 2:
        m = len(verts)
        edges = [(u, (u + 1) % m, [parts[u]]) for u in range(m)]
        faces, used = None, set(parts)
    else:
        verts, faces = compact_polyhedron(verts, parts)
        edges = [(u, v, tags) for (u, v), tags in sorted(polyhedron_edges(faces).items())]
        used = {t for _, t in faces}
    half = [(n, float(b), k) for n, b, k in kept if k in used]
    _add_box_halfspaces(half, lo, hi, dim)
    return PolytopeCell(ci.id, verts, edges, faces, half)


def _add_box_halfspaces(half, lo, hi, dim):
    for axis in range(dim):
        n = np.zeros(dim)
        n[axis] = 1.0
        half.append((n.copy(), float(lo[axis]), -1 - 2 * axis))
        half.append((-n, float(-hi[axis]), -2 - 2 * axis))


def build_diagram(robot: Superquadric, obstacles: list[Superquadric],
                  world_lo, world_hi) -> Diagram:
    """Full pipeline: expand, cluster, closest cross pairs, hyperplanes, cells.

    The first GJK call decides every obstacle pair against OVERLAP_TOL
    (`all_pairs`) and its overlaps form the clusters. The second solves the
    `closest_candidates` in full (it is empty when they are). Hyperplanes
    come only from full solves, so the diagram is the one that solving every
    pair in full gives.
    """
    dim = robot.dim
    if any(o.dim != dim for o in obstacles):
        raise ValueError("robot and obstacles must share a dimension")
    margin = float(robot.axes[0])
    grown = [expand(o, margin) for o in obstacles]
    pairs = all_pairs(grown)
    clusters = build_clusters(grown, pairs)
    first = list(pairs.values())
    full = _solve(grown, closest_candidates(clusters, pairs))
    pairs.update(full)
    solves = first + list(full.values())
    hyperplanes = [separating_hyperplane(ci, cj, grown, pairs)
                   for a, ci in enumerate(clusters) for cj in clusters[a + 1:]]
    cells = [build_cell(cl, hyperplanes, world_lo, world_hi, dim) for cl in clusters]
    lo = np.asarray(world_lo, dtype=float)
    hi = np.asarray(world_hi, dtype=float)
    return Diagram(dim, lo, hi, robot, list(obstacles), grown, clusters, hyperplanes, cells,
                   nonconverged=sum(not pr.converged for pr in solves),
                   pairs=len(first),
                   threshold_decided=sum(pr.lower_bound is not None for pr in first),
                   full_solves=len(full),
                   gjk_iterations=sum(pr.iterations for pr in solves))


def diagram_to_dict(diagram: Diagram) -> dict:
    """JSON-serializable debug geometry (cells and hyperplanes)."""
    def tag_name(t):
        return f"hp:{t}" if t >= 0 else f"box:{-1 - t}"

    cells = []
    for cell in diagram.cells:
        cells.append({
            "cluster": cell.cluster_id,
            "vertices": cell.vertices.tolist(),
            "edges": [[u, v, [tag_name(t) for t in tags]] for u, v, tags in cell.edges],
            "faces": None if cell.faces is None else
                     [{"loop": loop, "tag": tag_name(t)} for loop, t in cell.faces],
        })
    return {
        "dim": diagram.dim,
        "world": {"min": diagram.world_lo.tolist(), "max": diagram.world_hi.tolist()},
        "clusters": [{"id": c.id, "members": c.members} for c in diagram.clusters],
        "hyperplanes": [{
            "normal": hp.normal.tolist(),
            "offset": hp.offset,
            "clusters": [hp.cluster_i, hp.cluster_j],
            "witness_i": hp.witness_i.tolist(),
            "witness_j": hp.witness_j.tolist(),
        } for hp in diagram.hyperplanes],
        "cells": cells,
        "nonconverged": diagram.nonconverged,
        "pairs": diagram.pairs,
        "threshold_decided": diagram.threshold_decided,
        "full_solves": diagram.full_solves,
        "gjk_iterations": diagram.gjk_iterations,
    }
