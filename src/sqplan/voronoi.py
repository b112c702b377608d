"""Voronoi-style diagram over superquadric obstacles.

Expanded obstacles are grouped into clusters by overlap, one maximum-margin
separating hyperplane is computed per cluster pair from the closest witness
points, and each cluster's cell is the world box clipped by its halfspaces.
"""

from __future__ import annotations

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
from .proximity import (ClosestPair, OVERLAP_TOL, closest_pair, overlaps,
                        pair_lower_bound)


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


def build_clusters(expanded_obstacles: list[Superquadric],
                   pairs: dict[tuple[int, int], ClosestPair] | None = None) -> list[Cluster]:
    """Connected components of the pairwise overlap relation.

    Cluster ids are assigned by lowest member index. Every pair that the
    bounding spheres do not prune gets an exact closest-pair solve; when a
    `pairs` map is supplied, its entries are reused and new solves are
    cached in it.
    """
    n = len(expanded_obstacles)
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if pairs is not None and (i, j) in pairs:
                pr = pairs[(i, j)]
            elif pair_lower_bound(expanded_obstacles[i], expanded_obstacles[j]) > 0.0:
                continue
            else:
                pr = closest_pair(expanded_obstacles[i], expanded_obstacles[j])
                if pairs is not None:
                    pairs[(i, j)] = pr
            if overlaps(expanded_obstacles[i], expanded_obstacles[j], pr):
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [Cluster(cid, sorted(members))
            for cid, (_, members) in enumerate(sorted(groups.items()))]


def separating_hyperplane(ci: Cluster, cj: Cluster, shapes: list[Superquadric],
                          pairs: dict[tuple[int, int], ClosestPair] | None = None) -> Hyperplane:
    """Maximum-margin hyperplane between two clusters.

    The witness pair is the minimum-distance pair over all member cross
    pairs. Cross pairs are visited in ascending order of a lower bound on
    their distance (the cached distance, else the bounding-sphere bound), and
    the search stops once that bound reaches the best distance found.
    """
    if ci.id == cj.id:
        raise ValueError("clusters must be distinct")
    pairs = {} if pairs is None else pairs
    cross = [(min(i, j), max(i, j)) for i in ci.members for j in cj.members]
    bounds = [pairs[key].distance if key in pairs
              else pair_lower_bound(shapes[key[0]], shapes[key[1]])
              for key in cross]
    best, best_key = None, None
    for k in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[k] >= best.distance:
            break
        key = cross[k]
        if key not in pairs:
            pairs[key] = closest_pair(shapes[key[0]], shapes[key[1]])
        if best is None or pairs[key].distance < best.distance:
            best, best_key = pairs[key], key
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

    Halfspaces that do not change the cell are pruned from its generating set.
    """
    lo = np.asarray(world_lo, dtype=float)
    hi = np.asarray(world_hi, dtype=float)
    scale = float(np.linalg.norm(hi - lo))
    tol = max(GEOM_TOL, 1e-12 * scale)
    oriented = []
    for k, hp in enumerate(planes):
        n, b = hp.oriented(ci.id)
        oriented.append((n, b, k))

    if dim == 2:
        verts, tags = box_polygon(lo, hi)
        kept = []
        for n, b, k in oriented:
            new_v, new_t, changed = clip_polygon(verts, tags, n, b, k, tol)
            if new_v is None:
                raise EmptyIntersectionError(
                    f"cell of cluster {ci.id} vanished; hyperplane orientation is wrong")
            if changed:
                kept.append((n, b, k))
            verts, tags = new_v, new_t
        m = len(verts)
        edges = [(u, (u + 1) % m, [tags[u]]) for u in range(m)]
        used = {t for t in tags}
        half = [(n, float(b), k) for n, b, k in kept if k in used]
        _add_box_halfspaces(half, lo, hi, 2)
        return PolytopeCell(ci.id, verts, edges, None, half)

    verts, faces = box_polyhedron(lo, hi)
    kept = []
    for n, b, k in oriented:
        new_v, new_f, changed = clip_polyhedron(verts, faces, n, b, k, tol)
        if new_v is None:
            raise EmptyIntersectionError(
                f"cell of cluster {ci.id} vanished; hyperplane orientation is wrong")
        if changed:
            kept.append((n, b, k))
        verts, faces = new_v, new_f
    varr, faces = compact_polyhedron(verts, faces)
    edge_map = polyhedron_edges(faces)
    edges = [(u, v, tags) for (u, v), tags in sorted(edge_map.items())]
    used = {t for _, t in faces}
    half = [(n, float(b), k) for n, b, k in kept if k in used]
    _add_box_halfspaces(half, lo, hi, 3)
    return PolytopeCell(ci.id, varr, edges, faces, half)


def _add_box_halfspaces(half, lo, hi, dim):
    for axis in range(dim):
        n = np.zeros(dim)
        n[axis] = 1.0
        half.append((n.copy(), float(lo[axis]), -1 - 2 * axis))
        half.append((-n, float(-hi[axis]), -2 - 2 * axis))


def build_diagram(robot: Superquadric, obstacles: list[Superquadric],
                  world_lo, world_hi) -> Diagram:
    """Full pipeline: expand, cluster, hyperplanes, cells."""
    dim = robot.dim
    if any(o.dim != dim for o in obstacles):
        raise ValueError("robot and obstacles must share a dimension")
    margin = float(robot.axes[0])
    grown = [expand(o, margin) for o in obstacles]
    pairs: dict[tuple[int, int], ClosestPair] = {}
    clusters = build_clusters(grown, pairs)
    hyperplanes = []
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            hyperplanes.append(
                separating_hyperplane(clusters[a], clusters[b], grown, pairs))
    cells = []
    for cl in clusters:
        involved = [hp for hp in hyperplanes if cl.id in (hp.cluster_i, hp.cluster_j)]
        cells.append(build_cell(cl, involved, world_lo, world_hi, dim))
    # remap per-cell halfspace/edge/face tags from local plane index to the
    # global hyperplane index so provenance is uniform across cells
    for cl, cell in zip(clusters, cells):
        involved_idx = [k for k, hp in enumerate(hyperplanes)
                        if cl.id in (hp.cluster_i, hp.cluster_j)]
        remap = {local: global_k for local, global_k in enumerate(involved_idx)}
        cell.halfspaces = [(n, b, remap.get(t, t)) for n, b, t in cell.halfspaces]
        cell.edges = [(u, v, [remap.get(t, t) for t in tags]) for u, v, tags in cell.edges]
        if cell.faces is not None:
            cell.faces = [(loop, remap.get(t, t)) for loop, t in cell.faces]
    lo = np.asarray(world_lo, dtype=float)
    hi = np.asarray(world_hi, dtype=float)
    return Diagram(dim, lo, hi, robot, list(obstacles), grown, clusters,
                   hyperplanes, cells)


def cell_of_point(diagram: Diagram, point) -> int | None:
    """Index of the first cell containing the point, or None (a hole)."""
    for k, cell in enumerate(diagram.cells):
        if bool(cell.contains(point)):
            return k
    return None


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
    }
