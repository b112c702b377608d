"""Voronoi-style diagram over superquadric obstacles.

Proximity runs in two batched GJK calls (`proximity.closest_pair_arrays`) on
the expanded obstacles, stacked once as arrays. The first decides, for every
two of them, whether they overlap (a threshold query against OVERLAP_TOL);
a union-find over the overlapping pairs groups them into clusters. The
second solves in full only the cross-cluster pairs that can still be the
closest pair of their two clusters. One maximum-margin separating hyperplane
is computed per cluster pair from its closest cross pair, and each cluster's
cell is the world box clipped by its halfspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Superquadric, expand, stack_shapes
from .polytope import (
    GEOM_TOL,
    box_polygon,
    box_polyhedron,
    clip_polygon,
    clip_polyhedron,
    polyhedron_edges,
)
# closest_pair and overlaps are not used here; perfbench's traced run patches
# these names
from .proximity import (OVERLAP_TOL, closest_pair, closest_pair_arrays,  # noqa: F401
                        overlaps)


class ClusterInconsistencyError(RuntimeError):
    pass


class EmptyIntersectionError(RuntimeError):
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

    @cached_property
    def witness_distance(self) -> float:
        """Gap between the two witnesses, computed once: `poses` reads it
        for every bisector face of every path edge of every plan."""
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


@dataclass
class Diagram:
    dim: int
    world_lo: np.ndarray
    world_hi: np.ndarray
    expanded: list[Superquadric]
    clusters: list[Cluster]
    hyperplanes: list[Hyperplane]
    cells: list[PolytopeCell]
    nonconverged: int  # GJK solves, in either pass, that hit the iteration cap
    pairs: int  # obstacle pairs in the first pass
    threshold_decided: int  # of those, retired by the overlap threshold
    full_solves: int  # second-pass full solves of cross-cluster pairs
    gjk_iterations: int  # summed over both passes
    newton_steps: int  # of those iterations, the ones that also took a Newton step


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


def build_clusters(n: int, pairs: np.ndarray, distance: np.ndarray) -> list[Cluster]:
    """Connected components of the pairwise overlap relation over n shapes.

    `pairs` is (2, m), two shape indices per column, and `distance` their
    GJK distances, each at least decided against OVERLAP_TOL; the pairs at
    or below it are joined. Cluster ids are assigned by lowest member index.
    """
    uf = _UnionFind(n)
    for i, j in pairs[:, distance <= OVERLAP_TOL].T.tolist():
        uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [Cluster(cid, members) for cid, (_, members) in enumerate(sorted(groups.items()))]


def separating_hyperplane(ci: Cluster, cj: Cluster, p_i: np.ndarray, p_j: np.ndarray,
                          distance: float) -> Hyperplane:
    """Maximum-margin hyperplane between two clusters: the bisector of the
    witness points p_i on ci and p_j on cj, `distance` apart, of their
    closest cross pair."""
    if ci.id == cj.id:
        raise ValueError("clusters must be distinct")
    if distance <= OVERLAP_TOL:
        raise ClusterInconsistencyError(
            f"clusters {ci.id} and {cj.id} touch (witness distance {distance:.3e}); "
            "they should have been merged"
        )
    n = (p_i - p_j) / distance
    mid = 0.5 * (p_i + p_j)
    return Hyperplane(n, float(n @ mid), ci.id, cj.id, p_i, p_j)


def build_cell(ci: Cluster, planes: list[Hyperplane], world_lo, world_hi,
               dim: int) -> PolytopeCell:
    """World box clipped by every halfspace of the cluster.

    `planes` is the diagram's whole hyperplane list; the planes that do not
    bound this cluster are skipped. Edges and faces are tagged with their
    plane's index in `planes` (box walls with negative tags).
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
    for n, b, k in oriented:
        verts, parts, _ = clip(verts, parts, n, b, k, tol)
        if verts is None:
            raise EmptyIntersectionError(
                f"cell of cluster {ci.id} vanished; hyperplane orientation is wrong")
    if dim == 2:
        m = len(verts)
        edges = [(u, (u + 1) % m, [parts[u]]) for u in range(m)]
        return PolytopeCell(ci.id, verts, edges, None)
    edges = [(u, v, tags) for (u, v), tags in sorted(polyhedron_edges(parts).items())]
    return PolytopeCell(ci.id, verts, edges, parts)


def build_diagram(robot: Superquadric, obstacles: list[Superquadric],
                  world_lo, world_hi) -> Diagram:
    """Full pipeline: expand, cluster, closest cross pairs, hyperplanes, cells.

    The grown obstacles are stacked once. The first GJK call decides every
    two of them against OVERLAP_TOL, and its overlaps form the clusters. A
    cross pair that the threshold retired can be the closest pair of its
    two clusters only when its lower bound is at most their least witness
    distance; the second call solves just those in full (no call when there
    are none). Each cluster pair's hyperplane comes from its cross pair of
    least distance, ties to the first in member order (over the first
    cluster's members, then the second's). That pair was solved in full, so
    the diagram is the one that solving every pair in full gives.
    """
    dim = robot.dim
    if any(o.dim != dim for o in obstacles):
        raise ValueError("robot and obstacles must share a dimension")
    margin = float(robot.axes[0])
    grown = [expand(o, margin) for o in obstacles]
    shapes = stack_shapes(grown)
    index = np.arange(len(grown))
    pairs = np.array(np.nonzero(index[:, None] < index))  # every i < j, in row order
    first = closest_pair_arrays(shapes.take(pairs), threshold=OVERLAP_TOL)
    solves = [first]
    clusters = build_clusters(len(grown), pairs, first.distance)
    label = {i: c.id for c in clusters for i in c.members}
    rows_i = pairs[0].tolist()
    # each cluster pair's cross pairs: (row, shape on the lower cluster, other shape)
    cross: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for row, (i, j) in enumerate(zip(rows_i, pairs[1].tolist())):
        if label[i] != label[j]:
            a, b = (i, j) if label[i] < label[j] else (j, i)
            cross.setdefault((label[a], label[b]), []).append((row, a, b))
    distance, lower = first.distance.tolist(), first.lower_bound.tolist()
    full = []
    for rows in cross.values():
        least = min(distance[row] for row, _, _ in rows)
        full += [row for row, _, _ in rows if lower[row] <= least]  # False for NaN
    if full:
        solves.append(closest_pair_arrays(shapes.take(pairs[:, full])))
        for x, y in zip(first[:3], solves[1][:3]):  # witnesses and distances
            x[full] = y
        distance = first.distance.tolist()
    hyperplanes = []
    for (ci, cj), rows in sorted(cross.items()):
        row, a, _ = min(rows, key=lambda t: (distance[t[0]], t[1], t[2]))
        p_i, p_j = first.p_i[row], first.p_j[row]
        if a != rows_i[row]:  # the witnesses follow the pair's order, i < j
            p_i, p_j = p_j, p_i
        hyperplanes.append(separating_hyperplane(clusters[ci], clusters[cj], p_i, p_j,
                                                 distance[row]))
    cells = [build_cell(cl, hyperplanes, world_lo, world_hi, dim) for cl in clusters]
    lo = np.asarray(world_lo, dtype=float)
    hi = np.asarray(world_hi, dtype=float)
    return Diagram(dim, lo, hi, grown, clusters, hyperplanes, cells,
                   nonconverged=sum(int(np.count_nonzero(~s.converged)) for s in solves),
                   pairs=pairs.shape[1],
                   threshold_decided=int(np.count_nonzero(~np.isnan(first.lower_bound))),
                   full_solves=len(full),
                   gjk_iterations=sum(int(s.iterations.sum()) for s in solves),
                   newton_steps=sum(int(s.newton_steps.sum()) for s in solves))


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
        **solve_counters(diagram),
    }


def solve_counters(diagram: Diagram) -> dict:
    """The diagram's GJK work: pairs decided, full solves, iterations,
    Newton steps and non-converged solves."""
    return {key: getattr(diagram, key) for key in (
        "nonconverged", "pairs", "threshold_decided", "full_solves", "gjk_iterations",
        "newton_steps")}
