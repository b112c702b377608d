"""Weighted roadmap graph over Voronoi cell vertices and edges.

Cell edges provide the maximum-clearance skeleton; nearby vertices left by
the linear bisector approximation are bridged. Every edge is collision-checked
against the expanded obstacles so boundary edges cannot tunnel through
obstacles that touch the world box: `segments_clear` decides a batch of
segments at once, and a build decides its cell edges in one batch and its
bridge candidates in another. A cell edge names the bisector hyperplanes
of its faces by their ids in the diagram's list; their normals and witness
distances stay in the diagram. A built graph is read-only, so all queries of
a scene share it: `project_terminal` derives a query's graph from it by
dropping the split edge's row and appending the halves and the stub.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .geometry import inside_outside
from .voronoi import Diagram, _UnionFind

MERGE_TOL = 1e-7
EDGE_SAMPLES = 32
INSIDE_TOL = 1e-9


class Edge(NamedTuple):
    """One edge row of a RoadmapGraph."""

    u: int
    v: int
    weight: float
    kind: str  # "cell" | "bridge" | "stub"
    faces: tuple[int, ...]  # hyperplane ids of the adjacent bisector faces


@dataclass(frozen=True, eq=False)
class RoadmapGraph:
    """Node and edge rows. The arrays are not writeable, and kinds and
    faces are tuples; `create` builds a graph from plain rows."""

    nodes: np.ndarray  # (V, dim)
    node_kinds: tuple[str, ...]  # "cell" | "projection" | "terminal"
    edges: np.ndarray  # (E, 2) node ids
    weights: np.ndarray  # (E,) edge lengths
    edge_kinds: tuple[str, ...]
    edge_faces: tuple[tuple[int, ...], ...]
    # build_graph's tallies: segments decided and rejected, bridges added
    segments_decided: int = 0
    segments_rejected: int = 0
    bridges_added: int = 0

    def __post_init__(self):
        for a in (self.nodes, self.edges, self.weights):
            a.setflags(write=False)

    @classmethod
    def create(cls, nodes, node_kinds, edges, edge_kinds, edge_faces=None,
               **counts) -> RoadmapGraph:
        """Graph over copies of the given rows; each weight is its edge's length."""
        nodes = np.array(nodes, dtype=float)
        edges = np.array(edges, dtype=np.intp).reshape(-1, 2)
        faces = ((),) * len(edges) if edge_faces is None else tuple(map(tuple, edge_faces))
        return cls(nodes, tuple(node_kinds), edges, _lengths(nodes, edges), tuple(edge_kinds),
                   faces, **counts)

    @cached_property
    def csr(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Adjacency as (indptr, neighbours, edge ids), built on first use:
        row u lists u's neighbours in ascending id and the edge joining
        each. Tuples of ints, which Dijkstra's Python loop reads fastest."""
        src, dst = self.edges.ravel(), self.edges[:, ::-1].ravel()
        order = np.argsort(src * len(self.nodes) + dst)
        indptr = np.searchsorted(src[order], np.arange(len(self.nodes) + 1))
        return tuple(indptr.tolist()), tuple(dst[order].tolist()), tuple((order // 2).tolist())

    def edge(self, k: int) -> Edge:
        u, v = self.edges[k].tolist()
        return Edge(u, v, float(self.weights[k]), self.edge_kinds[k], self.edge_faces[k])

    def edge_between(self, u: int, v: int) -> Edge | None:
        indptr, neighbors, edge_ids = self.csr
        i = bisect_left(neighbors, v, indptr[u], indptr[u + 1])
        return self.edge(edge_ids[i]) if i < indptr[u + 1] and neighbors[i] == v else None

    def live_edges(self) -> list[Edge]:
        """Every edge row, in order."""
        return [self.edge(k) for k in range(len(self.edges))]


def _lengths(nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(E,) edge lengths, each the square root of a dot product as
    np.linalg.norm takes it: a vectorised norm can differ in the last bit
    and so flip a Dijkstra tie."""
    return np.array([math.sqrt(d.dot(d)) for d in nodes[edges[:, 0]] - nodes[edges[:, 1]]],
                    dtype=float)


def segments_clear(a, b, shapes, samples=EDGE_SAMPLES) -> np.ndarray:
    """bool[E]: True where no interior sample of segment a[k]-b[k] is
    strictly inside (below -INSIDE_TOL) any shape. A shape is tested only on
    the segments whose bounding sphere meets its own and that are still
    clear, all their samples in one pass per shape."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    clear = np.ones(len(a), dtype=bool)
    if len(a) == 0:
        return clear
    ts = np.arange(1, samples + 1) / (samples + 1.0)
    pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
    seg_r = 0.5 * np.linalg.norm(b - a, axis=1)
    mid = 0.5 * (a + b)
    for sq in shapes:
        near = np.flatnonzero(clear & (np.linalg.norm(sq.center - mid, axis=1)
                                       <= seg_r + sq.bounding_radius()))
        if len(near) == 0:
            continue
        f = inside_outside(sq, pts[near].reshape(-1, a.shape[1]))
        clear[near[np.any(f.reshape(len(near), samples) < -INSIDE_TOL, axis=1)]] = False
    return clear


def build_graph(diagram: Diagram, h: float) -> RoadmapGraph:
    """Roadmap from cell vertices/edges plus hole-bridging edges.

    Vertices within MERGE_TOL are merged; node pairs closer than h gain a
    bridging edge. Edges whose interior samples enter an expanded obstacle
    are rejected (cell edges along the world box can cross obstacles that
    touch the boundary; bridges must patch holes, not tunnel). Each distinct
    cell edge is decided once, all in one `segments_clear` call, and the
    edges are then inserted in cell order, repeats merging their bisector
    hyperplane ids into the first. Node pairs closer than h that the cell
    edges leave unjoined are decided in a second call. The graph counts the
    segments decided and rejected and the bridges added.
    """
    if h < 0.0:
        raise ValueError("bridging threshold must be non-negative")

    all_pts = []
    offsets = []
    for cell in diagram.cells:
        offsets.append(len(all_pts))
        all_pts.extend(cell.vertices)
    if not all_pts:
        return RoadmapGraph.create(np.empty((0, diagram.dim)), (), (), ())
    pts = np.array(all_pts)
    uf = _UnionFind(len(pts))
    for i, j in sorted(cKDTree(pts).query_pairs(MERGE_TOL)):
        uf.union(i, j)

    node_of: dict[int, int] = {}
    for i in range(len(pts)):
        node_of.setdefault(uf.find(i), len(node_of))
    node_pts = pts[list(node_of)]

    def decide(segs):
        segs = np.array(segs, dtype=int).reshape(-1, 2)
        return segs, segments_clear(node_pts[segs[:, 0]], node_pts[segs[:, 1]], diagram.expanded)

    # the first (nu, nv) of each unordered node pair is the segment decided;
    # every cell edge between the pair merges its bisector ids into it
    firsts = []
    faces = []
    pair_of: dict[tuple[int, int], int] = {}
    for off, cell in zip(offsets, diagram.cells):
        for u, v, tags in cell.edges:
            nu, nv = node_of[uf.find(off + u)], node_of[uf.find(off + v)]
            if nu == nv:
                continue
            key = (min(nu, nv), max(nu, nv))
            if key not in pair_of:
                pair_of[key] = len(firsts)
                firsts.append((nu, nv))
                faces.append([])
            merged = faces[pair_of[key]]
            merged.extend(int(t) for t in sorted(set(tags)) if t >= 0 and t not in merged)
    cells, clear = decide(firsts)
    bridges, ok = np.empty((0, 2), dtype=int), np.empty(0, dtype=bool)
    if len(node_pts) > 1 and h > 0.0:
        joined = {key for key, k in pair_of.items() if clear[k]}
        bridges, ok = decide([pair for pair in sorted(cKDTree(node_pts).query_pairs(h))
                              if pair not in joined])
    bridged = int(np.count_nonzero(ok))
    return RoadmapGraph.create(
        node_pts, ["cell"] * len(node_pts), np.concatenate([cells[clear], bridges[ok]]),
        ["cell"] * int(np.count_nonzero(clear)) + ["bridge"] * bridged,
        [f for f, c in zip(faces, clear) if c] + [()] * bridged,
        segments_decided=len(cells) + len(bridges),
        segments_rejected=int(np.count_nonzero(~clear) + np.count_nonzero(~ok)),
        bridges_added=bridged)


def _point_segment(q, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else min(max(float((q - a) @ ab / denom), 0.0), 1.0)
    p = a + t * ab
    return t, p, float(np.linalg.norm(q - p))


def project_terminal(point, graph: RoadmapGraph) -> tuple[RoadmapGraph, int]:
    """Project a terminal onto the graph; returns (query graph, its node id).

    The closest point on the closest edge becomes a projection node
    (splitting that edge); a stub edge links the terminal to it. Stubs of
    terminals projected earlier are not candidates: they carry no clearance.
    A terminal already on the graph reuses the existing node. The given graph
    is not written: the query graph drops the split edge's row and appends
    the new nodes and edges, so node ids and the other edges' order hold.
    """
    q = np.asarray(point, dtype=float)
    stubs = [k for k, kind in enumerate(graph.edge_kinds) if kind == "stub"]
    if len(stubs) == len(graph.edges):
        raise RuntimeError("cannot project onto an empty graph")

    # reuse an existing node when the terminal coincides with one
    nodes = graph.nodes
    dists = np.linalg.norm(nodes - q, axis=1)
    nearest = int(np.argmin(dists))
    if dists[nearest] <= MERGE_TOL:
        return graph, nearest

    # closest point on every edge at once (t = 0 on a zero-length edge);
    # argmin keeps the first minimum in edge order
    a = nodes[graph.edges[:, 0]]
    ab = nodes[graph.edges[:, 1]] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", q - a, ab) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    gaps = np.linalg.norm(q - (a + t[:, None] * ab), axis=1)
    gaps[stubs] = np.inf
    k = int(np.argmin(gaps))
    u, v = graph.edges[k].tolist()
    _, p, d = _point_segment(q, nodes[u], nodes[v])
    added, rows = [], []  # new (point, kind) nodes and Edge rows
    drop = len(graph.edges)  # the split edge's row, when one is split
    du, dv = float(np.linalg.norm(p - nodes[u])), float(np.linalg.norm(p - nodes[v]))
    if du <= MERGE_TOL:
        proj = u
    elif dv <= MERGE_TOL:
        proj = v
    else:
        proj, drop = len(nodes), k
        added.append((p, "projection"))
        kind, faces = graph.edge_kinds[k], graph.edge_faces[k]
        rows += [Edge(u, proj, du, kind, faces), Edge(proj, v, dv, kind, faces)]
    node = proj
    if d > MERGE_TOL:
        node = len(nodes) + len(added)
        # d is the stub's length when it ends at the projection point
        length = d if proj == len(nodes) else float(np.linalg.norm(q - nodes[proj]))
        added.append((q, "terminal"))
        rows.append(Edge(node, proj, length, "stub", ()))
    if not added:
        return graph, node
    return _extended(graph, drop, added, rows), node


def _extended(graph: RoadmapGraph, drop: int, added, rows: list[Edge]) -> RoadmapGraph:
    """graph without edge row drop (none when drop is the row count), with
    (point, kind) nodes and Edge rows appended."""
    return RoadmapGraph(
        np.concatenate([graph.nodes, [p for p, _ in added]]),
        graph.node_kinds + tuple(kind for _, kind in added),
        np.concatenate([graph.edges[:drop], graph.edges[drop + 1:], [e[:2] for e in rows]]),
        np.concatenate([graph.weights[:drop], graph.weights[drop + 1:], [e.weight for e in rows]]),
        graph.edge_kinds[:drop] + graph.edge_kinds[drop + 1:] + tuple(e.kind for e in rows),
        graph.edge_faces[:drop] + graph.edge_faces[drop + 1:] + tuple(e.faces for e in rows),
        graph.segments_decided, graph.segments_rejected, graph.bridges_added)


def shortest_path(graph: RoadmapGraph, start: int, goal: int) -> list[int] | None:
    """Dijkstra over the CSR rows; None when the goal is unreachable.

    Neighbours are relaxed in ascending id, and a node's distance is
    replaced only when it falls by more than 1e-15, for determinism.
    """
    n = len(graph.nodes)
    if not (0 <= start < n and 0 <= goal < n):
        raise ValueError("start/goal node ids do not exist")
    indptr, neighbors, edge_ids = graph.csr
    weights = graph.weights.tolist()
    dist = {start: 0.0}
    prev: dict[int, int] = {}
    heap = [(0.0, start)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == goal:
            break
        for s in range(indptr[u], indptr[u + 1]):
            v = neighbors[s]
            nd = d + weights[edge_ids[s]]
            if v not in dist or nd < dist[v] - 1e-15:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if goal not in done:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path[::-1]


def graph_to_dict(graph: RoadmapGraph) -> dict:
    return {
        "nodes": [{"position": p.tolist(), "kind": k}
                  for p, k in zip(graph.nodes, graph.node_kinds)],
        "edges": [{
            "u": e.u, "v": e.v, "weight": e.weight, "kind": e.kind,
            "hyperplanes": list(e.faces),
        } for e in graph.live_edges()],
        "segments_decided": graph.segments_decided,
        "segments_rejected": graph.segments_rejected,
        "bridges_added": graph.bridges_added,
    }
