"""Weighted roadmap graph over Voronoi cell vertices and edges.

Cell edges provide the maximum-clearance skeleton; nearby vertices left by
the linear bisector approximation are bridged; start/goal are projected onto
their closest edges. Every edge is collision-checked against the expanded
obstacles so boundary edges cannot tunnel through obstacles that touch the
world box: `segments_clear` decides a batch of segments at once, and a build
decides its cell edges in one batch and its bridge candidates in another.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import inside_outside
from .voronoi import Diagram, _UnionFind

MERGE_TOL = 1e-7
EDGE_SAMPLES = 32
INSIDE_TOL = 1e-9


@dataclass
class Edge:
    u: int
    v: int
    weight: float
    kind: str  # "cell" | "bridge" | "stub"
    # (hyperplane id, witness distance, unit normal) per adjacent bisector face
    normals: list[tuple[int, float, np.ndarray]] = field(default_factory=list)


@dataclass
class RoadmapGraph:
    dim: int
    nodes: list[np.ndarray] = field(default_factory=list)
    node_kinds: list[str] = field(default_factory=list)  # "cell" | "projection" | "terminal"
    edges: list[Edge] = field(default_factory=list)
    adjacency: dict[int, dict[int, int]] = field(default_factory=dict)
    # build_graph's tallies: segments decided and rejected, bridges added
    segments_decided: int = 0
    segments_rejected: int = 0
    bridges_added: int = 0

    def add_node(self, point, kind: str) -> int:
        self.nodes.append(np.asarray(point, dtype=float))
        self.node_kinds.append(kind)
        self.adjacency[len(self.nodes) - 1] = {}
        return len(self.nodes) - 1

    def add_edge(self, u: int, v: int, kind: str, normals=None) -> int | None:
        if u == v or v in self.adjacency[u]:
            return None
        w = float(np.linalg.norm(self.nodes[u] - self.nodes[v]))
        self.edges.append(Edge(u, v, w, kind, normals or []))
        k = len(self.edges) - 1
        self.adjacency[u][v] = k
        self.adjacency[v][u] = k
        return k

    def remove_edge(self, k: int) -> None:
        e = self.edges[k]
        self.adjacency[e.u].pop(e.v, None)
        self.adjacency[e.v].pop(e.u, None)

    def edge_between(self, u: int, v: int) -> Edge | None:
        k = self.adjacency[u].get(v)
        return None if k is None else self.edges[k]

    def live_edges(self):
        seen = set()
        for nbrs in self.adjacency.values():
            seen.update(nbrs.values())
        return [self.edges[k] for k in sorted(seen)]


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
    normals into the first. Node pairs closer than h that the cell edges
    leave unjoined are decided in a second call. The graph counts the
    segments decided and rejected and the bridges added.
    """
    if h < 0.0:
        raise ValueError("bridging threshold must be non-negative")
    graph = RoadmapGraph(diagram.dim)

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

    node_of: dict[int, int] = {}
    for i in range(len(pts)):
        r = uf.find(i)
        if r not in node_of:
            node_of[r] = graph.add_node(pts[r], "cell")
    node_pts = np.array(graph.nodes)

    def decide(segs):
        segs = np.array(segs, dtype=int).reshape(-1, 2)
        clear = segments_clear(node_pts[segs[:, 0]], node_pts[segs[:, 1]],
                               diagram.expanded)
        graph.segments_decided += len(segs)
        graph.segments_rejected += int(np.count_nonzero(~clear))
        return segs, clear

    def hp_info(tag):
        hp = diagram.hyperplanes[tag]
        return (tag, hp.witness_distance, hp.normal)

    # the first (nu, nv) of each unordered node pair is the segment decided
    candidates = []
    firsts = []
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
            candidates.append((nu, nv, tags, pair_of[key]))
    _, clear = decide(firsts)
    for nu, nv, tags, k in candidates:
        normals = [hp_info(t) for t in sorted(set(tags)) if t >= 0]
        existing = graph.edge_between(nu, nv)
        if existing is not None:
            known = {t for t, _, _ in existing.normals}
            existing.normals.extend(x for x in normals if x[0] not in known)
        elif clear[k]:
            graph.add_edge(nu, nv, "cell", normals)

    if len(node_pts) > 1 and h > 0.0:
        bridges, clear = decide([(i, j) for i, j in sorted(cKDTree(node_pts).query_pairs(h))
                                 if j not in graph.adjacency[i]])
        for i, j in bridges[clear]:
            graph.add_edge(int(i), int(j), "bridge")
        graph.bridges_added = int(np.count_nonzero(clear))
    return graph


def _point_segment(q, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((q - a) @ ab / denom, 0.0, 1.0))
    p = a + t * ab
    return t, p, float(np.linalg.norm(q - p))


def project_terminal(point, graph: RoadmapGraph) -> int:
    """Insert the terminal into the graph; returns its node id.

    The closest point on the closest live edge becomes a projection node
    (splitting that edge); a stub edge links the terminal to it. Stubs of
    terminals projected earlier are not candidates: they carry no clearance.
    A terminal already on the graph reuses the existing node.
    """
    q = np.asarray(point, dtype=float)
    # (edge id, u, v) of every live edge that is not a stub
    live = np.array([(k, e.u, e.v) for k, e in enumerate(graph.edges)
                     if e.kind != "stub" and graph.adjacency[e.u].get(e.v) == k])
    if len(live) == 0:
        raise RuntimeError("cannot project onto an empty graph")

    # reuse an existing node when the terminal coincides with one
    nodes = np.asarray(graph.nodes)
    dists = np.linalg.norm(nodes - q, axis=1)
    nearest = int(np.argmin(dists))
    if dists[nearest] <= MERGE_TOL:
        return nearest

    # closest point on every live edge at once (t = 0 on a zero-length edge);
    # argmin keeps the first minimum in edge order
    a = nodes[live[:, 1]]
    ab = nodes[live[:, 2]] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.clip(np.einsum("ij,ij->i", q - a, ab) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    k = int(live[np.argmin(np.linalg.norm(q - (a + t[:, None] * ab), axis=1)), 0])
    e = graph.edges[k]
    _, p, d = _point_segment(q, graph.nodes[e.u], graph.nodes[e.v])
    if np.linalg.norm(p - graph.nodes[e.u]) <= MERGE_TOL:
        proj = e.u
    elif np.linalg.norm(p - graph.nodes[e.v]) <= MERGE_TOL:
        proj = e.v
    else:
        proj = graph.add_node(p, "projection")
        graph.remove_edge(k)
        graph.add_edge(e.u, proj, e.kind, list(e.normals))
        graph.add_edge(proj, e.v, e.kind, list(e.normals))
    if d <= MERGE_TOL:
        return proj
    term = graph.add_node(q, "terminal")
    graph.add_edge(term, proj, "stub")
    return term


def shortest_path(graph: RoadmapGraph, start: int, goal: int) -> list[int] | None:
    """Dijkstra over live edges; None when the goal is unreachable.

    Ties are broken by lexicographic node id for determinism.
    """
    n = len(graph.nodes)
    if not (0 <= start < n and 0 <= goal < n):
        raise ValueError("start/goal node ids do not exist")
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
        for v in sorted(graph.adjacency[u]):
            nd = d + graph.edges[graph.adjacency[u][v]].weight
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
            "hyperplanes": [int(t) for t, _, _ in e.normals],
        } for e in graph.live_edges()],
        "segments_decided": graph.segments_decided,
        "segments_rejected": graph.segments_rejected,
        "bridges_added": graph.bridges_added,
    }
