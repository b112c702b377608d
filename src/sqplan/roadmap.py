"""Weighted roadmap graph over Voronoi cell vertices and edges.

Cell edges provide the maximum-clearance skeleton; nearby vertices left by
the linear bisector approximation are bridged; start/goal are projected onto
their closest edges. Every edge is collision-checked against the expanded
obstacles so boundary edges cannot tunnel through obstacles that touch the
world box.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import inside_outside
from .voronoi import Diagram

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


def _segment_clear(a, b, expanded, samples=EDGE_SAMPLES) -> bool:
    """True when no interior sample of segment a-b is strictly inside any shape."""
    ts = np.arange(1, samples + 1) / (samples + 1.0)
    pts = a + ts[:, None] * (b - a)
    seg_r = 0.5 * np.linalg.norm(b - a)
    mid = 0.5 * (a + b)
    for sq in expanded:
        if np.linalg.norm(sq.center - mid) > seg_r + sq.bounding_radius():
            continue
        if np.any(inside_outside(sq, pts) < -INSIDE_TOL):
            return False
    return True


def build_graph(diagram: Diagram, h: float) -> RoadmapGraph:
    """Roadmap from cell vertices/edges plus hole-bridging edges.

    Vertices within MERGE_TOL are merged; node pairs closer than h gain a
    bridging edge. Edges whose interior samples enter an expanded obstacle
    are rejected (cell edges along the world box can cross obstacles that
    touch the boundary; bridges must patch holes, not tunnel).
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
    uf = list(range(len(pts)))

    def find(i):
        while uf[i] != i:
            uf[i] = uf[uf[i]]
            i = uf[i]
        return i

    tree = cKDTree(pts)
    for i, j in sorted(tree.query_pairs(MERGE_TOL)):
        ri, rj = find(i), find(j)
        if ri != rj:
            uf[max(ri, rj)] = min(ri, rj)

    node_of: dict[int, int] = {}
    for i in range(len(pts)):
        r = find(i)
        if r not in node_of:
            node_of[r] = graph.add_node(pts[r], "cell")

    def hp_info(tag):
        hp = diagram.hyperplanes[tag]
        return (tag, hp.witness_distance, hp.normal)

    for off, cell in zip(offsets, diagram.cells):
        for u, v, tags in cell.edges:
            nu, nv = node_of[find(off + u)], node_of[find(off + v)]
            if nu == nv:
                continue
            normals = [hp_info(t) for t in sorted(set(tags)) if t >= 0]
            existing = graph.edge_between(nu, nv)
            if existing is not None:
                known = {t for t, _, _ in existing.normals}
                existing.normals.extend(x for x in normals if x[0] not in known)
                continue
            if _segment_clear(graph.nodes[nu], graph.nodes[nv], diagram.expanded):
                graph.add_edge(nu, nv, "cell", normals)

    node_pts = np.array(graph.nodes)
    if len(node_pts) > 1 and h > 0.0:
        ntree = cKDTree(node_pts)
        for i, j in sorted(ntree.query_pairs(h)):
            if j in graph.adjacency[i]:
                continue
            if _segment_clear(node_pts[i], node_pts[j], diagram.expanded):
                graph.add_edge(i, j, "bridge")
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
    live = [(k, e) for k, e in enumerate(graph.edges)
            if e.kind != "stub" and graph.adjacency[e.u].get(e.v) == k]
    if not live:
        raise RuntimeError("cannot project onto an empty graph")

    # reuse an existing node when the terminal coincides with one
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


def path_length(graph: RoadmapGraph, path: list[int]) -> float:
    return float(sum(
        graph.edges[graph.adjacency[path[k]][path[k + 1]]].weight
        for k in range(len(path) - 1)))


def graph_to_dict(graph: RoadmapGraph) -> dict:
    return {
        "nodes": [{"position": p.tolist(), "kind": k}
                  for p, k in zip(graph.nodes, graph.node_kinds)],
        "edges": [{
            "u": e.u, "v": e.v, "weight": e.weight, "kind": e.kind,
            "hyperplanes": [int(t) for t, _, _ in e.normals],
        } for e in graph.live_edges()],
    }
