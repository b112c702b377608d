import itertools

import numpy as np
import pytest

from oracles import (DictGraph, load_bench_scenes, per_edge_project_terminal,
                     reference_build_graph, segment_clear)
from sqplan import pipeline, roadmap
from sqplan.geometry import EPS_MAX, EPS_MIN, Superquadric, inside_outside
from sqplan.roadmap import (EDGE_SAMPLES, INSIDE_TOL, RoadmapGraph, build_graph,
                            graph_to_dict, project_terminal, segments_clear,
                            shortest_path)
from sqplan.scenario import BENCHMARK_NAMES, generate_benchmark, scenario_from_dict
from sqplan.voronoi import build_diagram


def path_length(graph, path):
    """Summed weights of the edges joining consecutive path nodes."""
    return float(sum(graph.edge_between(path[k], path[k + 1]).weight
                     for k in range(len(path) - 1)))


def neighbours(graph, u):
    """Node u's CSR row."""
    indptr, neighbors, _ = graph.csr
    return list(neighbors[indptr[u]:indptr[u + 1]])


def segment_graph(length):
    """Two cell nodes on the x axis joined by one cell edge."""
    return RoadmapGraph.create([[0.0, 0.0], [length, 0.0]], ["cell"] * 2, [(0, 1)], ["cell"])


def small_diagram():
    obstacles = [Superquadric.create([1.0], [0.5, 0.5], c)
                 for c in ([3.0, 3.0], [7.0, 3.0], [5.0, 7.5])]
    robot = Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.0])
    return build_diagram(robot, obstacles, [0.0, 0.0], [10.0, 10.0])


def test_graph_nodes_on_cell_vertices_and_weights():
    diagram = small_diagram()
    graph = build_graph(diagram)
    assert len(graph.nodes) > 0
    for e in graph.live_edges():
        w = np.linalg.norm(graph.nodes[e.u] - graph.nodes[e.v])
        assert np.isclose(e.weight, w, atol=1e-12)
    # every node coincides with some cell vertex
    all_vertices = np.vstack([c.vertices for c in diagram.cells])
    for p in graph.nodes:
        assert np.min(np.linalg.norm(all_vertices - p, axis=1)) <= 1e-7


def test_shared_cell_boundary_vertices_are_merged():
    diagram = small_diagram()
    graph = build_graph(diagram)
    pts = np.array(graph.nodes)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-7  # no duplicate nodes survive merging


def test_edges_avoid_expanded_obstacles():
    diagram = small_diagram()
    graph = build_graph(diagram)
    for e in graph.live_edges():
        a, b = graph.nodes[e.u], graph.nodes[e.v]
        ts = np.linspace(0.0, 1.0, 16)[1:-1]
        samples = a[None] + ts[:, None] * (b - a)[None]
        for obs in diagram.expanded:
            assert np.all(inside_outside(obs, samples) > -1e-9)


def brute_force_shortest(graph, start, goal):
    n = len(graph.nodes)
    best = (np.inf, None)
    for perm_len in range(1, n + 1):
        for perm in itertools.permutations(range(n), perm_len):
            if perm[0] != start or perm[-1] != goal:
                continue
            ok = all(graph.edge_between(perm[k], perm[k + 1]) is not None
                     for k in range(len(perm) - 1))
            if not ok:
                continue
            length = path_length(graph, list(perm))
            if length < best[0] - 1e-12:
                best = (length, list(perm))
    return best


def test_dijkstra_matches_brute_force():
    rng = np.random.default_rng(9)
    nodes = [rng.uniform(0.0, 1.0, 2) for _ in range(7)]
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.uniform() < 0.45]
    g = RoadmapGraph.create(nodes, ["cell"] * 7, edges, ["cell"] * len(edges))
    for start, goal in [(0, 6), (1, 5), (2, 4)]:
        got = shortest_path(g, start, goal)
        want_len, want = brute_force_shortest(g, start, goal)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert np.isclose(path_length(g, got), want_len, atol=1e-12)


def test_shortest_path_unreachable():
    g = RoadmapGraph.create([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], ["cell"] * 3,
                            [(0, 1)], ["cell"])
    assert shortest_path(g, 0, 2) is None
    assert shortest_path(g, 0, 1) == [0, 1]


def test_project_terminal_splits_edge():
    base = segment_graph(2.0)
    g, term = project_terminal([1.0, 1.0], base)
    assert len(base.nodes) == 2 and len(base.edges) == 1  # the base is not written
    assert g.node_kinds[term] == "terminal"
    [proj] = neighbours(g, term)
    assert np.allclose(g.nodes[proj], [1.0, 0.0], atol=1e-12)
    assert g.node_kinds[proj] == "projection"
    # original edge replaced by two halves plus the stub
    kinds = sorted(e.kind for e in g.live_edges())
    assert kinds == ["cell", "cell", "stub"]
    assert shortest_path(g, 0, term) == [0, proj, term]


def test_project_terminal_reuses_existing_node():
    g = segment_graph(2.0)
    assert project_terminal([0.0, 0.0], g) == (g, 0)
    assert project_terminal([1.0, 0.0], g)[1] not in (0, 1)  # on-edge point becomes a node


def test_bridging_connects_near_vertices():
    # unequal radii make the pairwise max-margin bisectors miss the exact
    # triple point, leaving nearby-but-distinct vertices that need bridging
    obstacles = [Superquadric.create([1.0], [r, r], c)
                 for r, c in ((0.3, [3.0, 3.0]), (0.9, [7.0, 3.0]),
                              (0.6, [5.0, 7.5]))]
    robot = Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.0])
    diagram = build_diagram(robot, obstacles, [0.0, 0.0], [10.0, 10.0])
    sparse = reference_build_graph(diagram, 0.0)
    bridged = build_graph(diagram)
    assert len(bridged.live_edges()) > len(sparse.live_edges())
    bridges = [e for e in bridged.live_edges() if e.kind == "bridge"]
    # node pairs within 2% of the world diagonal, 0.28 m here
    assert bridges and all(e.weight < 0.02 * np.hypot(10.0, 10.0) for e in bridges)


def test_project_terminal_skips_stub_edges():
    g, start = project_terminal([1.0, 3.0], segment_graph(4.0))
    # closer to the start's stub (x = 1) than to the cell edge (y = 0)
    g, goal = project_terminal([1.5, 2.5], g)
    [proj] = neighbours(g, goal)
    assert g.node_kinds[proj] == "projection"
    assert np.allclose(g.nodes[proj], [1.5, 0.0], atol=1e-12)
    assert start not in neighbours(g, goal)


# ------------------------------------ array search vs the per-edge loop


@pytest.mark.parametrize("name", ["pillars3d", "narrow2d"])
def test_project_terminal_matches_per_edge_loop_on_query_streams(name):
    scn = generate_benchmark(name, 0)
    pre = pipeline.precompute(scn)
    nodes = np.array(pre.graph.nodes)
    rng = np.random.default_rng(21)
    # start/goal pairs: random points of the world, plus graph nodes and
    # edge midpoints, which take the reuse and on-edge branches
    points = list(rng.uniform(scn.world_lo, scn.world_hi, size=(40, scn.dim)))
    points += list(nodes[rng.choice(len(nodes), 4)])
    points += [0.5 * (nodes[u] + nodes[v]) for u, v in pre.graph.edges[:4]]
    order = rng.permutation(len(points))
    for start, goal in zip(order[0::2], order[1::2]):
        graph = pre.graph
        reference = DictGraph.of(pre.graph)
        for k in (start, goal):
            graph, node = project_terminal(points[k], graph)
            assert node == per_edge_project_terminal(points[k], reference)
        # the same edges split at the same projection points, the live edges
        # in the same order with bitwise equal weights, and the CSR rows sorted
        assert graph_bytes(graph) == graph_bytes(reference)


# ------------------------------- batched edge test vs the per-edge oracle


def random_segments(rng, dim, n=300):
    """Segments among six rotated shapes with exponents at the clamp ends
    and one far from every segment; the first ten segments have zero length
    and the next ten lie inside the first shape."""
    shapes = [Superquadric.create(rng.choice([EPS_MIN, 1.0, EPS_MAX], dim - 1),
                                  np.sort(rng.uniform(0.3, 2.0, dim)), rng.uniform(2.0, 8.0, dim),
                                  rng.uniform(-np.pi, np.pi, 1 if dim == 2 else 3))
              for _ in range(6)]
    shapes.append(Superquadric.create(np.full(dim - 1, EPS_MIN), np.full(dim, 0.3),
                                      np.full(dim, 100.0)))
    a = rng.uniform(0.0, 10.0, (n, dim))
    b = a + rng.normal(0.0, 2.0, (n, dim))
    b[:10] = a[:10]
    a[10:20] = shapes[0].center + 0.05 * rng.normal(size=(10, dim))
    b[10:20] = shapes[0].center + 0.05 * rng.normal(size=(10, dim))
    # drop segments with a sample near the rejection threshold, where the
    # two tests may round to different sides
    ts = np.arange(1, EDGE_SAMPLES + 1) / (EDGE_SAMPLES + 1.0)
    pts = a[:, None] + ts[None, :, None] * (b - a)[:, None]
    f = np.stack([inside_outside(sq, pts) for sq in shapes])
    keep = np.all(np.abs(f + INSIDE_TOL) > 1e-6, axis=(0, 2))
    return a[keep], b[keep], shapes, keep


@pytest.mark.parametrize("dim, seed", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_segments_clear_matches_the_per_edge_test(dim, seed):
    a, b, shapes, keep = random_segments(np.random.default_rng([dim, seed]), dim)
    got = segments_clear(a, b, shapes)
    assert got.dtype == bool and got.shape == (len(a),)
    assert got.tolist() == [segment_clear(x, y, shapes) for x, y in zip(a, b)]
    assert keep[:20].all()  # the zero-length and inside segments are tested
    assert not got[10:20].any()
    assert got.sum() >= 20 and (~got).sum() >= 20


def test_segments_clear_without_candidates():
    shapes = [Superquadric.create([0.5, 1.5], [0.2, 0.3, 0.4], [50.0, 0.0, 0.0], [0.3, 0.2, 0.1])]
    assert segments_clear(np.empty((0, 3)), np.empty((0, 3)), shapes).shape == (0,)
    a = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert segments_clear(a, a[::-1], shapes).tolist() == [True, True]  # no shape near
    assert segments_clear(a, a, []).tolist() == [True, True]


def test_segment_along_a_flat_face_is_clear():
    # on the face y = 1 of a boxy square the samples have 0 <= f < 1e-6, so
    # only samples strictly inside, below -INSIDE_TOL, reject a segment
    square = [Superquadric.create([EPS_MIN], [1.0, 1.0], [0.0, 0.0])]
    a = np.array([[-0.5, 1.0], [-0.5, 1.0 - 1e-6]])
    b = np.array([[0.5, 1.0], [0.5, 1.0 - 1e-6]])
    assert segments_clear(a, b, square).tolist() == [True, False]
    assert [segment_clear(x, y, square) for x, y in zip(a, b)] == [True, False]


def twelve_scenes():
    """The six benchmarks, the four build3d fields, pillars and the narrow wall."""
    bench = load_bench_scenes()
    scenes = {name: generate_benchmark(name, 0) for name in BENCHMARK_NAMES}
    scenes.update({f"field{s}_{c}": scenario_from_dict(bench.random_field(s, c))
                   for s, c in bench.BUILD3D_FIELDS})
    scenes["pillars"] = scenario_from_dict(bench.pillars())
    scenes["narrow_wall"] = scenario_from_dict(bench.narrow_wall())
    return scenes


def graph_bytes(graph):
    """Nodes, kinds, live edges with weights and faces, adjacency and
    counts of a RoadmapGraph or a DictGraph. The adjacency lists each node's
    (neighbour, edge's u, edge's v): in CSR row order for a RoadmapGraph, in
    ascending neighbour id for a DictGraph."""
    if isinstance(graph, DictGraph):
        adjacency = [[(v, graph.edges[k].u, graph.edges[k].v) for v, k in sorted(nbrs.items())]
                     for _, nbrs in sorted(graph.adjacency.items())]
    else:
        indptr, neighbors, edge_ids = graph.csr
        adjacency = [[(neighbors[s], *graph.edges[edge_ids[s]].tolist())
                      for s in range(indptr[u], indptr[u + 1])] for u in range(len(graph.nodes))]
    return (np.array(graph.nodes).tobytes(), list(graph.node_kinds),
            [(e.u, e.v, np.float64(e.weight).tobytes(), e.kind,
              list(e.faces))
             for e in graph.live_edges()],
            adjacency,
            (graph.segments_decided, graph.segments_rejected, graph.bridges_added))


def test_build_graph_matches_the_per_edge_build_and_makes_two_calls(monkeypatch):
    calls = []

    def counted(a, b, shapes):
        calls.append(len(a))
        return segments_clear(a, b, shapes)

    monkeypatch.setattr(roadmap, "segments_clear", counted)
    bridged = 0
    for name, scn in twelve_scenes().items():
        diagram = build_diagram(scn.robot, scn.obstacles, scn.world_lo, scn.world_hi)
        calls.clear()
        graph = build_graph(diagram)
        reference = reference_build_graph(diagram, 0.02 * scn.world_diagonal)
        assert graph_bytes(graph) == graph_bytes(reference), name
        assert len(calls) == 2 and sum(calls) == graph.segments_decided, name
        bridged += graph.bridges_added > 0
    assert bridged >= 2


@pytest.mark.parametrize("name, counts", [("pillars3d", (20, 4, 0)), ("dense3d", (107, 9, 3)),
                                          ("narrow2d", (7, 2, 0))])
def test_plan_reports_the_build_counts(name, counts):
    # the plan's graph is derived from the precomputed one, with terminals added
    d = graph_to_dict(pipeline.plan(generate_benchmark(name, 0)).graph)
    assert (d["segments_decided"], d["segments_rejected"], d["bridges_added"]) == counts
