import itertools

import numpy as np

from sqplan.geometry import Superquadric, inside_outside
from sqplan.roadmap import (RoadmapGraph, build_graph, path_length,
                            project_terminal, shortest_path)
from sqplan.voronoi import build_diagram


def small_diagram():
    obstacles = [Superquadric.create([1.0], [0.5, 0.5], c)
                 for c in ([3.0, 3.0], [7.0, 3.0], [5.0, 7.5])]
    robot = Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.0])
    return build_diagram(robot, obstacles, [0.0, 0.0], [10.0, 10.0])


def test_graph_nodes_on_cell_vertices_and_weights():
    diagram = small_diagram()
    graph = build_graph(diagram, h=0.2)
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
    graph = build_graph(diagram, h=0.0)
    pts = np.array(graph.nodes)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-7  # no duplicate nodes survive merging


def test_edges_avoid_expanded_obstacles():
    diagram = small_diagram()
    graph = build_graph(diagram, h=0.5)
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
    g = RoadmapGraph(2)
    rng = np.random.default_rng(9)
    for _ in range(7):
        g.add_node(rng.uniform(0.0, 1.0, 2), "cell")
    for u in range(7):
        for v in range(u + 1, 7):
            if rng.uniform() < 0.45:
                g.add_edge(u, v, "cell")
    for start, goal in [(0, 6), (1, 5), (2, 4)]:
        got = shortest_path(g, start, goal)
        want_len, want = brute_force_shortest(g, start, goal)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert np.isclose(path_length(g, got), want_len, atol=1e-12)


def test_shortest_path_unreachable():
    g = RoadmapGraph(2)
    g.add_node([0.0, 0.0], "cell")
    g.add_node([1.0, 0.0], "cell")
    g.add_node([5.0, 5.0], "cell")
    g.add_edge(0, 1, "cell")
    assert shortest_path(g, 0, 2) is None
    assert shortest_path(g, 0, 1) == [0, 1]


def test_project_terminal_splits_edge():
    g = RoadmapGraph(2)
    a = g.add_node([0.0, 0.0], "cell")
    b = g.add_node([2.0, 0.0], "cell")
    g.add_edge(a, b, "cell")
    term = project_terminal([1.0, 1.0], g)
    assert g.node_kinds[term] == "terminal"
    proj = next(v for v in g.adjacency[term])
    assert np.allclose(g.nodes[proj], [1.0, 0.0], atol=1e-12)
    assert g.node_kinds[proj] == "projection"
    # original edge replaced by two halves plus the stub
    kinds = sorted(e.kind for e in g.live_edges())
    assert kinds == ["cell", "cell", "stub"]
    path = shortest_path(g, a, term)
    assert path == [a, proj, term]


def test_project_terminal_reuses_existing_node():
    g = RoadmapGraph(2)
    a = g.add_node([0.0, 0.0], "cell")
    b = g.add_node([2.0, 0.0], "cell")
    g.add_edge(a, b, "cell")
    assert project_terminal([0.0, 0.0], g) == a
    assert project_terminal([1.0, 0.0], g) != a  # on-edge point becomes a node


def test_bridging_connects_near_vertices():
    # unequal radii make the pairwise max-margin bisectors miss the exact
    # triple point, leaving nearby-but-distinct vertices that need bridging
    obstacles = [Superquadric.create([1.0], [r, r], c)
                 for r, c in ((0.3, [3.0, 3.0]), (0.9, [7.0, 3.0]),
                              (0.6, [5.0, 7.5]))]
    robot = Superquadric.create([1.0], [0.1, 0.1], [0.0, 0.0])
    diagram = build_diagram(robot, obstacles, [0.0, 0.0], [10.0, 10.0])
    sparse = build_graph(diagram, h=0.0)
    bridged = build_graph(diagram, h=2.0)
    assert len(bridged.live_edges()) >= len(sparse.live_edges())
    assert any(e.kind == "bridge" for e in bridged.live_edges())


def test_project_terminal_skips_stub_edges():
    g = RoadmapGraph(2)
    a = g.add_node([0.0, 0.0], "cell")
    b = g.add_node([4.0, 0.0], "cell")
    g.add_edge(a, b, "cell")
    start = project_terminal([1.0, 3.0], g)
    # closer to the start's stub (x = 1) than to the cell edge (y = 0)
    goal = project_terminal([1.5, 2.5], g)
    proj = next(v for v in g.adjacency[goal])
    assert g.node_kinds[proj] == "projection"
    assert np.allclose(g.nodes[proj], [1.5, 0.0], atol=1e-12)
    assert start not in g.adjacency[goal]
