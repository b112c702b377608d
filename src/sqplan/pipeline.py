"""End-to-end planning pipeline: diagram, roadmap, poses, smoothing.

Timing is split into a precompute phase (all-pairs proximity, Voronoi cells,
roadmap construction — reusable across queries in a static scene) and a query
phase (terminal projection, graph search, pose planning, DMP smoothing,
validation). The one setting a scenario carries is its DMP basis size; each
stage derives the rest from the scene and the query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dmp import (PoseTrajectory, ValidationReport, fit_lwr, interpolate_waypoints,
                  rollout, validate_and_finalize)
from .poses import plan_poses
from .roadmap import RoadmapGraph, build_graph, project_terminal, shortest_path
from .scenario import Scenario
from .voronoi import Diagram, build_diagram

NO_FEASIBLE_PASSAGE = "no-feasible-passage"


@dataclass
class PlanResult:
    success: bool
    reason: str | None
    diagram: Diagram
    graph: RoadmapGraph
    path: list[int] | None
    waypoints: tuple[np.ndarray, np.ndarray] | None  # (positions, orientations)
    demonstration: PoseTrajectory | None
    # the rollout, or the demonstration itself when validation fell back
    trajectory: PoseTrajectory | None
    validation: ValidationReport | None
    timings: dict  # precompute_s and query_s


@dataclass
class Precomputed:
    diagram: Diagram
    graph: RoadmapGraph
    seconds: float


def precompute(scenario: Scenario) -> Precomputed:
    """Build the Voronoi diagram and roadmap graph for a scenario."""
    t0 = time.perf_counter()
    diagram = build_diagram(scenario.robot, scenario.obstacles,
                            scenario.world_lo, scenario.world_hi)
    graph = build_graph(diagram)
    return Precomputed(diagram, graph, time.perf_counter() - t0)


def plan(scenario: Scenario, pre: Precomputed | None = None) -> PlanResult:
    """Run the full pipeline on a scenario.

    A shared Precomputed structure lets repeated queries on the same scene
    skip the diagram/graph construction. Its graph is read-only: projecting
    the terminals derives the query's own graph, which the result carries.
    A roadmap without an edge has no feasible passage.
    """
    if pre is None:
        pre = precompute(scenario)
    diagram, graph = pre.diagram, pre.graph
    timings = {"precompute_s": pre.seconds}

    t0 = time.perf_counter()
    found = None
    if len(graph.edges):
        graph, start_node = project_terminal(scenario.start.position, graph)
        graph, goal_node = project_terminal(scenario.goal.position, graph)
        found = shortest_path(graph, start_node, goal_node)
    if found is None:
        timings["query_s"] = time.perf_counter() - t0
        return PlanResult(False, NO_FEASIBLE_PASSAGE, diagram, graph, None,
                          None, None, None, None, timings)

    path, edges = found
    if len(path) == 1:
        waypoints = _degenerate_waypoints(scenario, graph, path[0])
    else:
        waypoints = plan_poses(graph.nodes[path], edges, diagram.hyperplanes)

    demo = interpolate_waypoints(*waypoints)
    model = fit_lwr(demo, p=scenario.dmp_basis)
    smoothed = rollout(model)
    trajectory, report = validate_and_finalize(smoothed, demo, scenario.robot,
                                               scenario.obstacles)
    timings["query_s"] = time.perf_counter() - t0
    return PlanResult(True, None, diagram, graph, path, waypoints, demo,
                      trajectory, report, timings)


def _degenerate_waypoints(scenario: Scenario, graph: RoadmapGraph,
                          node: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and goal collapse onto one graph node: go there directly."""
    a = np.asarray(scenario.start.position, dtype=float)
    b = np.asarray(scenario.goal.position, dtype=float)
    if np.linalg.norm(b - a) < 1e-12:
        b = b + 1e-9  # zero-length demonstrations are rejected downstream
    mid = graph.nodes[node]
    pts = [a] + ([mid] if np.linalg.norm(mid - a) > 1e-12
                 and np.linalg.norm(mid - b) > 1e-12 else []) + [b]
    return np.array(pts), np.zeros((len(pts), 1 if scenario.dim == 2 else 3))
