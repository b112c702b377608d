"""The query fuzz report (ROADMAP item 13): how random queries end.

On the six benchmarks and perfbench's four `build3d` fields it plans 40
queries in each of three modes:

- whole-box: both terminals anywhere in the world box, with the robot's
  bounding sphere clear of every wall and every obstacle's box;
- near-edge: each terminal at a uniform point of a uniformly drawn roadmap
  edge, moved by 1e-4 of the world diagonal in a uniform direction;
- corner: each terminal drawn as a whole-box one, but within three bounding
  radii of a uniformly drawn corner of the world box along every axis.

Query q of mode m draws from `numpy.random.default_rng([m, q])` (modes
numbered in the order above), so a seed names one query on every scene. For
each scene and mode it prints how many queries raised, how many ended in
no-feasible-passage, and how many succeeded with a trajectory that
`trajectory_collides` certifies clear; then the seeds of the queries that
raised or whose trajectory it does not certify, and each exception message
with its count. It asserts nothing, and pytest does not collect it.

Run from the repository root (about 5 s):

    PYTHONPATH=src python tests/fuzz_report.py
"""

import dataclasses
from collections import Counter

import numpy as np

from oracles import load_bench_scenes, whole_box_terminals
from sqplan.clearance import trajectory_collides
from sqplan.geometry import RigidPose
from sqplan.pipeline import plan, precompute
from sqplan.scenario import BENCHMARK_NAMES, generate_benchmark, scenario_from_dict

QUERIES = 40
EDGE_OFFSET = 1e-4  # share of the world diagonal
CORNER_REACH = 3.0  # bounding radii from the corner, per axis


def whole_box(scn, pre, rng):
    return whole_box_terminals(scn, 2, rng)


def near_edge(scn, pre, rng):
    nodes, edges = pre.graph.nodes, pre.graph.edges
    points = []
    for _ in range(2):
        u, v = edges[rng.integers(len(edges))]
        direction = rng.normal(size=scn.dim)
        points.append(nodes[u] + rng.uniform() * (nodes[v] - nodes[u])
                      + EDGE_OFFSET * scn.world_diagonal * direction / np.linalg.norm(direction))
    return points


def corner(scn, pre, rng):
    reach = CORNER_REACH * scn.robot.bounding_radius()
    points = []
    for _ in range(2):
        high = rng.integers(2, size=scn.dim).astype(bool)
        lo = np.where(high, np.maximum(scn.world_hi - reach, scn.world_lo), scn.world_lo)
        hi = np.where(high, scn.world_hi, np.minimum(scn.world_lo + reach, scn.world_hi))
        points += whole_box_terminals(scn, 1, rng, lo, hi)
    return points


MODES = {"whole-box": whole_box, "near-edge": near_edge, "corner": corner}


def scenes():
    bench = load_bench_scenes()
    for name in BENCHMARK_NAMES:
        yield name, generate_benchmark(name)
    for seed, count in bench.BUILD3D_FIELDS:
        yield f"field({seed}, {count})", scenario_from_dict(bench.random_field(seed, count))


def main():
    print(f"{'scene':<15} {'mode':<10} {'raised':>6} {'no-passage':>10} {'clear':>5} "
          f"{'not clear':>9}  failing seeds")
    messages = Counter()
    for name, scn in scenes():
        pre = precompute(scn)
        for m, (mode, draw) in enumerate(MODES.items()):
            raised, no_passage, clear, not_clear, failing = 0, 0, 0, 0, []
            for q in range(QUERIES):
                start, goal = draw(scn, pre, np.random.default_rng([m, q]))
                query = dataclasses.replace(scn, start=RigidPose.create(start),
                                            goal=RigidPose.create(goal))
                try:
                    result = plan(query, pre)
                except Exception as error:  # the report counts every failure
                    raised += 1
                    failing.append(q)
                    messages[f"{type(error).__name__}: {error}"] += 1
                    continue
                if not result.success:  # plan's one failure, no-feasible-passage
                    no_passage += 1
                elif trajectory_collides(result.trajectory, scn.robot, scn.obstacles):
                    not_clear += 1
                    failing.append(q)
                else:
                    clear += 1
            print(f"{name:<15} {mode:<10} {raised:>6} {no_passage:>10} {clear:>5} "
                  f"{not_clear:>9}  {' '.join(map(str, failing)) or '-'}")
    for message, count in messages.most_common():
        print(f"{count:>4} x {message}")


if __name__ == "__main__":
    main()
