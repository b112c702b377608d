"""Benchmark inputs: scene dicts and start/goal query draws.

Every scene is built here as a plain scenario dict and loaded through
``sqplan.scenario.scenario_from_dict``, so editing the package's own scene
generators never changes what the benchmark measures.

Query rule: a start or goal is drawn uniformly from an axis-aligned region of
the scene and redrawn until the robot's bounding sphere clears every
obstacle's bounding box and every world wall. Queries are never filtered on
whether the planner succeeds on them.
"""

from __future__ import annotations

import numpy as np

from sqplan.geometry import Superquadric

WORLD_3D = 12.0
WORLD_2D = 0.5
DRONE_AXES = [0.3, 0.5, 0.9]
CAR_AXES = [0.02, 0.06]

# Fixed list of random 3D fields for build3d, as (field seed, obstacle
# count): the moderate3d kind (8 obstacles) and the dense3d kind (16). Each
# field's audited plan goes corner to corner. Precompute and audit cost move
# by more than 10x between fields and trajectories, so a seeded choice of
# fields or of the audited query would make the run totals vary with the
# seed far beyond any useful bound; the run seed draws only the extra
# unaudited queries of each field and the order of the list. Four fields
# keep one pass over the list at 16-22 s on a shared 2-vCPU x86 host, so one
# pass fits in a 25 s run.
BUILD3D_FIELDS = [(1, 8), (2, 8), (2, 16), (4, 16)]
# Small field that warms imports and code paths before timing.
WARMUP_FIELD = (0, 2)


def _sq(eps, axes, position, rotation=None) -> dict:
    out = {"eps": list(map(float, eps)), "axes": list(map(float, axes)),
           "position": list(map(float, position))}
    if rotation is not None:
        out["rotation"] = list(map(float, rotation))
    return out


def _scene(dim, world, robot, obstacles, start, goal) -> dict:
    return {"version": 1, "dim": dim,
            "world": {"min": [0.0] * dim, "max": [world] * dim},
            "robot": robot, "obstacles": obstacles,
            "start": {"position": list(map(float, start))},
            "goal": {"position": list(map(float, goal))}}


def random_field(field_seed: int, count: int) -> dict:
    """Random superquadric field in a 12 m cube, corner to corner.

    Obstacle centres stay in the central core [3, 9]^3 and at least 3 m from
    the two corner points (1.5, 1.5, 1.5) and (10.5, 10.5, 10.5); semi-axes
    are drawn from [0.6, 1.5] m, shape exponents from [0.4, 1.6] and the
    orientation uniformly in angle about a random axis.
    """
    rng = np.random.default_rng([field_seed, count])
    start, goal = np.full(3, 1.5), np.full(3, 10.5)
    obstacles = []
    while len(obstacles) < count:
        centre = rng.uniform(3.0, 9.0, 3)
        if min(np.linalg.norm(centre - start),
               np.linalg.norm(centre - goal)) < 3.0:
            continue
        axes = np.sort(rng.uniform(0.6, 1.5, 3))
        eps = rng.uniform(0.4, 1.6, 2)
        angle = rng.uniform(0.0, np.pi)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        obstacles.append(_sq(eps, axes, centre, angle * axis))
    return _scene(3, WORLD_3D, _sq([1.0, 1.0], DRONE_AXES, start), obstacles,
                  start, goal)


def pillars() -> dict:
    """Four wall-to-wall pillars across y = 6; only the centre gap is passable.

    Gaps are 0.4 / 1.2 / 0.4 m against drone semi-axes 0.3 / 0.5 / 0.9 m:
    the side gaps close when obstacles grow by the shortest semi-axis, and
    the centre gap is narrower than the long axis, so the drone has to roll
    its short axis across it.
    """
    obstacles = [_sq([0.2, 0.2], [1.25, 0.5, 6.0], [cx, 6.0, 6.0])
                 for cx in (1.25, 4.15, 7.85, 10.75)]
    return _scene(3, WORLD_3D, _sq([1.0, 1.0], DRONE_AXES, [6.0, 2.0, 6.0]),
                  obstacles, [6.0, 2.0, 6.0], [6.0, 10.0, 6.0])


def narrow_wall() -> dict:
    """Wall across y = 0.25 with one passable gap and one sealed gap.

    Gap A (x 0.11..0.19) is wider than the car's short axis plus clearance;
    gap B (x 0.335..0.365) closes once obstacles grow by the short semi-axis.
    """
    obstacles = [_sq([0.2], [0.055, 0.02], [0.055, 0.25]),
                 _sq([0.2], [0.0725, 0.02], [0.2625, 0.25]),
                 _sq([0.2], [0.0675, 0.02], [0.4325, 0.25])]
    return _scene(2, WORLD_2D, _sq([0.5], CAR_AXES, [0.14, 0.08]), obstacles,
                  [0.14, 0.08], [0.16, 0.42])


class QuerySampler:
    """Draws start/goal pairs whose robot bounding sphere is clear.

    ``regions`` is a pair of boxes (lo, hi); each query takes its start from
    one and its goal from the other, alternating direction so the stream
    crosses the scene both ways. A point is accepted when the sphere of the
    robot's bounding radius around it stays inside the world box and farther
    than that radius from every obstacle's bounding box in the obstacle's own
    frame. A superquadric lies inside that box whatever its exponents, so the
    test is exact for the box-like pillars and walls and conservative for
    rounder obstacles.
    """

    def __init__(self, scene: dict, regions, seed: int):
        dim = scene["dim"]
        self.rng = np.random.default_rng(seed)
        self.regions = [(np.asarray(lo, float), np.asarray(hi, float))
                        for lo, hi in regions]
        self.scene = scene
        robot = scene["robot"]
        self.radius = float(np.linalg.norm(robot["axes"]))
        self.lo = np.zeros(dim) + self.radius
        self.hi = np.asarray(scene["world"]["max"], float) - self.radius
        self.obstacles = [Superquadric.create(o["eps"], o["axes"],
                                              o["position"], o.get("rotation"))
                          for o in scene["obstacles"]]
        self.count = 0

    def clear(self, p: np.ndarray) -> bool:
        if np.any(p < self.lo) or np.any(p > self.hi):
            return False
        for sq in self.obstacles:
            local = np.abs(sq.pose.inverse_transform(p))
            if np.linalg.norm(np.maximum(local - sq.axes, 0.0)) <= self.radius:
                return False
        return True

    def _draw(self, region) -> np.ndarray:
        lo, hi = region
        for _ in range(10000):
            p = self.rng.uniform(lo, hi)
            if self.clear(p):
                return p
        raise RuntimeError(f"no clear point in region {lo}..{hi}")

    def next(self) -> dict:
        """Scene dict for the next query of the stream."""
        a, b = self.regions if self.count % 2 == 0 else self.regions[::-1]
        self.count += 1
        query = dict(self.scene)
        query["start"] = {"position": self._draw(a).tolist()}
        query["goal"] = {"position": self._draw(b).tolist()}
        return query


def field_regions():
    """Opposite corner boxes of the random fields, which hold no obstacle centre."""
    return [([0.0] * 3, [3.0] * 3), ([9.0] * 3, [WORLD_3D] * 3)]


def pillar_regions():
    """Slabs at least 2 m off either side of the pillar row (y 5.5..6.5).

    The roadmap of this scene runs along the world box edges and the gap
    line x = 6, so an endpoint is within 4.61 m of a roadmap edge, and a
    start's terminal stub stays inside its slab. With 5 m between the
    slabs, the goal always projects onto a roadmap edge and never onto the
    start's stub: a stub has no clearance, and a goal projected onto it
    makes plan() go straight through a pillar and raise.
    """
    return [([0.0, 0.0, 0.0], [WORLD_3D, 3.5, WORLD_3D]),
            ([0.0, 8.5, 0.0], [WORLD_3D, WORLD_3D, WORLD_3D])]


def wall_regions():
    """Either side of the 2D wall (it spans y 0.23..0.27)."""
    return [([0.0, 0.0], [WORLD_2D, 0.23]), ([0.0, 0.27], [WORLD_2D, WORLD_2D])]
