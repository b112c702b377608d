"""Scenario files, benchmark scene generators, trajectory CSV, and metrics."""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from .clearance import AuditStats, min_trajectory_distance
from .geometry import RigidPose, Superquadric, inside_outside
# closest_pair is not used here; perfbench's traced run patches this name
from .proximity import closest_pair  # noqa: F401
from .dmp import DEFAULT_BASIS, MAX_BASIS, PoseTrajectory

BENCHMARK_NAMES = ("narrow2d", "t_block", "u_block",
                   "pillars3d", "moderate3d", "dense3d")

class ScenarioError(ValueError):
    """Malformed or inconsistent scenario content; message names the field."""


@dataclass
class Scenario:
    dim: int
    world_lo: np.ndarray
    world_hi: np.ndarray
    robot: Superquadric
    obstacles: list[Superquadric]
    start: RigidPose
    goal: RigidPose
    # forcing-term basis functions per degree of freedom; the file's one
    # param, "params": {"dmp_basis": n}
    dmp_basis: int = DEFAULT_BASIS

    @property
    def world_diagonal(self) -> float:
        return float(np.linalg.norm(self.world_hi - self.world_lo))


@dataclass
class MetricsReport:
    planning_time_s: float
    precompute_time_s: float
    arc_length_m: float
    min_distance_m: float
    fallback: bool  # the plan returned its raw demonstration
    audit: AuditStats  # the clearance audit's work counts
    min_distance_time_s: float | None  # time of the pose at the minimum


# --------------------------------------------------------------- file loading


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where}: missing required field '{key}'")
    return obj[key]


def _vector(value, dim: int, where: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: expected a numeric list") from None
    if v.shape != (dim,):
        raise ScenarioError(f"{where}: expected {dim} components, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ScenarioError(f"{where}: values must be finite")
    return v


def _superquadric(obj: dict, dim: int, where: str) -> Superquadric:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    n_eps = 1 if dim == 2 else 2
    eps = _vector(_need(obj, "eps", where), n_eps, f"{where}.eps")
    axes = _vector(_need(obj, "axes", where), dim, f"{where}.axes")
    if np.any(axes <= 0.0):
        bad = int(np.argmin(axes))
        raise ScenarioError(f"{where}.axes[{bad}]: semi-axes must be positive")
    position = _vector(_need(obj, "position", where), dim, f"{where}.position")
    rotation = obj.get("rotation")
    if rotation is not None:
        rotation = _vector(rotation, 1 if dim == 2 else 3, f"{where}.rotation")
    try:
        return Superquadric.create(eps, axes, position, rotation)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _pose(obj: dict, dim: int, where: str) -> RigidPose:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    position = _vector(_need(obj, "position", where), dim, f"{where}.position")
    rotation = obj.get("rotation")
    if rotation is not None:
        rotation = _vector(rotation, 1 if dim == 2 else 3, f"{where}.rotation")
    return RigidPose.create(position, rotation)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_basis(value, where: str) -> int:
    """value, if it is a DMP basis size; else a ScenarioError naming `where`."""
    if not (_integer(value) and 2 <= value <= MAX_BASIS):
        raise ScenarioError(f"{where}: expected an integer in [2, {MAX_BASIS}], got {value!r}")
    return value


def _dmp_basis(raw) -> int:
    """The basis size of a file's params, keys checked in file order."""
    if not isinstance(raw, dict):
        raise ScenarioError("params: expected an object")
    basis = DEFAULT_BASIS
    for key, value in raw.items():
        if key != "dmp_basis":
            raise ScenarioError(f"params.{key}: unknown parameter")
        basis = check_basis(value, "params.dmp_basis")
    return basis


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("top level: expected a JSON object")
    version = _need(data, "version", "top level")
    if not (_integer(version) and version == 1):
        raise ScenarioError(f"version: unsupported value {version!r} (expected the integer 1)")
    dim = _need(data, "dim", "top level")
    if not (_integer(dim) and dim in (2, 3)):
        raise ScenarioError(f"dim: must be the integer 2 or 3, got {dim!r}")
    world = _need(data, "world", "top level")
    if not isinstance(world, dict):
        raise ScenarioError("world: expected an object")
    lo = _vector(_need(world, "min", "world"), dim, "world.min")
    hi = _vector(_need(world, "max", "world"), dim, "world.max")
    if np.any(hi <= lo):
        raise ScenarioError("world: max must exceed min on every axis")
    robot = _superquadric(_need(data, "robot", "top level"), dim, "robot")
    raw_obstacles = _need(data, "obstacles", "top level")
    if not isinstance(raw_obstacles, list) or not raw_obstacles:
        raise ScenarioError("obstacles: expected a non-empty list")
    obstacles = [_superquadric(o, dim, f"obstacles[{k}]")
                 for k, o in enumerate(raw_obstacles)]
    start = _pose(_need(data, "start", "top level"), dim, "start")
    goal = _pose(_need(data, "goal", "top level"), dim, "goal")

    dmp_basis = _dmp_basis(data.get("params", {}))
    for label, pose in (("start", start), ("goal", goal)):
        if np.any(pose.position < lo) or np.any(pose.position > hi):
            raise ScenarioError(f"{label}.position: outside the world box")
        for k, obs in enumerate(obstacles):
            if float(inside_outside(obs, pose.position)) <= 0.0:
                raise ScenarioError(
                    f"{label}.position: inside obstacles[{k}]")
    return Scenario(dim, lo, hi, robot, obstacles, start, goal, dmp_basis)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read the file ({exc.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data)


def _sq_dict(sq: Superquadric) -> dict:
    return {"eps": sq.eps.tolist(), "axes": sq.axes.tolist(),
            "position": sq.pose.position.tolist(),
            "rotation": sq.pose.rotation.tolist()}


def scenario_to_dict(scn: Scenario) -> dict:
    return {
        "version": 1,
        "dim": scn.dim,
        "world": {"min": scn.world_lo.tolist(), "max": scn.world_hi.tolist()},
        "robot": _sq_dict(scn.robot),
        "obstacles": [_sq_dict(o) for o in scn.obstacles],
        "start": {"position": scn.start.position.tolist(),
                  "rotation": scn.start.rotation.tolist()},
        "goal": {"position": scn.goal.position.tolist(),
                 "rotation": scn.goal.rotation.tolist()},
        "params": {"dmp_basis": scn.dmp_basis},
    }


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_scenario(scn: Scenario, path: str) -> None:
    _atomic_write(path, json.dumps(scenario_to_dict(scn), indent=2,
                                   sort_keys=True) + "\n")


# --------------------------------------------------------- trajectory CSV i/o


# a trajectory CSV's header, by dimension: time, position, orientation
TRAJECTORY_COLUMNS = {2: ["t", "x", "y", "theta"], 3: ["t", "x", "y", "z", "wx", "wy", "wz"]}


def save_trajectory(trajectory: PoseTrajectory, path: str) -> None:
    """CSV with header; one row per sample, 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS[trajectory.dim])
    for i in range(len(trajectory.times)):
        row = [trajectory.times[i], *trajectory.positions[i],
               *trajectory.orientations[i]]
        writer.writerow([format(v, ".17g") for v in row])
    _atomic_write(path, buf.getvalue())


def load_trajectory(path: str) -> PoseTrajectory:
    """Read a trajectory CSV with one of the headers `save_trajectory`
    writes; a ScenarioError names the file, and the row and column of a
    field that is not a finite number."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t":
            raise ScenarioError(f"{path}: missing trajectory header row")
        dim = next((d for d, columns in TRAJECTORY_COLUMNS.items() if header == columns), None)
        if dim is None:
            raise ScenarioError(f"{path}: unrecognized column layout {header}; expected "
                                + " or ".join(",".join(c) for c in TRAJECTORY_COLUMNS.values()))
        rows = []
        for k, row in enumerate(reader):
            if len(row) != len(header):
                raise ScenarioError(f"{path}: row {k + 1} has {len(row)} "
                                    f"fields, expected {len(header)}")
            values = []
            for col, v in zip(header, row):
                try:
                    x = float(v)
                except ValueError:
                    x = math.nan
                if not math.isfinite(x):
                    raise ScenarioError(f"{path}: row {k + 1}, column '{col}': "
                                        f"expected a finite number, got {v!r}")
                values.append(x)
            rows.append(values)
    if not rows:
        raise ScenarioError(f"{path}: no samples")
    data = np.asarray(rows)
    return PoseTrajectory(data[:, 0], data[:, 1:1 + dim], data[:, 1 + dim:],
                          smoothed=True)


# ------------------------------------------------------- benchmark generators


def _box2(eps, ax, ay, cx, cy) -> Superquadric:
    return Superquadric.create([eps], [ax, ay], [cx, cy])


def _narrow2d() -> Scenario:
    """Wall of three blocks: one gap passable with margin, one too narrow."""
    robot = Superquadric.create([0.5], [0.02, 0.06], [0.14, 0.08])
    # wall at y = 0.25; gap A (0.11..0.19) clears 2*a_r1, gap B (0.335..0.365)
    # is below the passable threshold and seals under expansion
    obstacles = [
        _box2(0.2, 0.055, 0.02, 0.055, 0.25),
        _box2(0.2, 0.0725, 0.02, 0.2625, 0.25),
        _box2(0.2, 0.0675, 0.02, 0.4325, 0.25),
    ]
    return Scenario(2, np.zeros(2), np.full(2, 0.5), robot, obstacles,
                    RigidPose.create([0.14, 0.08]),
                    RigidPose.create([0.16, 0.42]))


def _t_block() -> Scenario:
    """Vertical stem under a horizontal bar; the T blocks the direct route."""
    robot = Superquadric.create([0.5], [0.02, 0.06], [0.24, 0.06])
    obstacles = [
        _box2(0.2, 0.12, 0.02, 0.25, 0.30),   # bar
        _box2(0.2, 0.02, 0.07, 0.25, 0.22),   # stem, overlapping the bar
    ]
    return Scenario(2, np.zeros(2), np.full(2, 0.5), robot, obstacles,
                    RigidPose.create([0.24, 0.06]),
                    RigidPose.create([0.24, 0.45]))


def _u_block() -> Scenario:
    """U-shaped trap opening toward the start; all three parts overlap."""
    robot = Superquadric.create([0.5], [0.02, 0.06], [0.24, 0.46])
    obstacles = [
        _box2(0.2, 0.10, 0.02, 0.25, 0.20),    # bottom bar
        _box2(0.2, 0.02, 0.09, 0.215, 0.29),   # left arm
        _box2(0.2, 0.02, 0.09, 0.285, 0.29),   # right arm
    ]
    return Scenario(2, np.zeros(2), np.full(2, 0.5), robot, obstacles,
                    RigidPose.create([0.24, 0.46]),
                    RigidPose.create([0.24, 0.06]))


def _pillars3d() -> Scenario:
    """Four wall-to-wall pillars; only the center gap admits the drone.

    Gaps are 0.4 / 1.2 / 0.4 m against drone semi-axes [0.3, 0.5, 0.9]: the
    narrow gaps close under minor-axis expansion, and the wide gap is smaller
    than the long axis, forcing the drone to roll its short axis across it.
    """
    robot = Superquadric.create([1.0, 1.0], [0.3, 0.5, 0.9], [6.0, 2.0, 6.0])
    obstacles = []
    for cx, sx in ((1.25, 1.25), (4.15, 1.25), (7.85, 1.25), (10.75, 1.25)):
        obstacles.append(Superquadric.create(
            [0.2, 0.2], [sx, 0.5, 6.0], [cx, 6.0, 6.0]))
    return Scenario(3, np.zeros(3), np.full(3, 12.0), robot, obstacles,
                    RigidPose.create([6.0, 2.0, 6.0]),
                    RigidPose.create([6.0, 10.0, 6.0]))


def _random3d(seed: int, count: int) -> Scenario:
    """Seeded random ellipsoid field in a 12 m cube.

    Obstacle centers stay in the central core so the workspace boundary (and
    hence graph connectivity) is never blocked, and clear of start and goal.
    """
    rng = np.random.default_rng([seed, count])
    robot = Superquadric.create([1.0, 1.0], [0.3, 0.5, 0.9], [1.5, 1.5, 1.5])
    start = np.array([1.5, 1.5, 1.5])
    goal = np.array([10.5, 10.5, 10.5])
    obstacles = []
    while len(obstacles) < count:
        center = rng.uniform(3.0, 9.0, 3)
        if min(np.linalg.norm(center - start),
               np.linalg.norm(center - goal)) < 3.0:
            continue
        axes = np.sort(rng.uniform(0.6, 1.5, 3))
        eps = rng.uniform(0.4, 1.6, 2)
        angle = rng.uniform(0.0, np.pi)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        obstacles.append(Superquadric.create(eps, axes, center, angle * axis))
    return Scenario(3, np.zeros(3), np.full(3, 12.0), robot, obstacles,
                    RigidPose.create(start), RigidPose.create(goal))


def generate_benchmark(name: str, seed: int = 0) -> Scenario:
    """Deterministic benchmark scene for (name, seed)."""
    if name == "narrow2d":
        return _narrow2d()
    if name == "t_block":
        return _t_block()
    if name == "u_block":
        return _u_block()
    if name == "pillars3d":
        return _pillars3d()
    if name == "moderate3d":
        return _random3d(seed, 8)
    if name == "dense3d":
        return _random3d(seed, 16)
    raise ScenarioError(f"unknown benchmark {name!r}; valid names: "
                        + ", ".join(BENCHMARK_NAMES))


# --------------------------------------------------------------- metrics


def compute_metrics(trajectory: PoseTrajectory, scenario: Scenario,
                    timings: dict) -> MetricsReport:
    """Arc length, minimum clearance and the time of its pose, the audit's
    work counts, whether the trajectory is the unsmoothed fallback, and the
    timing split of `PlanResult.timings`."""
    audit = AuditStats()
    min_distance = min_trajectory_distance(trajectory, scenario.robot,
                                           scenario.obstacles, audit)
    return MetricsReport(
        planning_time_s=float(timings.get("query_s", 0.0)),
        precompute_time_s=float(timings.get("precompute_s", 0.0)),
        arc_length_m=trajectory.arc_length(),
        min_distance_m=min_distance,
        fallback=not trajectory.smoothed,
        audit=audit,
        min_distance_time_s=(None if audit.worst_pose is None
                             else float(trajectory.times[audit.worst_pose])),
    )


def metrics_to_dict(report: MetricsReport) -> dict:
    return {
        "arc_length_m": report.arc_length_m,
        "min_distance_m": report.min_distance_m,
        "success": True,  # a report is of a planned trajectory
        "fallback": report.fallback,
        **{f"audit_{k}": v for k, v in asdict(report.audit).items() if k != "worst_pose"},
        "min_distance_time_s": report.min_distance_time_s,
        "timing": {"planning_time_s": report.planning_time_s,
                   "precompute_time_s": report.precompute_time_s},
    }
