"""Orientation planning along a roadmap path.

The robot travels along its longest axis; in 3D its shortest axis is held
normal to the bisector face that generated the current edge, which is the
direction the passage constrains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidPose, Superquadric
from .roadmap import RoadmapGraph
from .rotations import exp_so3, exp_so3_batch, log_so3

PARALLEL_TOL = 1e-6

# Maps robot local axes (semi-axes ascending: x shortest, z longest) onto the
# waypoint frame columns (r1 travel, r3 constrained normal): e1 -> r3, e3 -> r1.
_AXIS_CONVENTION = np.array([[0.0, 0.0, 1.0],
                             [0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0]])


@dataclass
class PoseWaypoint:
    position: np.ndarray
    orientation: np.ndarray  # (1,) angle in 2D, (3,) rotation vector in 3D
    segment_index: int


def heading_2d(v_i, v_next) -> float:
    """Travel direction angle of a planar segment."""
    d = np.asarray(v_next, dtype=float) - np.asarray(v_i, dtype=float)
    if np.linalg.norm(d) == 0.0:
        raise ValueError("zero-length segment has no heading")
    return float(np.arctan2(d[1], d[0]))


def frame_3d(v_i, v_next, face_normal) -> np.ndarray:
    """Rotation whose columns are (travel, binormal, face normal).

    The face normal is re-orthogonalized against the travel direction, so a
    slightly skewed clipped face still yields a proper rotation.
    """
    d = np.asarray(v_next, dtype=float) - np.asarray(v_i, dtype=float)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        raise ValueError("zero-length segment has no frame")
    r1 = d / nd
    n = np.asarray(face_normal, dtype=float)
    r3 = n - (n @ r1) * r1
    nr3 = np.linalg.norm(r3)
    if nr3 < PARALLEL_TOL:
        raise ValueError("face normal is parallel to the travel direction")
    r3 = r3 / nr3
    r2 = np.cross(r3, r1)
    return np.column_stack([r1, r2, r3])


def robot_pose_at(robot: Superquadric, position, orientation) -> Superquadric:
    """Robot posed at a waypoint: longest axis along travel, shortest on the normal."""
    orientation = np.atleast_1d(np.asarray(orientation, dtype=float))
    if robot.dim == 2:
        theta = orientation[0] - np.pi / 2.0  # local long axis is +y
        pose = RigidPose.create(position, theta)
    else:
        r = exp_so3(orientation) @ _AXIS_CONVENTION
        pose = RigidPose.create(position, log_so3(r))
    return robot.with_pose(pose)


def robot_rotations(dim: int, orientations: np.ndarray) -> np.ndarray:
    """(N, dim, dim) rotation matrices of the robot as robot_pose_at poses it.

    Built in one array pass from (N, 1) angles or (N, 3) rotation vectors,
    without the rotation-vector round trip of a RigidPose. In 2D the heading
    is wrapped as RigidPose.create wraps it, so the matrices are the same.
    """
    orientations = np.asarray(orientations, dtype=float)
    if dim == 3:
        return exp_so3_batch(orientations) @ _AXIS_CONVENTION
    theta = orientations[:, 0] - np.pi / 2.0  # local long axis is +y
    theta = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi  # as wrap_angle
    theta[theta == -np.pi] = np.pi
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _fallback_normal(r1: np.ndarray) -> np.ndarray:
    k = int(np.argmin(np.abs(r1)))
    e = np.zeros(3)
    e[k] = 1.0
    n = e - (e @ r1) * r1
    return n / np.linalg.norm(n)


def _segment_normal(edge) -> np.ndarray | None:
    """Normal of the widest-gap bisector face adjacent to the edge."""
    if edge is None or not edge.normals:
        return None
    best = sorted(edge.normals, key=lambda x: (-x[1], x[0]))[0]
    return np.asarray(best[2], dtype=float)


def plan_poses(path: list[int], graph: RoadmapGraph,
               robot: Superquadric) -> list[PoseWaypoint]:
    """One pose waypoint per path node.

    Each node takes its outgoing segment's orientation (the final node takes
    the last segment's). Segments without a bisector face (bridges, stubs,
    box-only edges) inherit the nearest face-bearing neighbor's normal.
    """
    if len(path) < 2:
        raise ValueError("path must contain at least two nodes")
    positions, edges = [graph.nodes[path[0]]], []
    for k in range(len(path) - 1):
        p = graph.nodes[path[k + 1]]
        if np.linalg.norm(p - positions[-1]) == 0.0:
            continue
        edges.append(graph.edge_between(path[k], path[k + 1]))
        positions.append(p)
    if len(positions) < 2:
        raise ValueError("path collapsed to a single point")

    n_seg = len(positions) - 1
    if robot.dim == 2:
        thetas = [heading_2d(positions[k], positions[k + 1]) for k in range(n_seg)]
        # stubs and bridges are connective tissue, not clearance-bearing
        # segments; give them the nearest cell segment's heading so the
        # interpolated rotation is not smeared across a narrow passage
        is_cell = [e is not None and e.kind == "cell" for e in edges]
        if any(is_cell):
            for k in range(n_seg):
                if is_cell[k]:
                    continue
                prev = next((j for j in range(k - 1, -1, -1) if is_cell[j]), None)
                nxt = next((j for j in range(k + 1, n_seg) if is_cell[j]), None)
                thetas[k] = thetas[prev if prev is not None else nxt]
        ways = [PoseWaypoint(positions[k], np.array([thetas[min(k, n_seg - 1)]]), min(k, n_seg - 1))
                for k in range(len(positions))]
        return ways

    raw = [_segment_normal(e) for e in edges]
    first = next((n for n in raw if n is not None), None)
    rotations = []
    prev_r3 = None
    for k in range(n_seg):
        d = positions[k + 1] - positions[k]
        r1 = d / np.linalg.norm(d)
        n = raw[k]
        if n is None:
            n = prev_r3 if prev_r3 is not None else first
            if n is None:
                n = _fallback_normal(r1)
        if prev_r3 is not None and n @ prev_r3 < 0.0:
            n = -n
        proj = n - (n @ r1) * r1
        if np.linalg.norm(proj) < PARALLEL_TOL:
            n = _fallback_normal(r1) if prev_r3 is None else prev_r3
            proj = n - (n @ r1) * r1
            if np.linalg.norm(proj) < PARALLEL_TOL:
                n = _fallback_normal(r1)
        r = frame_3d(positions[k], positions[k + 1], n)
        prev_r3 = r[:, 2]
        rotations.append(log_so3(r))
    ways = [PoseWaypoint(positions[k], rotations[min(k, n_seg - 1)], min(k, n_seg - 1))
            for k in range(len(positions))]
    return ways
