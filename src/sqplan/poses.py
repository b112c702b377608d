"""Orientation planning along a roadmap path.

The robot travels along its longest axis; in 3D its shortest axis is held
normal to the bisector face that generated the current edge, which is the
direction the passage constrains. `plan_poses` maps the path's node
positions and the Edge rows Dijkstra took to orientation arrays, and
`robot_rotations` maps those to the robot's rotations: both halves of the
axis convention. In 3D the frames are built over the whole path at once:
the travel axes, the binormals and the rotation vectors
(`rotations.log_so3_batch`) come from array passes, and a loop over the
segments only chooses each segment's normal, since that choice reads the
previous segment's. Roadmap and diagram types are imported for type checking
only, so that the roadmap can import `clearance`, which imports this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

# exp_so3 is not used here; perfbench's traced run patches this name
from .rotations import exp_so3, exp_so3_batch, log_so3_batch  # noqa: F401

if TYPE_CHECKING:
    from .roadmap import Edge
    from .voronoi import Hyperplane

PARALLEL_TOL = 1e-6

# Maps robot local axes (semi-axes ascending: x shortest, z longest) onto the
# waypoint frame columns (r1 travel, r3 constrained normal): e1 -> r3, e3 -> r1.
_AXIS_CONVENTION = np.array([[0.0, 0.0, 1.0],
                             [0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0]])


def heading_2d(v_i, v_next) -> float:
    """Travel direction angle of a planar segment."""
    d = np.asarray(v_next, dtype=float) - np.asarray(v_i, dtype=float)
    if np.linalg.norm(d) == 0.0:
        raise ValueError("zero-length segment has no heading")
    return float(np.arctan2(d[1], d[0]))


def robot_rotations(dim: int, orientations: np.ndarray) -> np.ndarray:
    """(N, dim, dim) robot rotations: longest axis along travel, shortest on the normal.

    Built in one array pass from (N, 1) angles or (N, 3) rotation vectors,
    without the rotation-vector round trip of a RigidPose. In 2D the heading
    is wrapped as RigidPose.create wraps it, so the matrices are a pose's.
    """
    orientations = np.asarray(orientations, dtype=float)
    if dim == 3:
        return exp_so3_batch(orientations) @ _AXIS_CONVENTION
    theta = orientations[:, 0] - np.pi / 2.0  # local long axis is +y
    theta = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi  # as wrap_angle
    theta[theta == -np.pi] = np.pi
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _rejection(n: np.ndarray, r1: np.ndarray) -> tuple[np.ndarray, float]:
    """n's component normal to the unit vector r1, and its norm."""
    proj = n - (n @ r1) * r1
    return proj, np.sqrt(proj @ proj)


def _fallback_normal(r1: np.ndarray) -> np.ndarray:
    e = np.zeros(3)
    e[np.argmin(np.abs(r1))] = 1.0
    proj, norm = _rejection(e, r1)
    return proj / norm


def _segment_normal(edge: Edge, hyperplanes: list[Hyperplane]) -> np.ndarray | None:
    """Normal of the widest-gap bisector face adjacent to the edge, ties to
    the lowest hyperplane id."""
    if not edge.faces:
        return None
    best = min(edge.faces, key=lambda t: (-hyperplanes[t].witness_distance, t))
    return hyperplanes[best].normal


def plan_poses(nodes: np.ndarray, edges: list[Edge],
               hyperplanes: list[Hyperplane]) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n, dim) and orientations (n, 1 or 3) of the robot at the
    n path nodes, given the n - 1 Edge rows the path took between them.

    Each node takes its outgoing segment's orientation (the final node takes
    the last segment's). In 3D a segment's bisector faces are the
    hyperplanes its edge names by id. Segments without a bisector face
    (bridges, stubs, box-only edges) inherit the nearest face-bearing
    neighbor's normal.
    """
    positions = np.asarray(nodes, dtype=float)
    if len(positions) < 2:
        raise ValueError("path must contain at least two nodes")
    n_seg = len(edges)
    if positions.shape[1] == 2:
        thetas = [heading_2d(positions[k], positions[k + 1]) for k in range(n_seg)]
        # stubs and bridges are connective tissue, not clearance-bearing
        # segments; give them the nearest cell segment's heading so the
        # interpolated rotation is not smeared across a narrow passage
        is_cell = [e.kind == "cell" for e in edges]
        if any(is_cell):
            for k in range(n_seg):
                if is_cell[k]:
                    continue
                prev = next((j for j in range(k - 1, -1, -1) if is_cell[j]), None)
                nxt = next((j for j in range(k + 1, n_seg) if is_cell[j]), None)
                thetas[k] = thetas[prev if prev is not None else nxt]
        return positions, np.array(thetas + thetas[-1:])[:, None]

    d = np.diff(positions, axis=0)
    # d.d as a matmul rounds like np.linalg.norm of a single vector
    r1 = d / np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
    raw = [_segment_normal(e, hyperplanes) for e in edges]
    first = next((n for n in raw if n is not None), None)
    r3 = np.empty_like(r1)
    prev_r3 = None
    for k in range(n_seg):
        n = raw[k]
        if n is None:
            n = prev_r3 if prev_r3 is not None else first
            if n is None:
                n = _fallback_normal(r1[k])
        if prev_r3 is not None and n @ prev_r3 < 0.0:
            n = -n
        proj, norm = _rejection(n, r1[k])
        if norm < PARALLEL_TOL:
            proj, norm = _rejection(_fallback_normal(r1[k]) if prev_r3 is None else prev_r3,
                                    r1[k])
            if norm < PARALLEL_TOL:
                proj, norm = _rejection(_fallback_normal(r1[k]), r1[k])
        # the normal re-orthogonalised against the travel axis, which the
        # next segment's choice reads
        prev_r3 = r3[k] = proj / norm
    # frames with columns (travel, binormal, normal)
    rotvecs = log_so3_batch(np.stack([r1, np.cross(r3, r1), r3], axis=2))
    return positions, np.concatenate([rotvecs, rotvecs[-1:]])
