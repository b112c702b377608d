"""Static plot files for planning results.

2D scenes render to layered SVG (one group per pipeline stage); 3D scenes
export an OBJ file with obstacle meshes and path polylines plus a top-down
SVG projection.
"""

from __future__ import annotations

import numpy as np

from .geometry import Superquadric, surface_point, surface_samples
from .pipeline import PlanResult
from .scenario import Scenario

SVG_SIZE = 800.0
MESH_RES = 24  # rows and columns of an obstacle mesh in the OBJ export


def _svg_path(points: np.ndarray, closed: bool) -> str:
    cmds = [f"{'M' if k == 0 else 'L'} {p[0]:.3f} {p[1]:.3f}"
            for k, p in enumerate(points)]
    d = " ".join(cmds) + (" Z" if closed else "")
    return f'<path d="{d}"/>'


class _Frame2D:
    """Maps world coordinates to SVG pixels (y axis flipped)."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        span = np.asarray(hi, dtype=float) - self.lo
        self.scale = SVG_SIZE / float(np.max(span))
        self.height = float(span[1]) * self.scale
        self.width = float(span[0]) * self.scale

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = (pts - self.lo) * self.scale
        out[:, 1] = self.height - out[:, 1]
        return out


def _svg(frame: _Frame2D, groups) -> str:
    """SVG document of the frame's size: a framed white ground, then one
    <g> per (attributes, elements) group, in order."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{frame.width:.0f}" height="{frame.height:.0f}" '
        f'viewBox="0 0 {frame.width:.3f} {frame.height:.3f}">',
        f'<rect width="{frame.width:.3f}" height="{frame.height:.3f}" '
        f'fill="white" stroke="black"/>',
    ]
    for attributes, elements in groups:
        parts += [f"<g {attributes}>", *elements, "</g>"]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _graph_paths(frame: _Frame2D, result: PlanResult) -> list[str]:
    """The live roadmap edges, projected onto the frame's first two axes."""
    nodes = result.graph.nodes
    return [_svg_path(frame(np.array([nodes[e.u][:2], nodes[e.v][:2]])), False)
            for e in result.graph.live_edges()]


def scene_svg_2d(scenario: Scenario, result: PlanResult) -> str:
    """Layered SVG: obstacles, expansion, cells, graph, raw and smooth paths."""
    frame = _Frame2D(scenario.world_lo, scenario.world_hi)
    groups = [
        ('id="expanded-obstacles" fill="#dce6f2" stroke="none"',
         [_svg_path(frame(surface_samples(sq, 128)), True)
          for sq in result.diagram.expanded]),
        ('id="obstacles" fill="#5b7aa0" stroke="black" stroke-width="1"',
         [_svg_path(frame(surface_samples(sq, 128)), True)
          for sq in scenario.obstacles]),
        ('id="cells" stroke="#b08040" stroke-width="1" stroke-dasharray="6 4" '
         'fill="none"',
         [_svg_path(frame(np.array([cell.vertices[u], cell.vertices[v]])), False)
          for cell in result.diagram.cells for u, v, _tags in cell.edges]),
        ('id="graph" stroke="#70a070" stroke-width="1.5" fill="none"',
         _graph_paths(frame, result)),
    ]
    if result.demonstration is not None:
        groups.append(('id="raw-path" stroke="#c04040" stroke-width="2" fill="none"',
                       [_svg_path(frame(result.demonstration.positions), False)]))
    if result.trajectory is not None:
        groups.append(('id="smoothed-path" stroke="#2040c0" stroke-width="2" fill="none"',
                       [_svg_path(frame(result.trajectory.positions), False)]))
    circles = [f'<circle cx="{c[0]:.3f}" cy="{c[1]:.3f}" r="5"/>'
               for c in (frame(scenario.start.position)[0],
                         frame(scenario.goal.position)[0])]
    return _svg(frame, groups + [('id="terminals" fill="black"', circles)])


def topdown_svg_3d(scenario: Scenario, result: PlanResult) -> str:
    """Orthographic top-down (x-y) projection of a 3D scene."""
    frame = _Frame2D(scenario.world_lo[:2], scenario.world_hi[:2])
    groups = [
        ('id="obstacles" fill="#5b7aa0" fill-opacity="0.6" stroke="black" '
         'stroke-width="1"',
         [_svg_path(frame(_convex_hull_2d(surface_samples(sq, 24)[:, :2])), True)
          for sq in scenario.obstacles]),
        ('id="graph" stroke="#70a070" stroke-width="1" fill="none"',
         _graph_paths(frame, result)),
    ]
    if result.trajectory is not None:
        groups.append(('id="smoothed-path" stroke="#2040c0" stroke-width="2" fill="none"',
                       [_svg_path(frame(result.trajectory.positions[:, :2]), False)]))
    return _svg(frame, groups)


def _convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def scene_obj_3d(scenario: Scenario, result: PlanResult) -> str:
    """Wavefront OBJ: obstacle meshes, roadmap polylines, and the path."""
    lines = ["# sqplan scene export"]
    base = 1

    def add_mesh(sq: Superquadric, name: str):
        nonlocal base
        lines.append(f"o {name}")
        eta = np.linspace(-np.pi / 2.0, np.pi / 2.0, MESH_RES)
        om = np.linspace(-np.pi, np.pi, MESH_RES)
        ee, oo = np.meshgrid(eta, om, indexing="ij")
        pts = surface_point(sq, np.stack([ee, oo], axis=-1)).reshape(-1, 3)
        for p in pts:
            lines.append(f"v {p[0]:.6f} {p[1]:.6f} {p[2]:.6f}")
        for i in range(MESH_RES - 1):
            for j in range(MESH_RES - 1):
                a = base + i * MESH_RES + j
                b = a + 1
                c = a + MESH_RES + 1
                d = a + MESH_RES
                lines.append(f"f {a} {b} {c} {d}")
        base += len(pts)

    def add_polyline(points: np.ndarray, name: str):
        nonlocal base
        lines.append(f"o {name}")
        for p in points:
            lines.append(f"v {p[0]:.6f} {p[1]:.6f} {p[2]:.6f}")
        idx = " ".join(str(base + k) for k in range(len(points)))
        lines.append(f"l {idx}")
        base += len(points)

    for k, sq in enumerate(scenario.obstacles):
        add_mesh(sq, f"obstacle_{k}")
    for k, edge in enumerate(result.graph.live_edges()):
        add_polyline(np.array([result.graph.nodes[edge.u],
                               result.graph.nodes[edge.v]]), f"edge_{k}")
    raw = result.demonstration
    if raw is not None:
        add_polyline(raw.positions, "raw_path")
    if result.trajectory is not None:
        add_polyline(result.trajectory.positions, "smoothed_path")
    return "\n".join(lines) + "\n"
