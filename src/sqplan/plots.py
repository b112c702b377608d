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


def _svg_path(points: np.ndarray, closed: bool) -> str:
    cmds = [f"{'M' if k == 0 else 'L'} {p[0]:.3f} {p[1]:.3f}"
            for k, p in enumerate(points)]
    return " ".join(cmds) + (" Z" if closed else "")


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


def _polygon(sq: Superquadric, n: int = 128) -> np.ndarray:
    return surface_samples(sq, n)


def scene_svg_2d(scenario: Scenario, result: PlanResult) -> str:
    """Layered SVG: obstacles, expansion, cells, graph, raw and smooth paths."""
    frame = _Frame2D(scenario.world_lo, scenario.world_hi)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{frame.width:.0f}" height="{frame.height:.0f}" '
        f'viewBox="0 0 {frame.width:.3f} {frame.height:.3f}">',
        f'<rect width="{frame.width:.3f}" height="{frame.height:.3f}" '
        f'fill="white" stroke="black"/>',
    ]

    parts.append('<g id="expanded-obstacles" fill="#dce6f2" stroke="none">')
    for sq in result.diagram.expanded:
        parts.append(f'<path d="{_svg_path(frame(_polygon(sq)), True)}"/>')
    parts.append("</g>")

    parts.append('<g id="obstacles" fill="#5b7aa0" stroke="black" '
                 'stroke-width="1">')
    for sq in scenario.obstacles:
        parts.append(f'<path d="{_svg_path(frame(_polygon(sq)), True)}"/>')
    parts.append("</g>")

    parts.append('<g id="cells" stroke="#b08040" stroke-width="1" '
                 'stroke-dasharray="6 4" fill="none">')
    for cell in result.diagram.cells:
        for u, v, _tags in cell.edges:
            seg = frame(np.array([cell.vertices[u], cell.vertices[v]]))
            parts.append(f'<path d="{_svg_path(seg, False)}"/>')
    parts.append("</g>")

    parts.append('<g id="graph" stroke="#70a070" stroke-width="1.5" '
                 'fill="none">')
    for edge in result.graph.live_edges():
        seg = frame(np.array([result.graph.nodes[edge.u],
                              result.graph.nodes[edge.v]]))
        parts.append(f'<path d="{_svg_path(seg, False)}"/>')
    parts.append("</g>")

    raw = result.demonstration
    if raw is not None:
        parts.append('<g id="raw-path" stroke="#c04040" stroke-width="2" '
                     'fill="none">')
        parts.append(f'<path d="{_svg_path(frame(raw.positions), False)}"/>')
        parts.append("</g>")
    if result.trajectory is not None:
        parts.append('<g id="smoothed-path" stroke="#2040c0" '
                     'stroke-width="2" fill="none">')
        parts.append(
            f'<path d="{_svg_path(frame(result.trajectory.positions), False)}"/>')
        parts.append("</g>")

    parts.append('<g id="terminals" fill="black">')
    for p, r in ((scenario.start.position, 5), (scenario.goal.position, 5)):
        c = frame(p)[0]
        parts.append(f'<circle cx="{c[0]:.3f}" cy="{c[1]:.3f}" r="{r}"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def topdown_svg_3d(scenario: Scenario, result: PlanResult) -> str:
    """Orthographic top-down (x-y) projection of a 3D scene."""
    frame = _Frame2D(scenario.world_lo[:2], scenario.world_hi[:2])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{frame.width:.0f}" height="{frame.height:.0f}" '
        f'viewBox="0 0 {frame.width:.3f} {frame.height:.3f}">',
        f'<rect width="{frame.width:.3f}" height="{frame.height:.3f}" '
        f'fill="white" stroke="black"/>',
    ]
    parts.append('<g id="obstacles" fill="#5b7aa0" fill-opacity="0.6" '
                 'stroke="black" stroke-width="1">')
    for sq in scenario.obstacles:
        pts = surface_samples(sq, 24)[:, :2]
        hull = _convex_hull_2d(pts)
        parts.append(f'<path d="{_svg_path(frame(hull), True)}"/>')
    parts.append("</g>")
    parts.append('<g id="graph" stroke="#70a070" stroke-width="1" fill="none">')
    for edge in result.graph.live_edges():
        seg = frame(np.array([result.graph.nodes[edge.u][:2],
                              result.graph.nodes[edge.v][:2]]))
        parts.append(f'<path d="{_svg_path(seg, False)}"/>')
    parts.append("</g>")
    if result.trajectory is not None:
        parts.append('<g id="smoothed-path" stroke="#2040c0" '
                     'stroke-width="2" fill="none">')
        parts.append(
            f'<path d="{_svg_path(frame(result.trajectory.positions[:, :2]), False)}"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _convex_hull_2d(pts: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def scene_obj_3d(scenario: Scenario, result: PlanResult, res: int = 24) -> str:
    """Wavefront OBJ: obstacle meshes, roadmap polylines, and the path."""
    lines = ["# sqplan scene export"]
    base = 1

    def add_mesh(sq: Superquadric, name: str):
        nonlocal base
        lines.append(f"o {name}")
        eta = np.linspace(-np.pi / 2.0, np.pi / 2.0, res)
        om = np.linspace(-np.pi, np.pi, res)
        ee, oo = np.meshgrid(eta, om, indexing="ij")
        pts = surface_point(sq, np.stack([ee, oo], axis=-1)).reshape(-1, 3)
        for p in pts:
            lines.append(f"v {p[0]:.6f} {p[1]:.6f} {p[2]:.6f}")
        for i in range(res - 1):
            for j in range(res - 1):
                a = base + i * res + j
                b = a + 1
                c = a + res + 1
                d = a + res
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
