"""The passability report on the 3D pillar row (`test_passability.pillar_row`).

For each gap width g, upright and tilted by 30 degrees, it plans the row and
prints whether the plan succeeded (or why not), whether it fell back to the
raw demonstration, how far the posed drone reaches past a world wall
(`box_exit`), where the trajectory crosses the row's plane y = 6 (its height
z, and its offset from the gap's centre line across the gap), its certified
clearance and its arc length. The drone passes a gap exactly when its
shortest semi-axis fits, g >= 0.6 m; then clearance g/2 - 0.3 m would mean
a crossing at the gap's middle.

Run from the repository root:

    PYTHONPATH=src python tests/pillar_row_report.py
"""

import numpy as np

from sqplan.pipeline import plan
from sqplan.scenario import min_trajectory_distance
from test_passability import DRONE_MIN, box_exit, pillar_row

GAPS = [0.54, 0.585, 0.63, 0.75, 1.2, 1.8, 2.4]
TILTS = [0.0, np.pi / 6.0]


def crossing(trajectory, tilt):
    """Height z and across-gap offset where the trajectory first reaches y = 6."""
    p = trajectory.positions
    k = int(np.argmax(p[:, 1] >= 6.0))
    a, b = p[k - 1], p[k]
    point = a + (6.0 - a[1]) / (b[1] - a[1]) * (b - a)
    across = np.array([np.cos(tilt), 0.0, -np.sin(tilt)])
    return point[2], float((point - 6.0) @ across)


def main():
    print(f"{'tilt':>5} {'g':>6} {'outcome':>20} {'fallback':>8} {'box exit':>9} "
          f"{'height':>7} {'offset':>8} {'clearance':>10} {'g/2-a':>7} {'arc':>7}")
    for tilt in TILTS:
        for g in GAPS:
            scn = pillar_row(g, tilt)
            head = f"{np.degrees(tilt):5.0f} {g:6.3f}"
            try:
                result = plan(scn)
            except RuntimeError as error:
                print(f"{head} {'raised':>20}  {error}")
                continue
            if not result.success:
                print(f"{head} {result.reason:>20}")
                continue
            trajectory = result.trajectory
            height, offset = crossing(trajectory, tilt)
            clearance = min_trajectory_distance(trajectory, scn.robot, scn.obstacles)
            print(f"{head} {'success':>20} {str(result.validation.fallback):>8} "
                  f"{box_exit(scn, trajectory):9.4f} {height:7.3f} {offset:8.4f} "
                  f"{clearance:10.5f} {g / 2.0 - DRONE_MIN:7.4f} {trajectory.arc_length():7.3f}")


if __name__ == "__main__":
    main()
