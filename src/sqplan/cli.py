"""Command-line interface: plan scenarios, run benchmark suites, emit demos.

Exit codes: 0 success; 2 scenario validation error or bad argument, such
as an --out that cannot be created; 3 no feasible passage; 4 internal
error. `bench` records every run, then exits 4 if any run raised, else 3 if
any run found no plan. Log verbosity comes from the SQPLAN_LOG environment
variable (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import pipeline, plots, scenario as scn_io
from .roadmap import graph_to_dict
from .scenario import (BENCHMARK_NAMES, Scenario, ScenarioError, check_basis,
                       compute_metrics, generate_benchmark, load_scenario,
                       metrics_to_dict, save_scenario, save_trajectory)
from .voronoi import diagram_to_dict, solve_counters

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_PATH = 3
EXIT_INTERNAL = 4

SUITES = {"2d": ("narrow2d", "t_block", "u_block"),
          "3d": ("pillars3d", "moderate3d", "dense3d"),
          "all": BENCHMARK_NAMES}

log = logging.getLogger("sqplan")


def _setup_logging():
    level = os.environ.get("SQPLAN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _make_out(path: str) -> None:
    """Create the output directory before any work; one that cannot be
    created is a bad argument."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {path}: cannot create the directory "
                            f"({exc.strerror or exc})") from None


def _write_json(path: str, payload: dict) -> None:
    scn_io._atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_one(scenario: Scenario, pre=None):
    result = pipeline.plan(scenario, pre)
    metrics = None
    if result.success:
        metrics = compute_metrics(result.trajectory, scenario, result.timings)
    return result, metrics


def cmd_plan(args) -> int:
    _make_out(args.out)
    scenario = load_scenario(args.scenario)
    if args.dmp_basis is not None:
        scenario.dmp_basis = check_basis(args.dmp_basis, "--dmp-basis")
    result, metrics = _run_one(scenario)
    if not result.success:
        _write_json(os.path.join(args.out, "metrics.json"),
                    {"success": False, "reason": result.reason})
        print(f"planning failed: {result.reason}", file=sys.stderr)
        return EXIT_NO_PATH
    save_trajectory(result.trajectory,
                    os.path.join(args.out, "trajectory.csv"))
    _write_json(os.path.join(args.out, "metrics.json"),
                metrics_to_dict(metrics))
    _write_json(os.path.join(args.out, "geometry.json"),
                {"diagram": diagram_to_dict(result.diagram),
                 "graph": graph_to_dict(result.graph)})
    if args.plot:
        if scenario.dim == 2:
            scn_io._atomic_write(os.path.join(args.out, "scene.svg"),
                                 plots.scene_svg_2d(scenario, result))
        else:
            scn_io._atomic_write(os.path.join(args.out, "scene.obj"),
                                 plots.scene_obj_3d(scenario, result))
            scn_io._atomic_write(os.path.join(args.out, "scene_topdown.svg"),
                                 plots.topdown_svg_3d(scenario, result))
    print(f"success: arc_length={metrics.arc_length_m:.4f} m  "
          f"min_distance={metrics.min_distance_m * 1000.0:.2f} mm  "
          f"query={metrics.planning_time_s:.3f} s  "
          f"precompute={metrics.precompute_time_s:.3f} s"
          + ("  (fell back to raw demonstration)" if metrics.fallback else ""))
    return EXIT_OK


def cmd_bench(args) -> int:
    """Run the suite; exit 4 if any run raised, else 3 if any found no plan."""
    _make_out(args.out)
    names = SUITES[args.suite]
    rows = []
    raised = no_plan = False
    results = {"suite": args.suite, "runs": args.runs, "seed": args.seed,
               "benchmarks": []}
    for name in names:
        scenario = generate_benchmark(name, args.seed)
        log.info("benchmark %s: %d obstacles", name, len(scenario.obstacles))
        entry = {"name": name, "runs": []}
        pre = None
        failures = 0
        for run in range(args.runs):
            try:
                if pre is None:
                    pre = pipeline.precompute(scenario)
                result, metrics = _run_one(scenario, pre)
            except Exception as exc:  # record and continue with the suite
                log.error("benchmark %s run %d failed: %s", name, run, exc)
                entry["runs"].append({"success": False, "error": str(exc)})
                failures += 1
                raised = True
                continue
            if not result.success:
                entry["runs"].append({"success": False,
                                      "reason": result.reason})
                failures += 1
                no_plan = True
                continue
            entry["runs"].append(metrics_to_dict(metrics))
        if pre is not None:
            entry["diagram"] = solve_counters(pre.diagram)
        ok = [r for r in entry["runs"] if r.get("success")]
        if ok:
            mean = entry["mean"] = {
                "arc_length_m": sum(r["arc_length_m"] for r in ok) / len(ok),
                "min_distance_m": sum(r["min_distance_m"] for r in ok) / len(ok),
                "timing": {key: sum(r["timing"][key] for r in ok) / len(ok)
                           for key in ("planning_time_s", "precompute_time_s")}}
            rows.append((name, mean["timing"]["planning_time_s"], mean["arc_length_m"],
                         mean["min_distance_m"], failures))
        else:
            rows.append((name, None, None, None, failures))
        results["benchmarks"].append(entry)
    _write_json(os.path.join(args.out, "results.json"), results)

    header = f"{'scenario':<12} {'plan time (s)':>14} {'arc length (m)':>15} {'min dist (mm)':>14}"
    print(header)
    print("-" * len(header))
    for name, t, arc, dist, failures in rows:
        if t is None:
            print(f"{name:<12} {'failed':>14}")
        else:
            suffix = f"  ({failures} failed)" if failures else ""
            print(f"{name:<12} {t:>14.3f} {arc:>15.3f} "
                  f"{dist * 1000.0:>14.2f}{suffix}")
    if raised:
        return EXIT_INTERNAL
    return EXIT_NO_PATH if no_plan else EXIT_OK


def cmd_demo(args) -> int:
    _make_out(args.out)
    scenario = generate_benchmark(args.name, args.seed)
    path = os.path.join(args.out, f"{args.name}.json")
    save_scenario(scenario, path)
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqplan",
        description="Maximum-clearance planning for superquadric robots.",
        epilog="exit codes: 0 ok, 2 validation error, 3 no feasible passage, "
               "4 internal error")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviated flags: the retired --h would otherwise read as --help

    p = sub.add_parser("plan", help="plan a scenario file", allow_abbrev=False)
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--plot", action="store_true", help="write plot files")
    p.add_argument("--dmp-basis", type=int, dest="dmp_basis",
                   help="DMP basis functions per degree of freedom, 2 to 100")
    p.set_defaults(func=cmd_plan)

    b = sub.add_parser("bench", help="run a benchmark suite", allow_abbrev=False)
    b.add_argument("--suite", choices=sorted(SUITES), default="all")
    b.add_argument("--runs", type=int, default=5, help="runs per scenario")
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)

    d = sub.add_parser("demo", help="write a benchmark scenario file", allow_abbrev=False)
    d.add_argument("--name", required=True, choices=BENCHMARK_NAMES)
    d.add_argument("--out", required=True, help="output directory")
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("runs", 1), ("seed", 0)):  # bench's and demo's counts
        if getattr(args, flag, least) < least:
            parser.error(f"argument --{flag}: expected an integer >= {least}, "
                         f"got {getattr(args, flag)}")
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
