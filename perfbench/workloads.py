"""One benchmark workload in this process; run it through run.py.

Every workload is one closed-loop client on one thread: it sends the next
operation only when the previous one has returned. It reaches the planner
only through scenario_from_dict -> precompute -> plan -> compute_metrics.

The timed phase is a sequence of rounds of fixed work (a pass over the
build3d scene list, or a batch of queries); a new round starts only while
the previous round's duration still fits in --seconds, and at least one
round runs.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import scenes
from spans import Tracer

import sqplan
from sqplan import pipeline, scenario as sq_scenario
from sqplan.geometry import inside_outside

ENDPOINT_TOL = 1e-3      # share of the world diagonal
BUILD3D_EXTRA_QUERIES = 3  # unaudited random plans per field
QUERY3D_BATCH = 8        # queries per round
QUERY2D_BATCH = 32
QUERY3D_SETUPS = 5       # timed precompute repetitions for setup_s
QUERY2D_SETUPS = 21
QUERY_AUDITS = 3         # audits of the reference plan after the query loop
FINGERPRINT_OPS = 16     # leading operations listed in the fingerprint
REFERENCE_S = 0.0005     # nominal duration of one probe kernel
PROBE_INTERVAL_S = 0.05  # probe period
PROBE_WINDOW_S = 0.5     # least span of probes behind a normalised time
PROBE_TRIM = 0.2         # share of probes cut from each end before the mean

END_TO_END_UNITS = {"setup_s": "s", "plan_p50_s": "s", "plan_p90_s": "s",
                    "audit_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


class Clock:
    """Operation times normalised to a fixed reference speed.

    The speed of a core of the host drifts by up to 2x over seconds to
    minutes (other tenants share it), which moves every timing alike and
    dominates the spread between runs. While the workload runs, an interval
    timer interrupts it every PROBE_INTERVAL_S and times a fixed
    numpy/Python kernel that does not touch sqplan, on the same core. An
    operation's time is its wall time minus the time spent in those probes,
    scaled by REFERENCE_S over the mean kernel time of the probes taken
    during the operation, or within PROBE_WINDOW_S around its midpoint when
    the operation is shorter. The mean, because an operation's time sums the
    core's speed over its whole duration; trimmed, because a probe that an
    interrupt or a context switch stretched says nothing about that speed;
    and a window of at least ten probes, because fewer are too noisy.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.normal(size=(3, 3))
        self._x = rng.normal(size=(64, 3))
        self._angles = rng.uniform(-1.5, 1.5, size=(256, 2))
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.probe_s = 0.0
        for _ in range(20):
            self._kernel()

    def _kernel(self) -> float:
        """Small-array steps in a Python loop, then surface-point-like
        trigonometry and powers on a few hundred rows: the two kinds of
        work the planner spends its time in."""
        y, acc = self._x, 0.0
        for _ in range(30):
            y = np.sign(y) * np.abs(y @ self._m) ** 0.5
            acc += float(np.sum(y))
        for _ in range(3):
            c, s = np.cos(self._angles), np.sin(self._angles)
            p = np.sign(c) * np.abs(c) ** 0.7 * np.sign(s) * np.abs(s) ** 1.3
            acc += float(np.sum((p @ self._m[:2, :2]) ** 2))
        return acc

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.kernel_s.append(t1 - t0)
        self.probe_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """(result, exception, (start, end, seconds)) of fn(*args); seconds
        exclude the probes."""
        result, error = None, None
        probe0 = self.probe_s
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller records it as a failure
            error = exc
        t1 = time.perf_counter()
        return result, error, (t0, t1, t1 - t0 - (self.probe_s - probe0))

    def normalise(self, t0: float, t1: float, seconds: float) -> float:
        mid = 0.5 * (t0 + t1)
        lo = bisect.bisect_left(self.at, min(t0, mid - PROBE_WINDOW_S / 2))
        hi = bisect.bisect_right(self.at, max(t1, mid + PROBE_WINDOW_S / 2))
        window = sorted(self.kernel_s[lo:hi] or self.kernel_s)
        cut = int(len(window) * PROBE_TRIM)
        return (seconds * REFERENCE_S
                / statistics.mean(window[cut:len(window) - cut]))


class Run:
    """Outcomes, timings and failure reasons of one workload run.

    Every timed operation is kept as (kind, group, start, end, seconds) and
    normalised when the run ends, once the probes after it exist too. The
    group is the round inside the timed rounds; outside them each operation
    is a group of its own. An untraced run normalises its times with the
    probes; a traced run reports wall time and takes no probes, which would
    land inside its spans.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.clock = Clock()
        self.normalised = tracer is None
        self.ops: list[tuple[str, int, float, float, float]] = []
        self.round = -1
        self.n_rounds = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong = 0
        self.fallbacks = 0
        self.successes = 0
        self.audits = 0
        self.units = 0  # per-layer metrics are per unit: field or query
        self.graphs: list[tuple[int, int, int, int]] = []
        self.arc_m: list[float] = []
        self.clearance_m: list[float] = []

    def scope(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_scope(name)

    def timed(self, kind: str, scope: str, fn, *args):
        """fn(*args) under a trace scope, kept as a timed op of this kind:
        (result, exception)."""
        self.scope(scope)
        result, error, times = self.clock.measure(fn, *args)
        self.scope("bench")
        group = self.round if self.round >= 0 else -1 - len(self.ops)
        self.ops.append((kind, group) + times)
        return result, error

    def rounds(self, seconds: float, body) -> None:
        """Run body() as whole rounds while the last round still fits."""
        t_start = time.perf_counter()
        last = 0.0
        while self.n_rounds == 0 or (time.perf_counter() - t_start + last
                                     <= seconds):
            t0 = time.perf_counter()
            self.round = self.n_rounds
            body()
            self.n_rounds += 1
            last = time.perf_counter() - t0
        self.round = -1

    def seconds(self, op, normalised: bool) -> float:
        if normalised:
            return self.clock.normalise(*op[2:])
        return op[4]

    def values(self, kind: str, normalised: bool) -> list[float]:
        """Seconds of every kept operation of this kind."""
        return [self.seconds(op, normalised) for op in self.ops
                if op[0] == kind]

    def group_totals(self, kind: str, normalised: bool) -> list[float]:
        """Seconds spent in operations of this kind, per group."""
        totals: dict[int, float] = {}
        for op in self.ops:
            if op[0] == kind:
                totals[op[1]] = (totals.get(op[1], 0.0)
                                 + self.seconds(op, normalised))
        return list(totals.values())

    def total_s(self, normalised: bool) -> float:
        """Mean over timed rounds of the seconds spent in a round's operations."""
        return sum(self.seconds(op, normalised) for op in self.ops
                   if op[1] >= 0) / self.n_rounds

    def fail(self, reason: str, wrong_output: bool = False) -> None:
        self.failures.append(reason)
        self.wrong += wrong_output

    def record_graph(self, pre) -> None:
        d, g = pre.diagram, pre.graph
        self.graphs.append((len(d.clusters), len(d.hyperplanes),
                            len(g.nodes), len(g.live_edges())))

    def plan(self, scn, pre):
        """Timed plan plus output checks; returns the result or None.

        A failed plan's time is kept apart from the latency samples, which
        hold successful plans only, and counts in its round's total.
        """
        self.attempted += 1
        result, error = self.timed("plan", "op", pipeline.plan, scn, pre)
        if error is not None:
            reason = f"exception {type(error).__name__}: {error}"
        elif not result.success:
            reason = f"no plan: {result.reason}"
        else:
            reason = check_trajectory(scn, result.trajectory)
        if reason is not None:
            self.fail(reason, wrong_output=error is None and result.success)
            self.ops[-1] = ("failed",) + self.ops[-1][1:]
            return None
        self.successes += 1
        self.fallbacks += bool(result.validation.fallback)
        if len(self.arc_m) < FINGERPRINT_OPS:
            self.arc_m.append(round(result.trajectory.arc_length(), 3))
        return result

    def audit(self, scn, result) -> None:
        """Timed compute_metrics, whose clearance must be positive."""
        self.attempted += 1
        self.audits += 1
        report, error = self.timed("audit", "audit", sq_scenario.compute_metrics,
                                   result.trajectory, scn, result.timings)
        if error is not None:
            self.fail(f"audit exception {type(error).__name__}: {error}")
        elif not report.min_distance_m > 0.0:
            self.fail(f"audit clearance {report.min_distance_m} <= 0",
                      wrong_output=True)
        elif len(self.clearance_m) < FINGERPRINT_OPS:
            self.clearance_m.append(round(report.min_distance_m, 3))

    def timings(self, normalised: bool) -> dict:
        """End-to-end time metrics, NaN where there are no samples.

        setup_s and audit_s are medians over groups: one build3d round
        (every field once), or one call on the query workloads.
        """
        plans = self.values("plan", normalised)
        return {"setup_s": median(self.group_totals("setup", normalised)),
                "plan_p50_s": percentile(plans, 50),
                "plan_p90_s": percentile(plans, 90),
                "audit_s": median(self.group_totals("audit", normalised)),
                "total_s": (self.total_s(normalised) if self.n_rounds
                            else math.nan)}


def check_trajectory(scn, traj) -> str | None:
    """Reason the returned trajectory is wrong, or None."""
    arrays = (traj.times, traj.positions, traj.orientations)
    if len(traj.times) == 0 or not all(np.all(np.isfinite(a)) for a in arrays):
        return "non-finite or empty trajectory"
    tol = ENDPOINT_TOL * scn.world_diagonal
    if np.linalg.norm(traj.positions[0] - scn.start.position) > tol:
        return "trajectory does not start at the start"
    if np.linalg.norm(traj.positions[-1] - scn.goal.position) > tol:
        return "trajectory does not end at the goal"
    for k, obs in enumerate(scn.obstacles):
        if np.any(inside_outside(obs, traj.positions) <= 0.0):
            return f"robot centre inside obstacle {k}"
    return None


def build3d(run: Run, seed: int, seconds: float) -> None:
    """New random 3D scenes: precompute, an audited plan, a few more plans."""
    fields = [scenes.random_field(s, c) for s, c in scenes.BUILD3D_FIELDS]
    samplers = [scenes.QuerySampler(f, scenes.field_regions(), [seed, k])
                for k, f in enumerate(fields)]
    order = np.random.default_rng(seed).permutation(len(fields))
    run.scope("warmup")
    warm = sq_scenario.scenario_from_dict(
        scenes.random_field(*scenes.WARMUP_FIELD))
    pipeline.plan(warm, pipeline.precompute(warm))
    run.scope("bench")

    def one_pass():
        for k in order:
            run.units += 1
            scn = sq_scenario.scenario_from_dict(fields[k])
            run.attempted += 1
            pre, error = run.timed("setup", "op", pipeline.precompute, scn)
            if error is not None:
                run.fail(f"precompute exception {type(error).__name__}: "
                         f"{error}")
                continue
            run.record_graph(pre)
            result = run.plan(scn, pre)
            if result is not None:
                run.audit(scn, result)
            for _ in range(BUILD3D_EXTRA_QUERIES):
                run.plan(sq_scenario.scenario_from_dict(samplers[k].next()),
                         pre)

    run.rounds(seconds, one_pass)


def query_stream(run: Run, seed: int, seconds: float, scene: dict, regions,
                 batch: int, setups: int) -> None:
    """One precomputed scene, then a stream of random start/goal plans."""
    base = sq_scenario.scenario_from_dict(scene)
    run.scope("warmup")
    reference = pipeline.plan(base, pipeline.precompute(base))
    pre = None
    for _ in range(setups):
        run.attempted += 1
        done, error = run.timed("setup", "setup", pipeline.precompute, base)
        if error is not None:
            run.fail(f"precompute exception {type(error).__name__}: {error}")
        else:
            pre = done
    if pre is None:
        return
    run.record_graph(pre)
    sampler = scenes.QuerySampler(scene, regions, seed)

    def one_batch():
        for _ in range(batch):
            run.plan(sq_scenario.scenario_from_dict(sampler.next()), pre)

    run.rounds(seconds, one_batch)
    run.units = sum(op[0] in ("plan", "failed") for op in run.ops)
    # The audit runs after the timed loop, so proximity does no work inside
    # it, and on the scene's own fixed start/goal plan: audit cost depends
    # strongly on the trajectory, and a random one would make audit_s vary
    # with the seed far beyond its bound.
    for _ in range(QUERY_AUDITS):
        if reference.success:
            run.audit(base, reference)
        else:
            run.attempted += 1
            run.fail(f"no plan for the reference query: {reference.reason}")


def percentile(values, q: float) -> float:
    if not values:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(run: Run) -> dict:
    out = run.timings(normalised=True)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    return out


# (module attribute patched, span name); each importing module's binding
SPANS = [
    ("sqplan.pipeline.precompute", "pipeline.precompute"),
    ("sqplan.pipeline.plan", "pipeline.plan"),
    ("sqplan.pipeline.build_diagram", "voronoi.build_diagram"),
    ("sqplan.pipeline.build_graph", "roadmap.build_graph"),
    ("sqplan.pipeline.project_terminal", "roadmap.project_terminal"),
    ("sqplan.pipeline.shortest_path", "roadmap.shortest_path"),
    ("sqplan.pipeline.plan_poses", "poses.plan_poses"),
    ("sqplan.pipeline.interpolate_waypoints", "dmp.interpolate_waypoints"),
    ("sqplan.pipeline.fit_lwr", "dmp.fit_lwr"),
    ("sqplan.pipeline.rollout", "dmp.rollout"),
    ("sqplan.pipeline.validate_and_finalize", "dmp.validate_and_finalize"),
    ("sqplan.dmp.trajectory_collides", "dmp.trajectory_collides"),
    ("sqplan.voronoi.build_clusters", "voronoi.build_clusters"),
    ("sqplan.voronoi.separating_hyperplane", "voronoi.separating_hyperplane"),
    ("sqplan.voronoi.build_cell", "voronoi.build_cell"),
    ("sqplan.voronoi.closest_pair", "proximity.closest_pair"),
    ("sqplan.voronoi.overlaps", "proximity.overlaps"),
    ("sqplan.voronoi.clip_polygon", "polytope.clip"),
    ("sqplan.voronoi.clip_polyhedron", "polytope.clip"),
    ("sqplan.scenario.compute_metrics", "scenario.compute_metrics"),
    ("sqplan.scenario.min_trajectory_distance",
     "scenario.min_trajectory_distance"),
    ("sqplan.scenario.closest_pair", "proximity.closest_pair"),
    ("sqplan.geometry.exp_so3", "rotations.exp_so3"),
    ("sqplan.poses.exp_so3", "rotations.exp_so3"),
]


def _count_rows(name: str, coords_of):
    def on_call(tracer, args):
        tracer.count(name, np.size(args[1]) // coords_of(args[0]))
    return on_call


def _on_result(name: str):
    if name == "proximity.closest_pair":
        return lambda t, a, r: t.count("proximity.closest_pair.nonconverged",
                                       not r.converged)
    if name == "polytope.clip":
        return lambda t, a, r: t.count("polytope.clip.changed", bool(r[2]))
    if name == "dmp.rollout":
        return lambda t, a, r: t.count("dmp.rollout.steps", len(r.times))
    return None


def install_tracing(tracer: Tracer) -> None:
    for target, name in SPANS:
        tracer.patch(target, lambda fn, n=name: tracer.span(n, fn, _on_result(n)))
    # angles are (..., 2) in 3D and (...,) in 2D; points are (..., dim)
    tracer.patch("sqplan.proximity.surface_point", lambda fn: tracer.counter(
        fn, _count_rows("proximity.surface_points", lambda sq: sq.dim - 1)))
    tracer.patch("sqplan.dmp.inside_outside", lambda fn: tracer.counter(
        fn, _count_rows("dmp.validation_points", lambda sq: sq.dim)))


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the timed phase, per field (build3d) or per
    query (query3d, query2d); the scenario.* ones are per audit."""
    tr = run.tracer
    spans = tr.summary()
    n_ops = max(run.units, 1)
    n_audits = max(run.audits, 1)

    def span(name, field, scope="op", per=n_ops):
        return spans.get((scope, name), {}).get(field, 0) / per

    def count(name, scope="op", per=n_ops):
        return tr.counts.get((scope, name), 0.0) / per

    def share(part, whole, empty):
        return part / whole if whole else empty

    cp_calls = span("proximity.closest_pair", "calls", per=1)
    clip_calls = span("polytope.clip", "calls", per=1)
    out = {
        "proximity.closest_pair.calls": cp_calls / n_ops,
        "proximity.closest_pair.self_s": span("proximity.closest_pair", "self_s"),
        "proximity.closest_pair.nonconverged":
            count("proximity.closest_pair.nonconverged"),
        "proximity.closest_pair.converged_share": share(
            cp_calls - count("proximity.closest_pair.nonconverged", per=1),
            cp_calls, 1.0),
        "proximity.surface_points": count("proximity.surface_points"),
        "proximity.overlaps.calls": span("proximity.overlaps", "calls"),
        "proximity.overlaps.self_s": span("proximity.overlaps", "self_s"),
        "rotations.exp_so3.calls": span("rotations.exp_so3", "calls"),
        "rotations.exp_so3.self_s": span("rotations.exp_so3", "self_s"),
        "voronoi.build_diagram.self_s": span("voronoi.build_diagram", "self_s"),
        "voronoi.build_clusters.self_s": span("voronoi.build_clusters", "self_s"),
        "voronoi.separating_hyperplane.calls":
            span("voronoi.separating_hyperplane", "calls"),
        "voronoi.separating_hyperplane.self_s":
            span("voronoi.separating_hyperplane", "self_s"),
        "voronoi.build_cell.self_s": span("voronoi.build_cell", "self_s"),
        "polytope.clip.calls": clip_calls / n_ops,
        "polytope.clip.self_s": span("polytope.clip", "self_s"),
        "polytope.clip.changed_share": share(
            count("polytope.clip.changed", per=1), clip_calls, 0.0),
        "roadmap.build_graph.self_s": span("roadmap.build_graph", "self_s"),
        "roadmap.project_terminal.self_s":
            span("roadmap.project_terminal", "self_s"),
        "roadmap.shortest_path.self_s": span("roadmap.shortest_path", "self_s"),
        "pipeline.precompute.s": span("pipeline.precompute", "incl_s"),
        "pipeline.plan.self_s": span("pipeline.plan", "self_s"),
        "poses.plan_poses.self_s": span("poses.plan_poses", "self_s"),
        "dmp.interpolate_waypoints.self_s":
            span("dmp.interpolate_waypoints", "self_s"),
        "dmp.fit_lwr.self_s": span("dmp.fit_lwr", "self_s"),
        "dmp.rollout.self_s": span("dmp.rollout", "self_s"),
        "dmp.rollout.steps": count("dmp.rollout.steps"),
        "dmp.trajectory_collides.calls": span("dmp.trajectory_collides", "calls"),
        "dmp.trajectory_collides.self_s":
            span("dmp.trajectory_collides", "self_s"),
        "dmp.validation_points": count("dmp.validation_points"),
        "dmp.fallback_share": share(run.fallbacks, run.successes, 0.0),
    }
    out.update({
        "scenario.min_trajectory_distance.self_s": span(
            "scenario.min_trajectory_distance", "self_s", "audit", n_audits),
        "scenario.proximity.closest_pair.calls": span(
            "proximity.closest_pair", "calls", "audit", n_audits),
        "scenario.proximity.closest_pair.self_s": span(
            "proximity.closest_pair", "self_s", "audit", n_audits),
        "scenario.proximity.closest_pair.nonconverged": count(
            "proximity.closest_pair.nonconverged", "audit", n_audits),
        "scenario.proximity.surface_points": count(
            "proximity.surface_points", "audit", n_audits),
        "trace.spans": float(len(tr.start)),
    })
    # NaN when nothing was precomputed or no round ran
    graphs = (np.mean(np.asarray(run.graphs, dtype=float), axis=0)
              if run.graphs else [math.nan] * 4)
    out.update(zip(["voronoi.clusters", "voronoi.hyperplanes",
                    "roadmap.nodes", "roadmap.edges"], graphs))
    out["trace.total_s"] = (run.total_s(normalised=False) if run.n_rounds
                            else math.nan)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


WORKLOADS = {
    "build3d": build3d,
    "query3d": lambda run, seed, seconds: query_stream(
        run, seed, seconds, scenes.pillars(), scenes.pillar_regions(),
        QUERY3D_BATCH, QUERY3D_SETUPS),
    "query2d": lambda run, seed, seconds: query_stream(
        run, seed, seconds, scenes.narrow_wall(), scenes.wall_regions(),
        QUERY2D_BATCH, QUERY2D_SETUPS),
}


def host_info(root: str) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        revision = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_revision": revision,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(sqplan.__file__).startswith(src + os.sep):
        print(f"error: sqplan imported from {sqplan.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_tracing(tracer)
    run = Run(tracer)
    if run.normalised:
        run.clock.start()
    try:
        WORKLOADS[args.workload](run, args.seed, args.seconds)
    except Exception as exc:  # an error outside the checked operations
        run.attempted += 1
        run.fail(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        run.clock.stop()
        if tracer is not None:
            tracer.unpatch()
    metrics = end_to_end(run) if tracer is None else per_layer(run)
    # a metric without samples is left out of the result, and the run fails
    missing = [name for name, value in metrics.items()
               if not math.isfinite(value)]
    metrics = {name: float(value) for name, value in metrics.items()
               if name not in missing}

    plan_s = run.values("plan", run.normalised)
    p90 = percentile(plan_s, 90)
    samples = {"plans": len(plan_s),
               "plans_above_p90": sum(t > p90 for t in plan_s),
               "failed_plans": sum(op[0] == "failed" for op in run.ops),
               "rounds": run.n_rounds,
               "setups": sum(op[0] == "setup" for op in run.ops),
               "audits": run.audits, "probes": len(run.clock.kernel_s)}
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "samples": samples,
              "failures": run.failures, "wrong_outputs": run.wrong,
              "raw_wall_s": run.timings(normalised=False),
              "fingerprint": {"arc_m": run.arc_m,
                              "clearance_m": run.clearance_m,
                              "fallbacks": run.fallbacks,
                              "successes": run.successes},
              "host": host_info(args.root)}
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit_of(name)}")
    for name in missing:
        print(f"{name:45s} {'no samples':>14s}")
    print(f"attempted {run.attempted}, failed {len(run.failures)}, "
          f"samples {samples}")
    for reason in sorted(set(run.failures)):
        print(f"failure x{run.failures.count(reason)}: {reason}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {"correct": run.wrong == 0, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
