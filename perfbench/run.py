"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload query2d --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload runs in a child process that
imports sqplan from ./src, with BLAS and OpenMP pools pinned to one thread
through the child's environment. The last line of standard output is the
result as one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a run whose calls into sqplan are traced.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build3d", "query3d", "query2d")
# The result must come within 180 s of the start. A run's fixed work (imports,
# warm-up, set-ups, audits and its first round) does not scale with
# --seconds, so the limit is that budget, not a multiple of --seconds.
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sqplan benchmark, one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sqplan", "__init__.py")):
        print(f"error: sqplan sources not found under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    # a terminated launcher must not leave the workload running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
