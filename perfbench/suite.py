"""Run every workload untraced and traced, and print one table.

    python3 perfbench/suite.py --seed 1 --seconds 25

Run from the repository root. Each run is a separate run.py process. The
table lists every end-to-end metric with its unit, the sample counts, the
attempted and failed operations with failure reasons, every per-layer
metric of the traced run, and the tracing overhead: the traced run's
total_s against the untraced run's, both in wall-clock seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return {"result": json.loads(lines[-1]), "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)

    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        # traced times are wall time, so compare with the untraced wall time
        base = plain["report"]["raw_wall_s"]["total_s"]
        with_trace = traced["result"]["metrics"]["trace.total_s"]["value"]

        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s)")
        for run in (plain, traced):
            res, rep = run["result"], run["report"]
            print(f"-- trace={rep['trace']}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}, "
                  f"samples {rep['samples']}")
            for reason in sorted(set(rep["failures"])):
                print(f"   failure x{rep['failures'].count(reason)}: {reason}")
            for name, m in res["metrics"].items():
                print(f"   {name:45s} {m['value']:14.6g} {m['unit']}")
        print(f"-- tracing overhead on total_s: "
              f"{100.0 * (with_trace / base - 1.0):+.1f}% "
              f"({with_trace:.3f} s traced vs {base:.3f} s)")
        print(f"-- fingerprint: {json.dumps(plain['report']['fingerprint'])}")
    print(f"host: {json.dumps(plain['report']['host'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
