#!/usr/bin/env python3
"""Paper-app benchmark: builds the driver from source, runs one workload, prints metrics.

    python3 perfbench/run.py --workload rt-locks --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver and the repository's libraries build into
.bench_build/perfbench (Release). Build output and the driver's own log go to stderr;
stdout carries a summary of the timings and, as its last line, one JSON object with
`correct`, `attempted` (app runs), `failed` (app runs that did not verify) and `metrics`:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1. With --trace 1
the driver's own spans are also written as a chrome://tracing file in the build directory.
Exits nonzero when a run fails verification, the workload fingerprint drifts, or the
build or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "apps", "apps.h")):
        raise SystemExit(f"perfbench: no repository sources under {ROOT}")
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_driver(args):
    cmd = [DRIVER, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.min_passes is not None:
        cmd.append(f"--min-passes={args.min_passes}")
    # The program's own observability switches would turn spans on in untraced passes.
    env = {k: v for k, v in os.environ.items()
           if k not in ("MIDWAY_TRACE_PATH", "MIDWAY_METRICS_PATH")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver exited with {proc.returncode}")
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    passes = [r for r in records if "pass" in r]
    summary = next(r for r in records if r.get("summary"))
    return passes, summary


def write_trace(args, spans):
    """The driver's pass and Run<App> spans as a chrome://tracing document."""
    events = [{"name": s["name"], "ph": "X", "pid": 0, "tid": 0,
               "ts": s["start_ns"] / 1e3, "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
               "args": {"parent": s["parent"]}} for s in spans]
    path = os.path.join(BUILD, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    log(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(metrics.FINGERPRINTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=None,
                        help="fewest passes to run (driver default: 5, or 4 traced)")
    args = parser.parse_args(argv)
    if args.min_passes is not None and args.min_passes < 1 + args.trace:
        parser.error("--min-passes must allow one pass of each kind (1, or 2 traced)")

    build()
    passes, summary = run_driver(args)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    runs = [a for p in passes for a in p["apps"]]
    failed = sum(1 for a in runs if not a["verified"])
    drift = metrics.fingerprint_problems(args.workload, passes)
    for problem in drift:
        log(f"fingerprint drift: {problem}")

    times = [metrics.pass_time(p) for p in untraced]
    q1, q2, q3 = metrics.quartiles(times)
    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)} untraced, "
          f"{len(traced)} traced; pass_s median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f}; "
          f"failed_frac {failed}/{len(runs)}")

    if args.trace:
        values, units = metrics.per_layer(untraced, traced), metrics.PER_LAYER
        write_trace(args, summary["spans"])
    else:
        values, units = metrics.end_to_end(untraced), metrics.END_TO_END
    correct = failed == 0 and not drift
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
