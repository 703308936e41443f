#!/usr/bin/env python3
"""Served-path benchmark entry point.

Builds vfps_server and the servbench binary from the checkout this file
sits in (CMake, into .bench_build or $CARGO_TARGET_DIR), then runs one
workload against the server and forwards the binary's output; its last
line is the JSON result.

  python3 servbench/run.py --workload match_w0 --seed 1 --seconds 10 --trace 0

--holdout-seed N runs on the held-out seed named in servbench/METRICS.md
instead of --seed. --offered-rate N replaces churn_pub's publish rate (to
find where the server saturates; see servbench/METRICS.md). Spans of a
traced run go to <build dir>/spans/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("match_w0", "fanout", "churn_pub")


def build(build_dir):
    """Configures (once) and builds the two targets; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "servbench",
                  "vfps_server", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            sys.stderr.write("servbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("--offered-rate", type=float)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.offered_rate is not None and args.offered_rate <= 0:
        parser.error("--offered-rate must be > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("servbench: %s holds no vfps checkout\n" % ROOT)
        return 2
    if not build(build_dir):
        return 2
    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "servbench"),
           "--server=" + os.path.join(build_dir, "vfps", "tools",
                                      "vfps_server"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--span-dir=" + span_dir]
    if args.holdout_seed is not None:
        cmd.append("--holdout-seed=%d" % args.holdout_seed)
    if args.offered_rate is not None:
        cmd.append("--offered-rate=%r" % args.offered_rate)
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
