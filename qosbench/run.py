#!/usr/bin/env python3
"""Builds and runs the qosbench benchmark from the root of a checkout.

    python3 qosbench/run.py --workload premium_tcp --seed 1 --seconds 20 --trace 0
    python3 qosbench/run.py --self-test      # the benchmark's own unit tests
    python3 qosbench/run.py --pin-digests    # re-record qosbench/digests.txt

The first call configures and compiles qosbench/ (which pulls in ../src)
into .bench_build/qosbench; later calls only rebuild what changed. Build
output goes to .bench_build/qosbench/build.log and is shown only on failure.
The benchmark's last stdout line is its JSON result; the exit code is the
benchmark's (0 = every unit passed its outcome gate).
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qosbench")
OUT = os.path.join(ROOT, ".bench_build", "qosbench-out")
DIGESTS = os.path.join(HERE, "digests.txt")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("qosbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD, "build.log")
    # One build at a time per checkout; concurrent callers wait here.
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                     + targets)
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(cmd))


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["premium_tcp", "contention_mix", "chaos_soak"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["qosbench_selftest"])
        sys.exit(run([os.path.join(BUILD, "qosbench_selftest")]))
    build(["qosbench"])
    binary = os.path.join(BUILD, "qosbench")
    if args.pin_digests:
        sys.exit(run([binary, "--pin-digests", DIGESTS]))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.makedirs(OUT, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--digests", DIGESTS,
                  "--out-dir", OUT]))


if __name__ == "__main__":
    main()
