#!/usr/bin/env python3
"""Builds the PRESS benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 pressbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the library and the driver into
$CARGO_TARGET_DIR/pressbench-<tag> (default .bench_build/pressbench-<tag>),
where <tag> is derived from the checkout's absolute path, so checkouts that
share one target directory never share a build tree; later calls from the
same checkout reuse the build. Every PRESS_* environment variable is cleared so the
program runs with its defaults (telemetry on, native kernels, coordinate
delta on, no thread override). The driver's last stdout line is the JSON
result; build output goes to stderr.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("study_service", "study_mobile", "multiuser_search",
             "massive_search")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "core", "system.hpp")):
        sys.exit("pressbench: PRESS sources (src/) not found next to "
                 "pressbench/; run from a full checkout")

    build_root = os.path.join(root,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # A CMake build tree is bound to the source tree that configured it,
    # and `cmake --build` alone rebuilds that tree; keying the directory
    # by checkout keeps two checkouts on one target directory apart.
    tag = hashlib.sha1(root.encode()).hexdigest()[:12]
    build = os.path.join(build_root, "pressbench-" + tag)
    os.makedirs(build, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRESS_")}

    # One build at a time per checkout; the lock is released on exit.
    with open(os.path.join(build, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", build, "-j", "4"]]
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", here, "-B", build,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=850)
            if done.returncode != 0:
                sys.exit("pressbench: build failed: " + " ".join(cmd))

    spans = os.path.join(build, "spans-%s.tsv" % args.workload)
    cmd = [os.path.join(build, "pressbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--spans-out", spans]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("pressbench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
