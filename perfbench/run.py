#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload quiet_fleet|hot_shards|wire_fleet \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which pulls in the
repository's own CMake build) into $CARGO_TARGET_DIR or .bench_build, then
runs volley_perfbench. Build output goes to stderr; the last line of stdout
is the result JSON. Traced runs leave their span logs in <build>/out/.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("quiet_fleet", "hot_shards", "wire_fleet")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        print("perfbench: no volley sources next to %s" % here, file=sys.stderr)
        return 1

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build, "out")
    os.makedirs(out_dir, exist_ok=True)

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "volley_perfbench",
                  "-j", "3"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return 1

    binary = os.path.join(build, "volley_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", args.trace,
                           "--out-dir", out_dir], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
