#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload whatif|validate|served --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the program and the perfbench
driver from source into .bench_build/ (Release, first run only), writes the
workload's inputs from the seed with gen.py, and runs the driver, whose
last stdout line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
import gen  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(CMAKE_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The benchmark builds the program from the checkout it runs in.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a checkout holding the program's sources "
             "(CMakeLists.txt and src/ are missing here)")
    if not os.path.samefile(os.path.dirname(HERE), ROOT):
        fail("run from the checkout root, as python3 perfbench/run.py")

    os.makedirs(BUILD_ROOT, exist_ok=True)
    binary = build()
    tag = "%s-seed%d" % (args.workload, args.seed)
    inputs = os.path.join(BUILD_ROOT, "inputs", tag)
    out_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(out_dir, exist_ok=True)
    input_path = gen.write(args.workload, args.seed, inputs)

    cmd = [binary, "--workload", args.workload, "--input", input_path,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the driver on timeout.
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S, 1)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
