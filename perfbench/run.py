#!/usr/bin/env python3
"""Builds the CAKE benchmark from the sources in this checkout and runs one
workload.

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused
by later runs. The last line of stdout is the benchmark's JSON result.
Exits non-zero, without a result, when the sources are missing or the
build fails; exits 3 when the run misses its deadline.
"""
import argparse
import os
import subprocess
import sys


def deadline_s(seconds):
    """The benchmark binary's own deadline (its watchdog prints every
    attempted operation as failed and exits 3); keep in step with main.cpp."""
    return min(150.0, 60.0 + 4.0 * seconds)


# Past the binary's deadline by a margin, so its watchdog reports a hang
# before this script has to stop it.
MARGIN_S = 20.0


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no CAKE sources under ./src; run from the repository root", 2)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cake_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step), 1)
    return os.path.join(build_dir, "cake_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", build_dir]
    timeout = deadline_s(args.seconds) + MARGIN_S
    child = subprocess.Popen(command)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("run exceeded %g s and was stopped" % timeout, 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
