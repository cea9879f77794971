#!/usr/bin/env python3
"""Build the prm service and the benchmark from this checkout, then run it.

Run from the repository root:

    python3 prmbench/run.py --workload fit_cold --seed 1 --seconds 10 --trace 0
    python3 prmbench/run.py --test      # build and run the benchmark's own tests

The first run configures and builds into .bench_build/ (Release); later runs
rebuild incrementally. Everything the benchmark writes stays under
.bench_build/. The last line of standard output is the result object.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["prm_cli", "prmbench"]


def fail(message):
    print("prmbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    # The benchmark builds the service from this checkout's sources.
    for required in ("CMakeLists.txt", "src/CMakeLists.txt", "examples/prm_cli.cpp"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no prm sources at %s (missing %s)" % (ROOT, required))
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "prmbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_describe():
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv):
    if argv == ["--test"]:
        build(TARGETS + ["prmbench_tests"])
        return subprocess.run([os.path.join(BUILD, "prmbench_tests")]).returncode
    build(TARGETS)
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(BUILD, "prmbench")] + argv + [
        "--cli", os.path.join(BUILD, "prm", "examples", "prm_cli"),
        "--work-dir", work,
        "--git-describe", git_describe(),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
