#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which builds the csxa
libraries from src/) into .bench_build/; later runs only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the
sources are missing or the build fails.
"""

import os
import re
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "csxa_perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "csxa_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def run(args):
    child = subprocess.Popen([BINARY] + args)

    def forward(signum, _frame):
        child.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    return child.wait()


def main():
    args = sys.argv[1:]
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            return fail("run from the repository root: %s is missing" % needed)
    if not build():
        return fail("build failed")

    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        # One dump per workload, overwritten by the next traced run of it.
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", "spans-%s.tsv" % workload)
        args += ["--spans", os.path.join(BUILD_DIR, name)]
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        sys.stdout.flush()
        return run(args + ["--work-dir", WORK_DIR])
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
