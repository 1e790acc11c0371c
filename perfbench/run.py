#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the repository root. The program is built with CMake into
.bench_build/perfbench (the simulator's sources under src/ are compiled
into it); build output goes to standard error, so the last line of standard
output is the program's result object. Every flag is passed to the program;
see README.md in this directory.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def jobs():
    return str(min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure (once) and build the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.cpp")):
        print("perfbench: simulator sources not found under src/",
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs()])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return os.path.join(BUILD, "dss_perfbench")


def flag_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    exe = build()
    if exe is None:
        return 1
    args = sys.argv[1:]
    cmd = [exe, "--expected", os.path.join(HERE, "expected")]
    workload = flag_value(args, "--workload")
    if workload is not None and flag_value(args, "--spans-out") is None:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, workload + ".json")]
    proc = subprocess.Popen(cmd + args)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
