#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is built from the checkout's src/ tree into .bench_build/ (the
first run configures and compiles; later runs only check it is current).
Build output goes to stderr; the binary's stdout, whose last line is the
JSON result, passes through unchanged. Exits non-zero, printing no result,
when the sources are missing, the build fails, or the run fails or
overruns its time limit.
"""

import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("train-allreduce", "train-qsgd8", "serve-dlrm", "fl-fedavg")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources at src/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def option(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [str(BUILD / "perfbench")] + args
    workload = option(args, "--workload")
    if (option(args, "--trace") == "1" and workload in WORKLOADS
            and "--spans-out" not in args):
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / (workload + ".tsv"))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    if proc.returncode != 0:
        return proc.returncode
    sys.stdout.write(proc.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
