#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs it.

Run from anywhere; paths resolve against the repository root (the
parent of this directory):

  python3 perfbench/run.py --workload fig1_chase --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --record-oracle   # rewrite perfbench/oracle/
  python3 perfbench/run.py --self-test       # check the fault-spec generator

The build goes to .bench_build/perfbench (Release, the driver target
only) and is incremental; its log is .bench_build/perfbench/build.log.
The driver's standard output passes through, so its last line is the
JSON result.  See perfbench/README.md.
"""

import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "pvc_perfbench")


def run_child(cmd, **kwargs):
    """Runs cmd to completion; on SIGTERM/SIGINT stops it and waits."""
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return child.wait()
    except BaseException:
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pvc_perfbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if run_child(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                break
        else:
            return
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.exit("perfbench: build failed (log: %s)" % log_path)


def main():
    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        build()
    except OSError as e:
        sys.exit("perfbench: cannot build: %s" % e)
    sys.exit(run_child([DRIVER] + sys.argv[1:]))


if __name__ == "__main__":
    main()
