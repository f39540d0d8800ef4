#!/usr/bin/env python3
"""End-to-end ledger: what a user waits for, bench binary by bench binary.

Runs every bench registered in bench/bench_entry.cpp as its own process
from <build-dir>/bench, the way a user runs it: at defaults, and again
at threads=1 for the benches that accept threads=.  The two cluster
benches also run at sim_ranks=6144 threads=1 (DES_LEGS), the size
perfbench's cluster_des workload times: at the default 768 ranks their
per-flow costs hide under process start-up.  Each leg runs until
it has MAX_SAMPLES samples or has used LEG_BUDGET_S seconds (at least
MIN_SAMPLES), and records the median, minimum and maximum wall time,
the sample count and the peak resident set size over its samples.
Then it times `ctest -j<cpus>` over the build dir CTEST_SAMPLES times.

A child's peak RSS starts from the resident set of the process that
forked it: launched from this ~15 MiB Python process, every leg read
that floor.  So each leg runs through <build-dir>/tools/leg_launcher
(bench/leg_launcher.cpp), a small binary that forks and execs the
bench, times it and reads its ru_maxrss from wait4().  The context
records the same leg run on `true` as "launch_floor": a bench reading
at that floor used at most that much, and a wall time near it is
mostly process start-up.

The output (default BENCH_e2e.json) carries the build's CMake config
as "pvc_build_type" in its context and passes through
scripts/check_bench_build.py before anything is measured, so numbers
from an unoptimized build are refused exactly as for the gbench series.

Usage: bench_e2e.py <build-dir> [output.json]
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

MIN_SAMPLES = 3
MAX_SAMPLES = 11
LEG_BUDGET_S = 30.0
CTEST_SAMPLES = 3
# Extra legs: the cluster DES at the rank count perfbench times.
DES_LEGS = [
    ("scaling_multinode", ["sim_ranks=6144", "threads=1"]),
    ("resilience_sweep", ["sim_ranks=6144", "threads=1"]),
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def registered_benches() -> list:
    """Bench names in the order of the registry table in bench_entry.cpp."""
    with open(os.path.join(ROOT, "bench", "bench_entry.cpp")) as f:
        names = re.findall(r'\{"(\w+)", &entries::run_\1\}', f.read())
    if not names:
        raise SystemExit("error: no registry entries found in bench_entry.cpp")
    return names


def build_type(build_dir: str) -> str:
    """The build's CMake config; an empty one means the default that the
    top-level CMakeLists.txt sets."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    if match and match.group(1).strip():
        return match.group(1).strip()
    with open(os.path.join(ROOT, "CMakeLists.txt")) as f:
        match = re.search(r"if\(NOT CMAKE_BUILD_TYPE\)\s*set\(CMAKE_BUILD_TYPE (\w+)\)",
                          f.read())
    return match.group(1) if match else "unknown"


def launcher_path(build_dir: str) -> str:
    path = os.path.join(build_dir, "tools", "leg_launcher")
    if not os.access(path, os.X_OK):
        raise SystemExit(f"error: {path} not built "
                         f"(cmake --build {build_dir} --target leg_launcher)")
    return path


def run_once(launcher: str, argv: list, cwd: str) -> tuple:
    """Runs argv to completion through the launcher; returns
    (rc, wall_s, peak_rss_mib, stderr)."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.run([launcher, *argv], cwd=cwd,
                              stdout=subprocess.PIPE, stderr=err)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if proc.returncode != 0:
        raise SystemExit(f"error: {launcher} failed on {' '.join(argv)}: "
                         f"{stderr}")
    rc, wall, maxrss_kib = proc.stdout.split()
    # ru_maxrss is in KiB on Linux.
    return int(rc), float(wall), int(maxrss_kib) / 1024.0, stderr


def summarize(walls: list) -> dict:
    return {
        "samples": len(walls),
        "median_wall_s": statistics.median(walls),
        "min_wall_s": min(walls),
        "max_wall_s": max(walls),
    }


def measure_leg(launcher: str, argv: list, cwd: str):
    """Samples one bench invocation; None when it rejects its options."""
    walls, rss = [], []
    while len(walls) < MAX_SAMPLES and (len(walls) < MIN_SAMPLES or
                                        sum(walls) < LEG_BUDGET_S):
        rc, wall, peak, stderr = run_once(launcher, argv, cwd)
        if rc != 0:
            if not walls and "unknown option" in stderr:
                return None
            raise SystemExit(f"error: {' '.join(argv)} exited {rc}: {stderr}")
        walls.append(wall)
        rss.append(peak)
    return {**summarize(walls), "peak_rss_mib": max(rss)}


def measure_benches(build_dir: str) -> list:
    """One row per leg: every registered bench at defaults, then the
    benches that take threads= at threads=1, then DES_LEGS."""
    launcher = launcher_path(build_dir)
    names = registered_benches()
    legs = [(name, args) for args in ([], ["threads=1"]) for name in names]
    legs += DES_LEGS
    rows = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, args in legs:
            binary = os.path.join(build_dir, "bench", name)
            leg = measure_leg(launcher, [binary, *args], cwd)
            if leg is None:
                continue
            rows.append({"name": name, "args": " ".join(args), **leg})
            print(f"  {name:20s} {' '.join(args):26s} "
                  f"{leg['median_wall_s'] * 1e3:10.1f} ms "
                  f"{leg['peak_rss_mib']:7.1f} MiB  (n={leg['samples']})",
                  flush=True)
    return rows


def measure_ctest(build_dir: str, jobs: int) -> dict:
    walls = []
    for _ in range(CTEST_SAMPLES):
        start = time.perf_counter()
        subprocess.run(["ctest", "--test-dir", build_dir, f"-j{jobs}"],
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    row = {"jobs": jobs, **summarize(walls)}
    print(f"  ctest -j{jobs}            {row['median_wall_s']:10.2f} s "
          f"(n={row['samples']})", flush=True)
    return row


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    build_dir = sys.argv[1]
    out = sys.argv[2] if len(sys.argv) == 3 else "BENCH_e2e.json"
    jobs = os.cpu_count() or 1

    # Guard first: refuse (or taint) an unoptimized build before spending
    # minutes measuring it.  The guard deletes the file when it refuses.
    with open(out, "w") as f:
        json.dump({"context": {"pvc_build_type": build_type(build_dir)}}, f)
    guard = os.path.join(ROOT, "scripts", "check_bench_build.py")
    if subprocess.run([sys.executable, guard, out]).returncode != 0:
        return 1
    with open(out) as f:
        context = json.load(f)["context"]
    with tempfile.TemporaryDirectory() as cwd:
        floor = measure_leg(launcher_path(build_dir), [shutil.which("true")],
                            cwd)
    context.update({
        "launch_floor": floor,
        "host_cpus": jobs,
        "date": time.strftime("%Y-%m-%d"),
        "leg_rule": f"{MIN_SAMPLES}-{MAX_SAMPLES} samples, "
                    f"{LEG_BUDGET_S:.0f} s budget per leg",
    })

    print(f"bench binaries ({build_dir}):")
    doc = {"context": context, "benchmarks": measure_benches(build_dir)}
    doc["ctest"] = measure_ctest(build_dir, jobs)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
