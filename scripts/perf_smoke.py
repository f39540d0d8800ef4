#!/usr/bin/env python3
"""Perf smoke: guard the committed benchmark series against regressions.

Re-runs each guarded suite from the given build dir and compares every
matching benchmark against its committed baseline JSON at the repo
root:

  simcore    gbench_simcore   BM_Cluster*  vs BENCH_simcore.json
  workloads  gbench_workloads BM_*         vs BENCH_workloads.json

A row more than TOLERANCE slower than its committed time fails the
run; rows only present on one side (a newly added or retired
benchmark) are reported but never fatal, so landing a new benchmark
and recording its baseline can happen in the same PR.  A missing
baseline file skips that suite with a warning for the same reason.

Absolute times move with the host, so the guard is deliberately loose
(default 30%) — it exists to catch an algorithmic cliff (a serialized
solver, a lost fast path), not 5% noise.  Override with PERF_SMOKE_TOLERANCE=<fraction>.

Usage: perf_smoke.py <build-dir> [suite ...]   (default: all suites)
"""

import json
import os
import subprocess
import sys
import tempfile

# suite -> (bench binary under <build>/bench, baseline at repo root,
#           --benchmark_filter regex)
SUITES = {
    "simcore": ("gbench_simcore", "BENCH_simcore.json", "BM_Cluster"),
    "workloads": ("gbench_workloads", "BENCH_workloads.json", "BM_"),
}


def run_suite(build_dir: str, root: str, suite: str, tolerance: float) -> list:
    binary, baseline_name, bench_filter = SUITES[suite]
    bench = os.path.join(build_dir, "bench", binary)
    if not os.access(bench, os.X_OK):
        return [f"{suite}: {bench} not built"]
    baseline_path = os.path.join(root, baseline_name)
    if not os.path.exists(baseline_path):
        print(f"  {suite}: no committed {baseline_name} yet — skipped "
              f"(record one with the matching scripts/bench_*.sh)")
        return []
    with open(baseline_path) as f:
        baseline = {
            b["name"]: b
            for b in json.load(f).get("benchmarks", [])
        }
    if not baseline:
        return [f"{suite}: no benchmark rows in {baseline_path}"]

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        subprocess.run(
            [
                bench,
                f"--benchmark_filter={bench_filter}",
                "--benchmark_min_time=0.2",
                f"--benchmark_out={out_path}",
                "--benchmark_out_format=json",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(out_path) as f:
            current = {
                b["name"]: b for b in json.load(f).get("benchmarks", [])
            }
    finally:
        os.unlink(out_path)
    if not current:
        return [f"{suite}: filter {bench_filter!r} matched no benchmark"]

    failures = []
    print(f"{suite}: vs {baseline_name} (tolerance +{tolerance:.0%})")
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            print(f"  {name:38s} retired (baseline only)")
            continue
        if name not in baseline:
            print(f"  {name:38s} new (no baseline yet)")
            continue
        base, cur = baseline[name], current[name]
        if base["time_unit"] != cur["time_unit"]:
            failures.append(f"{name}: time unit changed "
                            f"{base['time_unit']} -> {cur['time_unit']}")
            continue
        ratio = cur["real_time"] / base["real_time"]
        verdict = "ok" if ratio <= 1.0 + tolerance else "REGRESSION"
        print(f"  {name:38s} {base['real_time']:10.1f} -> "
              f"{cur['real_time']:10.1f} {cur['time_unit']}"
              f"  ({ratio:5.2f}x)  {verdict}")
        if ratio > 1.0 + tolerance:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline")
    return failures


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    build_dir = sys.argv[1]
    suites = sys.argv[2:] or list(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        print(f"error: unknown suite(s) {unknown}; "
              f"choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tolerance = float(os.environ.get("PERF_SMOKE_TOLERANCE", "0.30"))

    failures = []
    for suite in suites:
        failures.extend(run_suite(build_dir, root, suite, tolerance))
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
