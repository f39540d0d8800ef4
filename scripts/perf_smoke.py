#!/usr/bin/env python3
"""Perf smoke: guard the committed benchmark series against regressions.

Re-runs each guarded suite from the given build dir and compares every
matching benchmark against its committed baseline JSON at the repo
root:

  simcore    gbench_simcore   BM_Cluster*, vs BENCH_simcore.json
                              BM_CheckpointRestart*
  e2e        every bench binary, each leg  vs BENCH_e2e.json
             of scripts/bench_e2e.py

A row more than TOLERANCE slower than its committed time fails the
run; rows only present on one side (a newly added or retired
benchmark) are reported but never fatal, so landing a new benchmark
and recording its baseline can happen in the same PR.  A missing
baseline file skips that suite with a warning for the same reason.

Absolute times move with the host, so the guard is deliberately loose
(default 30%) — it exists to catch an algorithmic cliff (a serialized
solver, a lost fast path), not 5% noise.  Override with PERF_SMOKE_TOLERANCE=<fraction>.
An e2e row must also be slower by more than E2E_MARGIN_S: most benches
finish in milliseconds, where process start-up noise alone exceeds any
fractional tolerance.

Usage: perf_smoke.py <build-dir> [suite ...]   (default: all suites)
"""

import json
import os
import subprocess
import sys
import tempfile

import bench_e2e  # scripts/bench_e2e.py, beside this file

# suite -> (bench binary under <build>/bench, baseline at repo root,
#           --benchmark_filter regex)
SUITES = {
    "simcore": ("gbench_simcore", "BENCH_simcore.json",
                "BM_Cluster|BM_CheckpointRestart"),
}

# Absolute slack on top of the tolerance for the e2e suite.
E2E_MARGIN_S = 0.050


def run_e2e(build_dir: str, root: str, suite: str, tolerance: float) -> list:
    def key(row):
        return f"{row['name']} {row['args']}".strip()

    baseline_path = os.path.join(root, "BENCH_e2e.json")
    if not os.path.exists(baseline_path):
        print(f"  {suite}: no committed BENCH_e2e.json yet — skipped "
              f"(record one with scripts/bench_e2e.py)")
        return []
    with open(baseline_path) as f:
        baseline = {key(r): r for r in json.load(f).get("benchmarks", [])}
    if not baseline:
        return [f"e2e: no benchmark rows in {baseline_path}"]
    print(f"e2e: vs BENCH_e2e.json (tolerance +{tolerance:.0%} "
          f"and +{E2E_MARGIN_S * 1e3:.0f} ms)")
    current = {key(r): r for r in bench_e2e.measure_benches(build_dir)}

    failures = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            print(f"  {name:38s} retired (baseline only)")
            continue
        if name not in baseline:
            print(f"  {name:38s} new (no baseline yet)")
            continue
        base = baseline[name]["median_wall_s"]
        cur = current[name]["median_wall_s"]
        cliff = cur > base * (1.0 + tolerance) and cur - base > E2E_MARGIN_S
        print(f"  {name:38s} {base * 1e3:10.1f} -> {cur * 1e3:10.1f} ms"
              f"  ({cur / base:5.2f}x)  {'REGRESSION' if cliff else 'ok'}")
        if cliff:
            failures.append(f"{name}: {cur / base:.2f}x slower than baseline "
                            f"({(cur - base) * 1e3:.0f} ms)")
    return failures


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
    runners = {suite: run_suite for suite in SUITES}
    runners["e2e"] = run_e2e
    suites = sys.argv[2:] or list(runners)
    unknown = [s for s in suites if s not in runners]
    if unknown:
        print(f"error: unknown suite(s) {unknown}; "
              f"choose from {sorted(runners)}", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tolerance = float(os.environ.get("PERF_SMOKE_TOLERANCE", "0.30"))

    failures = []
    for suite in suites:
        failures.extend(runners[suite](build_dir, root, suite, tolerance))
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
