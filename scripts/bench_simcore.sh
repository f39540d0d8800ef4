#!/usr/bin/env bash
# Runs the simulator-core microbenchmarks and stores the JSON series at
# the repo root (BENCH_simcore.json), starting the perf trajectory the
# CI bench job appends to.  Usage:
#
#   scripts/bench_simcore.sh [build-dir] [output.json]
#
# The build dir must be an optimised build (Release/RelWithDebInfo) —
# numbers from -O0 builds are not comparable across commits.  The guard
# below enforces this from the binary's own "pvc_build_type" JSON
# context: an unoptimized build aborts the recording unless
# ALLOW_DEBUG_BENCH=1 is set, in which case the JSON is loudly tagged.
set -euo pipefail

build_dir="${1:-build}"
out="${2:-BENCH_simcore.json}"
bench="${build_dir}/bench/gbench_simcore"

if [[ ! -x "${bench}" ]]; then
  echo "error: ${bench} not built (cmake --build ${build_dir} --target gbench_simcore)" >&2
  exit 1
fi

"${bench}" \
  --benchmark_filter='BM_Engine|BM_FlowNetworkContention|BM_CacheChase|BM_Cluster|BM_CheckpointRestart' \
  --benchmark_min_time=0.5 \
  --benchmark_format=json \
  --benchmark_out="${out}" \
  --benchmark_out_format=json \
  >/dev/null

python3 "$(dirname "$0")/check_bench_build.py" "${out}"

echo "wrote ${out}:"
python3 - "${out}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for b in doc.get("benchmarks", []):
    print(f"  {b['name']:34s} {b['real_time']:12.0f} {b['time_unit']}"
          f"  ({b.get('items_per_second', 0) / 1e6:.2f} M items/s)")
EOF
