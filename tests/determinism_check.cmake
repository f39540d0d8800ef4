# ctest script: parallel-sweep determinism at the binary level.
#
# Asserts end to end that `threads=4` produces byte-identical stdout,
# CSV, and metrics snapshots to `threads=1` on every threaded bench
# below, and that chaos_degradation is bit-reproducible across repeated
# runs of the same seed.
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir with bench binaries> -DWORK_DIR=<scratch dir>
#         -P determinism_check.cmake

foreach(var BENCH_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "determinism_check.cmake: ${var} not set")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_bench bin tag)
  # Remaining arguments are passed to the binary; stdout lands in
  # ${WORK_DIR}/${tag}.out.  Each run gets its own working directory so
  # relative csv=/metrics= paths are identical strings in every run's
  # stdout (the binaries echo the paths they write).
  file(MAKE_DIRECTORY "${WORK_DIR}/${tag}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bin}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}/${tag}"
    OUTPUT_FILE "${WORK_DIR}/${tag}.out"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} ${ARGN} failed (exit ${rc})")
  endif()
endfunction()

function(expect_identical a b what)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

# Parallelized sweep binaries: threads=4 vs threads=1, stdout + CSV +
# metrics snapshot all byte-identical.  fig1_latency additionally pins
# the cache.* counters its closed-form chases credit; table6_foms and
# power_report pin their per-system and per-row sweeps;
# scaling_multinode pins the multi-node fabric sweep (discrete-event
# ClusterComm points plus the analytic tail); resilience_sweep pins the
# checkpoint/restart Monte Carlo and the fault-tolerant recovery runs —
# its per-cell Monte-Carlo seeds derive from the plan seed plus the
# sweep-slot index, so any threads= value must reproduce the same bytes.
foreach(bin scaling_sweep table3_p2p fig1_latency ablation_model
        table6_foms power_report scaling_multinode resilience_sweep)
  run_bench(${bin} ${bin}_t1 threads=1 csv=out.csv metrics=out.met)
  run_bench(${bin} ${bin}_t4 threads=4 csv=out.csv metrics=out.met)
  expect_identical("${WORK_DIR}/${bin}_t1.out" "${WORK_DIR}/${bin}_t4.out"
                   "${bin} stdout determinism")
  expect_identical("${WORK_DIR}/${bin}_t1/out.csv"
                   "${WORK_DIR}/${bin}_t4/out.csv"
                   "${bin} CSV determinism")
  expect_identical("${WORK_DIR}/${bin}_t1/out.met"
                   "${WORK_DIR}/${bin}_t4/out.met"
                   "${bin} metrics determinism")
endforeach()

# Cluster benches under chaos: the same threads=1 vs threads=4 diff with
# a fault plan armed on every DES point.  scaling_multinode layers a NIC
# death and a NIC degradation mid-exchange (failover and re-shared
# bandwidth); resilience_sweep kills a node mid-collective and recovers
# it under both policies.  threads=1 runs every point on the calling
# thread — the serial oracle — so each leg diffs a parallel sweep
# against it.  The chaos spec travels as a named argument, quoted at
# every use (its clause-separating semicolons would be split as list
# separators if routed through ARGN or an unquoted expansion).
function(run_chaos_leg tag bin spec)
  file(MAKE_DIRECTORY "${WORK_DIR}/${tag}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bin}" ${ARGN} "chaos=${spec}"
            csv=out.csv metrics=out.met
    WORKING_DIRECTORY "${WORK_DIR}/${tag}"
    OUTPUT_FILE "${WORK_DIR}/${tag}.out"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bin} ${ARGN} chaos=${spec} failed (exit ${rc})")
  endif()
endfunction()
function(expect_legs_identical one four name)
  expect_identical("${WORK_DIR}/${one}.out" "${WORK_DIR}/${four}.out"
                   "${name} threads=1 vs threads=4 (stdout)")
  expect_identical("${WORK_DIR}/${one}/out.csv" "${WORK_DIR}/${four}/out.csv"
                   "${name} threads=1 vs threads=4 (CSV)")
  expect_identical("${WORK_DIR}/${one}/out.met" "${WORK_DIR}/${four}/out.met"
                   "${name} threads=1 vs threads=4 (metrics)")
endfunction()
foreach(threads 1 4)
  run_chaos_leg(smn_chaos_t${threads} scaling_multinode
                "seed:7;nicdown:node=3,nic=0,at=2us;nicdegrade:node=5,nic=1,factor=0.5,at=3us"
                sim_ranks=384 threads=${threads})
  run_chaos_leg(res_chaos_t${threads} resilience_sweep
                "seed:7;nodedown:node=3,at=2us"
                sim_ranks=192 trials=50 threads=${threads})
endforeach()
expect_legs_identical(smn_chaos_t1 smn_chaos_t4 "scaling_multinode chaos")
expect_legs_identical(res_chaos_t1 res_chaos_t4 "resilience_sweep chaos")

# chaos_degradation: the default plan pins seed 42 — two threads=4 runs
# must be bit-identical, and threads=1 must match as well.
run_bench(chaos_degradation chaos_a threads=4 csv=out.csv)
run_bench(chaos_degradation chaos_b threads=4 csv=out.csv)
run_bench(chaos_degradation chaos_s threads=1 csv=out.csv)
expect_identical("${WORK_DIR}/chaos_a.out" "${WORK_DIR}/chaos_b.out"
                 "chaos_degradation seed reproducibility (stdout)")
expect_identical("${WORK_DIR}/chaos_a/out.csv" "${WORK_DIR}/chaos_b/out.csv"
                 "chaos_degradation seed reproducibility (CSV)")
expect_identical("${WORK_DIR}/chaos_a.out" "${WORK_DIR}/chaos_s.out"
                 "chaos_degradation threads=4 vs threads=1 (stdout)")
expect_identical("${WORK_DIR}/chaos_a/out.csv" "${WORK_DIR}/chaos_s/out.csv"
                 "chaos_degradation threads=4 vs threads=1 (CSV)")

message(STATUS "parallel-sweep determinism checks passed")
