#pragma once
// Checkpoint/restart cost model (docs/ROBUSTNESS.md).
//
// Aurora-class jobs survive node loss by writing periodic checkpoints
// and restarting the lost work from the last one.  This module prices
// that discipline three ways, cross-validated against each other:
//
//  * the analytic first-principles model — Daly's expected runtime
//    T(τ) = M e^{R/M} (e^{(τ+C)/M} − 1) W/τ and his perturbation-series
//    optimal interval τ* ≈ sqrt(2CM)[1 + sqrt(C/2M)/3 + C/18M] − C
//    (J. T. Daly, FGCS 2006);
//  * a seeded Monte-Carlo discrete model (simulate_checkpoint_restart)
//    drawing exponential failure times, whose swept minimum must land
//    within one grid step of τ* — the ResilienceDaly test.  It lays the
//    segment schedule out once per call and crosses each binade of a
//    run of equal segments with one exact division, so a trial costs
//    O(binades + failures) (docs/PERFORMANCE.md, "Checkpoint/restart
//    Monte Carlo"); CheckpointOracle.* holds it bit-identical to the
//    segment-by-segment walk;
//  * the real flow-level write cost: ClusterComm::checkpoint_write()
//    drains the bytes through the NIC links, and the closed-form
//    checkpoint_write_model_s() here must track it.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sim/fabric.hpp"

namespace pvc::fault {

/// Daly's optimal checkpoint interval for write cost `checkpoint_s` and
/// exponential failures of mean `mtbf_s`; clamps to `mtbf_s` when the
/// write cost exceeds 2×MTBF (checkpointing can no longer pay off).
[[nodiscard]] double daly_optimal_interval_s(double checkpoint_s,
                                             double mtbf_s);

/// Daly's expected time-to-solution for `work_s` of useful work
/// checkpointed every `interval_s`, with per-checkpoint cost
/// `checkpoint_s`, restart cost `restart_s`, and MTBF `mtbf_s`.
[[nodiscard]] double daly_expected_runtime_s(double work_s, double interval_s,
                                             double checkpoint_s,
                                             double restart_s, double mtbf_s);

/// Closed-form estimate of one cluster-wide checkpoint write:
/// `ranks_per_node` ranks each drain `bytes_per_rank` through the
/// node's NICs (heaviest NIC carries ceil(ranks/NICs) flows) and the
/// shared router uplink — whichever is the bottleneck — behind the
/// per-NIC injection FIFO.  Must track ClusterComm::checkpoint_write().
[[nodiscard]] double checkpoint_write_model_s(const sim::FabricSpec& fabric,
                                              int ranks_per_node,
                                              double bytes_per_rank);

/// What the Monte-Carlo C/R engine observed, averaged over its trials.
struct RestartStats {
  double elapsed_s = 0.0;     ///< mean time-to-solution
  double wasted_s = 0.0;      ///< mean work+checkpoint time lost to failures
  double checkpoint_s = 0.0;  ///< mean time spent writing checkpoints
  double checkpoints = 0.0;   ///< mean checkpoints written
  double failures = 0.0;      ///< mean failures struck
};

/// Runs `trials` seeded executions of the segment-by-segment C/R
/// discipline: work `interval_s`, checkpoint at cost `checkpoint_s`
/// (skipped after the final segment), and on a failure — drawn from an
/// exponential of mean `mtbf_s` — pay `restart_s` and resume from the
/// last checkpoint.  `mtbf_s` 0 disables random failures.  Bumps the
/// fault.checkpoints / fault.restarts / fault.lost_work_seconds
/// metrics with the trial totals.
///
/// The segment schedule does not depend on the trial, so it is laid out
/// once per call.  A trial races the segments' costs against its next
/// failure draw; over the leading run of equal-cost segments it takes
/// every step that stays in t's binade and ends by the next failure at
/// once, with the bits the steps one by one would give.
/// check_restart_cell() bounds the call first.
[[nodiscard]] RestartStats simulate_checkpoint_restart(
    double work_s, double interval_s, double checkpoint_s, double restart_s,
    double mtbf_s, std::uint64_t seed, int trials);

/// Checks one simulate_checkpoint_restart() call without running it, so
/// a caller can vet a whole grid before any of it runs.  Each failure is
/// an InvalidArgument whose message starts with `context`: every input
/// finite, work and interval positive, costs non-negative, at least one
/// trial; at most 2^20 segments per trial (naming work and interval);
/// at most 2^32 segment steps in all, trials × segments (naming trials,
/// work and interval); and at most 1e9 expected failures, trials ×
/// segments × expm1(longest segment cost / MTBF) (naming interval and
/// MTBF).  Returns the segments per trial.
std::size_t check_restart_cell(std::string_view context, double work_s,
                               double interval_s, double checkpoint_s,
                               double restart_s, double mtbf_s, int trials);

}  // namespace pvc::fault
