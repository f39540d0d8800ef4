#include "fault/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/metrics_internal.hpp"

namespace pvc::fault {

namespace {
// Bounds of one simulate_checkpoint_restart() call (check_restart_cell).
constexpr std::size_t kMaxSegments = std::size_t{1} << 20;
constexpr std::uint64_t kMaxSegmentSteps = std::uint64_t{1} << 32;
constexpr double kMaxExpectedFailures = 1e9;

/// Where the steps `t += c` of a run of equal segments can be taken in
/// closed form: while t stays in its binade [2^e, 2^(e+1)), whose ulp is
/// u = 2^(e-52), every step whose exact sum stays below 2^(e+1) rounds
/// to t + r, with r = (2^e + c) - 2^e, provided c < 2^e.  The exception
/// is a tie, c - r = ±u/2, where round-half-even follows the last bit
/// of t.  `step` is r, or 0 where that binade is walked step by step
/// (a tie, r = 0, c >= 2^e, or t zero, tiny, negative or infinite).
struct BinadeStep {
  double step = 0.0;
  double top = 0.0;  ///< the largest double below 2^(e+1)
};

BinadeStep binade_step(double t, double c) {
  const std::uint64_t biased = std::bit_cast<std::uint64_t>(t) >> 52;
  if (biased <= 53 || biased >= 2047) {
    return {};
  }
  const double base = std::bit_cast<double>(biased << 52);
  if (!(c < base)) {
    return {};
  }
  const double r = (base + c) - base;  // exact: a multiple of u below 2^e
  const double half_ulp = std::bit_cast<double>((biased - 53) << 52);
  if (r == 0.0 || std::abs(c - r) == half_ulp) {
    return {};
  }
  return {r, std::bit_cast<double>(((biased + 1) << 52) - 1)};
}
}  // namespace

double daly_optimal_interval_s(double checkpoint_s, double mtbf_s) {
  ensure(checkpoint_s > 0.0 && mtbf_s > 0.0, ErrorCode::InvalidArgument,
         "daly_optimal_interval_s: checkpoint cost and MTBF must be positive");
  if (checkpoint_s >= 2.0 * mtbf_s) {
    return mtbf_s;
  }
  // Daly's higher-order perturbation solution of dT/dτ = 0.
  const double ratio = checkpoint_s / (2.0 * mtbf_s);
  return std::sqrt(2.0 * checkpoint_s * mtbf_s) *
             (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) -
         checkpoint_s;
}

double daly_expected_runtime_s(double work_s, double interval_s,
                               double checkpoint_s, double restart_s,
                               double mtbf_s) {
  ensure(work_s > 0.0 && interval_s > 0.0 && mtbf_s > 0.0,
         ErrorCode::InvalidArgument,
         "daly_expected_runtime_s: work, interval, and MTBF must be positive");
  ensure(checkpoint_s >= 0.0 && restart_s >= 0.0, ErrorCode::InvalidArgument,
         "daly_expected_runtime_s: costs must be non-negative");
  // T = M e^{R/M} (e^{(τ+C)/M} − 1) · W/τ: each of the W/τ segments is an
  // exponential race between finishing (τ+C) and failing, restart cost R.
  return mtbf_s * std::exp(restart_s / mtbf_s) *
         (std::exp((interval_s + checkpoint_s) / mtbf_s) - 1.0) *
         (work_s / interval_s);
}

double checkpoint_write_model_s(const sim::FabricSpec& fabric,
                                int ranks_per_node, double bytes_per_rank) {
  ensure(ranks_per_node >= 1, ErrorCode::InvalidArgument,
         "checkpoint_write_model_s: need at least one rank per node");
  ensure(bytes_per_rank > 0.0, ErrorCode::InvalidArgument,
         "checkpoint_write_model_s: bytes per rank must be positive");
  // Every node drains in parallel, so one node bounds the cluster: the
  // heaviest NIC carries ceil(ranks/NICs) flows against its injection
  // bandwidth, all ranks share the router uplink, and the injection
  // FIFO staggers the heaviest NIC's flows by the message gap.
  const int heavy = (ranks_per_node + fabric.nic.per_node - 1) /
                    fabric.nic.per_node;
  const double serial_bps =
      std::min(fabric.nic.injection_bps / static_cast<double>(heavy),
               fabric.topo.local_link_bps / static_cast<double>(ranks_per_node));
  return fabric.nic.latency_s + fabric.topo.local_hop_latency_s +
         static_cast<double>(heavy - 1) * sim::nic_message_gap_s(fabric) +
         bytes_per_rank / serial_bps;
}

std::size_t check_restart_cell(std::string_view context, double work_s,
                               double interval_s, double checkpoint_s,
                               double restart_s, double mtbf_s, int trials) {
  const auto fail = [context](const std::string& why) {
    raise(ErrorCode::InvalidArgument, std::string(context) + ": " + why);
  };
  if (!(std::isfinite(work_s) && std::isfinite(interval_s) &&
        std::isfinite(checkpoint_s) && std::isfinite(restart_s) &&
        std::isfinite(mtbf_s))) {
    fail("work, interval, costs and MTBF must be finite");
  }
  if (!(work_s > 0.0 && interval_s > 0.0)) {
    fail("work and interval must be positive");
  }
  if (!(checkpoint_s >= 0.0 && restart_s >= 0.0 && mtbf_s >= 0.0)) {
    fail("costs must be non-negative");
  }
  if (trials < 1) {
    fail("need at least one trial");
  }
  // Count the segments with the same `done += segment` steps the
  // schedule takes.
  std::size_t segments = 0;
  for (double done = 0.0; done < work_s;
       done += std::min(interval_s, work_s - done)) {
    if (++segments > kMaxSegments) {
      fail("work " + format_value(work_s) + " s at interval " +
           format_value(interval_s) +
           " s needs more than 2^20 segments per trial");
    }
  }
  const std::uint64_t steps = static_cast<std::uint64_t>(trials) * segments;
  if (steps > kMaxSegmentSteps) {
    fail(std::to_string(trials) + " trials of " + std::to_string(segments) +
         " segments (work " + format_value(work_s) + " s at interval " +
         format_value(interval_s) + " s) walk " + std::to_string(steps) +
         " segments, more than 2^32");
  }
  if (mtbf_s > 0.0) {
    // Each attempt at a segment fails with probability 1 - e^{-cost/M},
    // so a segment expects expm1(cost/M) failures; the first segment
    // costs the most.
    const double first = std::min(interval_s, work_s);
    const double longest = first + (first >= work_s ? 0.0 : checkpoint_s);
    const double expected_failures = static_cast<double>(steps) *
                                     std::expm1(longest / mtbf_s);
    if (expected_failures > kMaxExpectedFailures) {
      fail("interval " + format_value(interval_s) + " s plus checkpoint " +
           format_value(checkpoint_s) + " s against mtbf " +
           format_value(mtbf_s) + " s expects " +
           format_value(expected_failures) + " failures over " +
           std::to_string(trials) + " trials (limit 1e9)");
    }
  }
  return segments;
}

RestartStats simulate_checkpoint_restart(double work_s, double interval_s,
                                         double checkpoint_s, double restart_s,
                                         double mtbf_s, std::uint64_t seed,
                                         int trials) {
  const std::size_t segments =
      check_restart_cell("simulate_checkpoint_restart", work_s, interval_s,
                         checkpoint_s, restart_s, mtbf_s, trials);

  // The segment schedule is the same in every trial: only the failure
  // times differ.  Lay out each segment's cost (work, plus the
  // checkpoint write unless it is the final segment) once, with the
  // same `done += segment` steps a trial would take.
  std::vector<double> cost;
  cost.reserve(segments);
  double done = 0.0;  // durable (checkpointed) work
  while (done < work_s) {
    const double segment = std::min(interval_s, work_s - done);
    const bool final_segment = done + segment >= work_s;
    cost.push_back(segment + (final_segment ? 0.0 : checkpoint_s));
    done += segment;
  }
  // Every trial writes all checkpoints but the final segment's.
  const std::uint64_t trial_ckpts = cost.size() - 1;
  double ckpt_time = 0.0;
  for (std::uint64_t i = 0; i < trial_ckpts; ++i) {
    ckpt_time += checkpoint_s;
  }
  // The leading run of equal-cost segments (normally all but the final
  // one), whose steps a trial takes a binade at a time.
  const double c = cost.front();
  const std::size_t run = static_cast<std::size_t>(
      std::find_if(cost.begin(), cost.end(),
                   [c](double x) { return x != c; }) -
      cost.begin());

  // Failure draws in stream order, computed 64 at a time: a draw
  // depends only on its position in the stream, so batching them keeps
  // every bit and takes the logs off the trial's critical path.
  Rng rng(seed ^ 0xda1e0fda11ull);
  std::array<double, 64> draws{};
  std::size_t next_draw = draws.size();
  const auto draw_failure = [&] {
    if (next_draw == draws.size()) {
      for (double& draw : draws) {
        draw = -mtbf_s * std::log(1.0 - rng.uniform());
      }
      next_draw = 0;
    }
    return draws[next_draw++];
  };

  RestartStats total;
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  double lost = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    double t = 0.0;
    double wasted = 0.0;
    std::uint64_t trial_fails = 0;
    double next_fail = mtbf_s > 0.0 ? draw_failure()
                                    : std::numeric_limits<double>::infinity();
    const auto fail = [&] {
      // The failure lands before the segment (and its checkpoint)
      // become durable: everything since the last checkpoint is lost.
      wasted += next_fail - t;
      t = next_fail + restart_s;
      ++trial_fails;
      next_fail = t + draw_failure();
    };
    for (std::size_t k = 0; k < cost.size();) {
      if (k < run) {
        // Take the j steps that stay in t's binade and end at or before
        // the next failure at once.  lim - t and r are multiples of the
        // binade's ulp by integers below 2^53, so truncating one rounded
        // division gives their exact floor, and t + j r is exactly the
        // sum the j steps would reach.
        const BinadeStep binade = binade_step(t, c);
        if (binade.step > 0.0) {
          const bool fails_in_binade = next_fail <= binade.top;
          const double lim = fails_in_binade ? next_fail : binade.top;
          const std::uint64_t j = std::min<std::uint64_t>(
              static_cast<std::uint64_t>((lim - t) / binade.step), run - k);
          t += static_cast<double>(j) * binade.step;
          k += j;
          if (k == run) {
            continue;
          }
          if (fails_in_binade) {
            // Step j + 1 would end past next_fail: segment k fails.
            fail();
            continue;
          }
          // Otherwise one ordinary step crosses the binade's top.
        }
      }
      const double end = t + cost[k];
      if (next_fail < end) {
        fail();
        continue;
      }
      t = end;
      ++k;
    }
    total.elapsed_s += t;
    total.wasted_s += wasted;
    total.checkpoint_s += ckpt_time;
    total.checkpoints += static_cast<double>(trial_ckpts);
    total.failures += static_cast<double>(trial_fails);
    checkpoints += trial_ckpts;
    failures += trial_fails;
    lost += wasted;
  }
  const double n = static_cast<double>(trials);
  total.elapsed_s /= n;
  total.wasted_s /= n;
  total.checkpoint_s /= n;
  total.checkpoints /= n;
  total.failures /= n;

  auto& fm = detail::fault_metrics();
  fm.checkpoints->add(checkpoints);
  fm.restarts->add(failures);
  fm.lost_work_seconds->add(lost);
  return total;
}

}  // namespace pvc::fault
