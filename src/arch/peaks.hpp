#pragma once
// Analytic performance resolvers: spec + power governor + calibration.
//
// These functions answer "what rate does workload X sustain on scope Y of
// system Z" — the quantities the microbenchmarks measure.  Transfers and
// contention go through the discrete-event flow model instead (runtime /
// comm); compute and bandwidth rates are closed-form.

#include "arch/gpu_spec.hpp"
#include "arch/precision.hpp"
#include "arch/workload.hpp"

namespace pvc::arch {

/// Execution scope used throughout the paper's tables: one Xe-Stack /
/// GCD, one card (both stacks), or every GPU in the node.
enum class Scope { OneSubdevice, OneCard, FullNode };

[[nodiscard]] std::string scope_name(Scope s);

/// Number of concurrently active subdevices for a scope.
[[nodiscard]] int active_subdevices(const NodeSpec& node, Scope scope);

/// Active stacks per card / active cards implied by a scope.
struct Activity {
  int stacks_per_card = 1;
  int cards = 1;
  [[nodiscard]] int total() const { return stacks_per_card * cards; }
};
[[nodiscard]] Activity activity(const NodeSpec& node, Scope scope);

/// Frequency the power governor resolves for `kind` at `scope`.
[[nodiscard]] double governed_frequency(const NodeSpec& node,
                                        WorkloadKind kind, Scope scope);

/// Fraction of the vector pipeline's peak an FMA chain sustains: the
/// paper's 99%, on every system.
inline constexpr double kPaperFmaEfficiency = 0.99;

/// FMA-chain peak (the paper's "Peak Flops" rows): vector pipeline at the
/// governed frequency times kPaperFmaEfficiency, summed over the scope's
/// subdevices.  Precision must be FP64 or FP32.
[[nodiscard]] double fma_peak(const NodeSpec& node, Precision p, Scope scope);

/// Theoretical vector peak at f_max (no governor) — used for Table IV
/// style reference numbers and the figures' expected bars.
[[nodiscard]] double theoretical_vector_peak(const NodeSpec& node,
                                             Precision p, Scope scope);

/// Stream-triad bandwidth: HBM spec times calibrated efficiency, summed
/// over the scope (memory scales linearly with stacks, §IV-B1).
[[nodiscard]] double stream_bandwidth(const NodeSpec& node, Scope scope);

/// GEMM sustained rate for the paper's N=20480 square problem.
[[nodiscard]] double gemm_rate(const NodeSpec& node, Precision p,
                               Scope scope);

/// Per-scope achieved HBM bandwidth available to one subdevice for
/// roofline kernel timing (bandwidth does not contend across stacks).
[[nodiscard]] double subdevice_stream_bandwidth(const NodeSpec& node);

/// Modeled power picture of a workload at a scope.
struct PowerReport {
  double frequency_hz = 0.0;      ///< governed clock
  double per_stack_w = 0.0;       ///< draw of each active stack
  double total_w = 0.0;           ///< sum over active stacks
  double stack_cap_w = 0.0;       ///< binding budgets, for context
  double card_cap_w = 0.0;
  double node_cap_w = 0.0;
};

/// Resolves the governor and reports the power draw for `kind` at
/// `scope` — the quantity behind the paper's TDP discussion.
[[nodiscard]] PowerReport power_report(const NodeSpec& node,
                                       WorkloadKind kind, Scope scope);

}  // namespace pvc::arch
