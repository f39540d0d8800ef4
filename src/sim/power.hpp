#pragma once
// Power / frequency governor.
//
// The paper attributes several first-order effects to TDP management
// (§IV-B2): FP64 FMA chains clock at ~1.2 GHz while FP32 runs at
// ~1.6 GHz, two-stack scaling efficiency is 92-97%, and full-node
// compute scaling lands at 87-95% depending on the system.  We model a
// stack's power draw as
//
//     P(f) = P_static + P_dyn(workload) * (f / f_max)^alpha
//
// subject to three nested sustained-power budgets: per stack (power
// delivery), per card (the operational 600 W / 500 W caps) and per node
// (facility/cooling).  The governor picks the highest frequency that fits
// every budget given how many stacks are concurrently active.  All
// budgets are closed-form because P(f) is monotonic in f.

#include <string>

namespace pvc::sim {

/// Sustained power budgets and the dynamic-power exponent of one system.
struct PowerDomain {
  double f_max_hz = 1.6e9;     ///< maximum GPU clock
  double static_w = 75.0;      ///< per-stack leakage + uncore power
  double stack_cap_w = 261.0;  ///< sustained per-stack power delivery
  double card_cap_w = 500.0;   ///< per-card operational cap
  double node_cap_w = 2915.0;  ///< node-level GPU power budget
  int stacks_per_card = 2;
  int cards = 6;
  double alpha = 2.0;  ///< dynamic power ~ (f/f_max)^alpha
};

/// Resolves operating frequency against the nested power budgets.
class PowerGovernor {
 public:
  explicit PowerGovernor(PowerDomain domain);

  /// Operating frequency (Hz) when `active_stacks_per_card` stacks on
  /// each of `active_cards` cards run a workload whose dynamic power at
  /// f_max is `dynamic_w_at_fmax` per stack.
  [[nodiscard]] double operating_frequency(double dynamic_w_at_fmax,
                                           int active_stacks_per_card,
                                           int active_cards) const;

  /// Per-stack power draw (W) at frequency `f_hz` for the same workload.
  [[nodiscard]] double stack_power(double dynamic_w_at_fmax,
                                   double f_hz) const;

  /// Records `seconds` of device time executed at `f_hz` into the obs
  /// registry: the power.time_at_freq_mhz histogram (weighted by
  /// seconds), per-stack energy in joules, and the throttled vs
  /// full-clock second split.  Called by the kernel pricing layer for
  /// every evaluated launch.
  void account_execution(double dynamic_w_at_fmax, double f_hz,
                         double seconds) const;

  [[nodiscard]] const PowerDomain& domain() const noexcept { return domain_; }

 private:
  PowerDomain domain_;
};

}  // namespace pvc::sim
