#include "sim/power.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace pvc::sim {

namespace {

struct PowerMetrics {
  obs::Counter* governor_resolves;
  obs::Counter* throttle_events;
  obs::Histogram* time_at_freq_mhz;
  obs::Gauge* energy_joules;
  obs::Gauge* busy_seconds;
  obs::Gauge* throttled_seconds;
  obs::Gauge* fullclock_seconds;
};

PowerMetrics& power_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local PowerMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    PowerMetrics p;
    p.governor_resolves =
        &reg.counter("power.governor_resolves", "calls",
                     "operating-frequency resolutions performed");
    p.throttle_events =
        &reg.counter("power.throttle_events", "calls",
                     "resolutions where a budget forced f below f_max");
    p.time_at_freq_mhz = &reg.histogram(
        "power.time_at_freq_mhz", "MHz x seconds",
        "device seconds executed per log2 frequency bucket (MHz)");
    p.energy_joules = &reg.gauge("power.energy_joules", "J",
                                 "per-stack energy of evaluated launches");
    p.busy_seconds = &reg.gauge("power.busy_seconds", "s",
                                "device seconds accounted by the governor");
    p.throttled_seconds =
        &reg.gauge("power.throttled_seconds", "s",
                   "device seconds spent below 99% of f_max");
    p.fullclock_seconds =
        &reg.gauge("power.fullclock_seconds", "s",
                   "device seconds spent at (or within 1% of) f_max");
    return p;
  }();
  return m;
}

}  // namespace

PowerGovernor::PowerGovernor(PowerDomain domain) : domain_(domain) {
  ensure(domain_.f_max_hz > 0.0, "PowerGovernor: f_max must be positive");
  ensure(domain_.static_w >= 0.0, "PowerGovernor: negative static power");
  ensure(domain_.stack_cap_w > domain_.static_w,
         "PowerGovernor: stack cap below static power");
  ensure(domain_.stacks_per_card >= 1 && domain_.cards >= 1,
         "PowerGovernor: invalid topology");
  ensure(domain_.alpha > 0.0, "PowerGovernor: alpha must be positive");
}

double PowerGovernor::operating_frequency(double dynamic_w_at_fmax,
                                          int active_stacks_per_card,
                                          int active_cards) const {
  ensure(dynamic_w_at_fmax > 0.0, "PowerGovernor: dynamic power must be > 0");
  ensure(active_stacks_per_card >= 1 &&
             active_stacks_per_card <= domain_.stacks_per_card,
         "PowerGovernor: bad active stack count");
  ensure(active_cards >= 1 && active_cards <= domain_.cards,
         "PowerGovernor: bad active card count");

  // For a budget C shared by n stacks: n*(S + D*x) <= C where
  // x = (f/f_max)^alpha, hence x <= (C/n - S)/D.
  const auto budget_x = [&](double cap_w, int n_stacks) {
    const double per_stack = cap_w / static_cast<double>(n_stacks);
    return (per_stack - domain_.static_w) / dynamic_w_at_fmax;
  };

  const int total_active = active_stacks_per_card * active_cards;
  double x = 1.0;
  x = std::min(x, budget_x(domain_.stack_cap_w, 1));
  x = std::min(x, budget_x(domain_.card_cap_w, active_stacks_per_card));
  x = std::min(x, budget_x(domain_.node_cap_w, total_active));
  ensure(x > 0.0, "PowerGovernor: workload infeasible under power budgets");

  const double f = domain_.f_max_hz * std::pow(x, 1.0 / domain_.alpha);
  auto& metrics = power_metrics();
  metrics.governor_resolves->add(1);
  if (x < 1.0) {
    metrics.throttle_events->add(1);
  }
  return f;
}

void PowerGovernor::account_execution(double dynamic_w_at_fmax, double f_hz,
                                      double seconds) const {
  if (!obs::enabled() || seconds <= 0.0) {
    return;
  }
  auto& metrics = power_metrics();
  const auto mhz = static_cast<std::uint64_t>(std::llround(f_hz / 1e6));
  metrics.time_at_freq_mhz->observe(mhz, seconds);
  metrics.energy_joules->add(stack_power(dynamic_w_at_fmax, f_hz) * seconds);
  metrics.busy_seconds->add(seconds);
  if (f_hz < 0.99 * domain_.f_max_hz) {
    metrics.throttled_seconds->add(seconds);
  } else {
    metrics.fullclock_seconds->add(seconds);
  }
}

double PowerGovernor::stack_power(double dynamic_w_at_fmax,
                                  double f_hz) const {
  ensure(f_hz >= 0.0 && f_hz <= domain_.f_max_hz * (1.0 + 1e-9),
         "PowerGovernor: frequency out of range");
  const double x = std::pow(f_hz / domain_.f_max_hz, domain_.alpha);
  return domain_.static_w + dynamic_w_at_fmax * x;
}

}  // namespace pvc::sim
