#include "apps/openmc_mini.hpp"

#include <cmath>

#include "arch/peaks.hpp"
#include "core/units.hpp"

namespace pvc::apps {

double openmc_software_efficiency(const arch::NodeSpec& node) {
  // §VI-B1: OpenMC's OpenMP-offload path is exceptionally good on PVC;
  // CUDA follows closely; ROCm trails badly on this latency-bound code.
  if (node.system_name == "Aurora" || node.system_name == "Dawn") {
    return 1.0;
  }
  if (node.system_name == "JLSE-H100") {
    return 0.876;
  }
  if (node.system_name == "JLSE-MI250") {
    return 0.40;
  }
  return 0.8;
}

double openmc_rate_per_subdevice(const arch::NodeSpec& node) {
  // Latency/bandwidth mixture: the tally kernel issues dependent,
  // irregular loads, so throughput grows with bandwidth but is damped by
  // access latency — modelled as the geometric mean of the two ratios
  // against the PVC stack baseline of 170k particles/s.
  const double bw_ratio =
      arch::subdevice_stream_bandwidth(node) / (1.0 * TBps);
  const double latency_ratio =
      860.0 / node.card.subdevice.hbm.latency_cycles;
  const double raw = std::sqrt(bw_ratio * latency_ratio);
  return 170.0e3 * raw * openmc_software_efficiency(node);
}

miniapps::FomTriple openmc_fom(const arch::NodeSpec& node) {
  miniapps::FomTriple fom;
  // Weak-scaled tallying: near-linear in subdevices (tallies are local).
  fom.node = openmc_rate_per_subdevice(node) *
             static_cast<double>(node.total_subdevices()) / 1.0e3;
  return fom;
}

}  // namespace pvc::apps
