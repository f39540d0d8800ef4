#include "miniapps/minigamess.hpp"

#include "arch/peaks.hpp"
#include "core/error.hpp"

namespace pvc::miniapps {

double minigamess_walltime(const arch::NodeSpec& node, int ranks) {
  ensure(ranks >= 1 && ranks <= node.total_subdevices(),
         "minigamess_walltime: bad rank count");
  // Strong scaling: the DGEMM volume splits across ranks; each rank
  // sustains the node's per-subdevice DGEMM rate at that occupancy.
  arch::Scope scope = arch::Scope::OneSubdevice;
  if (ranks == node.total_subdevices() && ranks > 1) {
    scope = arch::Scope::FullNode;
  } else if (ranks == node.card.subdevice_count && ranks > 1) {
    scope = arch::Scope::OneCard;
  }
  const double aggregate_rate =
      arch::gemm_rate(node, arch::Precision::FP64, scope) /
      static_cast<double>(arch::active_subdevices(node, scope)) *
      static_cast<double>(ranks);
  return kW90DgemmFlops / aggregate_rate + kW90SerialSeconds;
}

FomTriple minigamess_fom(const arch::NodeSpec& node) {
  FomTriple fom;
  if (node.system_name == "JLSE-MI250") {
    // The Fortran mini-app failed to build with the AMD compiler
    // (paper §V-B3) — reproduced as an unsupported configuration.
    return fom;
  }
  const auto fom_at = [&](int ranks) {
    return 3600.0 / minigamess_walltime(node, ranks);
  };
  if (has_stacks(node)) {
    fom.one_stack = fom_at(1);
    fom.one_gpu = fom_at(2);
  } else {
    fom.one_gpu = fom_at(1);
  }
  fom.node = fom_at(node.total_subdevices());
  return fom;
}

}  // namespace pvc::miniapps
