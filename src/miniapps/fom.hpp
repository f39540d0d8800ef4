#pragma once
// Figure-of-merit plumbing shared by the mini-apps and applications.
//
// Table VI reports FOMs at three scopes (one stack / one GPU / full
// node) with "-" for combinations that do not apply (miniBUDE is not an
// MPI code; OpenMC and HACC were run at node scale only; mini-GAMESS did
// not build on ROCm).  `FomTriple` mirrors that sparsity.

#include <optional>

#include "arch/gpu_spec.hpp"

namespace pvc::miniapps {

/// One Table VI row slice for one system.
struct FomTriple {
  std::optional<double> one_stack;  ///< one Xe-Stack / one GCD
  std::optional<double> one_gpu;    ///< one card (or one H100)
  std::optional<double> node;       ///< every GPU in the node
};

/// True for the PVC systems (Aurora / Dawn), whose cards split into two
/// benchmarkable stacks.
[[nodiscard]] inline bool has_stacks(const arch::NodeSpec& node) {
  return node.card.subdevice_count == 2;
}

}  // namespace pvc::miniapps
