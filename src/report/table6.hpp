#pragma once
// Table VI assembly: mini-app and application figures-of-merit for all
// four systems.

#include <string>

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::report {

/// One system's column group of Table VI.
struct Table6Column {
  std::string system;
  miniapps::FomTriple minibude;
  miniapps::FomTriple cloverleaf;
  miniapps::FomTriple miniqmc;
  miniapps::FomTriple minigamess;
  miniapps::FomTriple openmc;
  miniapps::FomTriple hacc;
};

/// Computes the model's Table VI column for one system.  Cells the paper
/// leaves blank ("-") stay unset: miniBUDE beyond one stack (not MPI),
/// mini-GAMESS on MI250 (build failure), OpenMC everywhere but node
/// scale, OpenMC on Dawn (not run), HACC below node scale.
[[nodiscard]] Table6Column compute_table6(const arch::NodeSpec& node);

}  // namespace pvc::report
