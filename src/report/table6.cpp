#include "report/table6.hpp"

#include "apps/hacc_mini.hpp"
#include "apps/openmc_mini.hpp"
#include "miniapps/cloverleaf.hpp"
#include "miniapps/minibude.hpp"
#include "miniapps/minigamess.hpp"
#include "miniapps/miniqmc.hpp"

namespace pvc::report {

Table6Column compute_table6(const arch::NodeSpec& node) {
  Table6Column col;
  col.system = node.system_name;
  col.minibude = miniapps::minibude_fom(node);
  col.cloverleaf = miniapps::cloverleaf_fom(node);
  col.miniqmc = miniapps::miniqmc_fom(node);
  col.minigamess = miniapps::minigamess_fom(node);
  col.openmc = apps::openmc_fom(node);
  if (node.system_name == "Dawn") {
    // The paper did not run OpenMC on Dawn; keep the cell blank so the
    // rendered table matches Table VI.
    col.openmc = miniapps::FomTriple{};
  }
  col.hacc = apps::hacc_fom(node);
  return col;
}

}  // namespace pvc::report
