#include "miniapps/miniqmc.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/units.hpp"

namespace pvc::miniapps {
namespace {
/// FOM value of one Aurora stack at the reference block time of 1.0
/// (normalization constant of the cost model).
constexpr double kQmcFomScale = 3.16;
}  // namespace

QmcCost miniqmc_cost(const arch::NodeSpec& node) {
  QmcCost c;
  // Calibrated against Table VI (see DESIGN.md §1): the GPU share is
  // small, the CPU share dominates — which is exactly why the paper's
  // compute/bandwidth microbenchmarks fail to predict this mini-app.
  if (node.system_name == "Aurora") {
    c = {0.139, 0.688, 24.0, 0.173, 0.0};
  } else if (node.system_name == "Dawn") {
    // Sapphire-Rapids cores are ~1.24x Aurora's Ice-Lake cores.
    c = {0.122, 0.554, 24.0, 0.173, 0.0};
  } else if (node.system_name == "JLSE-H100") {
    // One rank drives a whole H100, wanting proportionally more threads.
    c = {0.086, 0.554, 36.0, 0.173, 0.0};
  } else if (node.system_name == "JLSE-MI250") {
    // Order-of-magnitude software inefficiency (§V-B3) plus per-rank
    // launch serialization in the runtime.
    c = {2.72, 0.554, 12.0, 0.173, 2.67};
  } else {
    c = {0.15, 0.6, 24.0, 0.2, 0.0};
  }
  return c;
}

double miniqmc_block_time(const arch::NodeSpec& node, int ranks) {
  ensure(ranks >= 1 && ranks <= node.total_subdevices(),
         "miniqmc_block_time: bad rank count");
  const QmcCost c = miniqmc_cost(node);

  // CPU congestion: ranks fill cards in order; the most loaded socket
  // determines the stretch.
  const int spc = node.card.subdevice_count;
  const int cards_used = (ranks + spc - 1) / spc;
  const int cards_socket0 =
      std::max(1, node.card_count / node.cpu.sockets);
  const int ranks_socket0 = std::min(ranks, cards_socket0 * spc);
  const double usable_per_socket =
      static_cast<double>(node.cpu.cores_per_socket - 1);
  const double rank_cores =
      usable_per_socket / static_cast<double>(ranks_socket0);
  const double cpu_time =
      c.cpu_s * std::max(1.0, c.cpu_threads_needed / rank_cores);

  // PCIe sharing: stacks of one card share its link; the host aggregate
  // caps the total.
  const int ranks_per_card = std::min(ranks, spc);
  const double card_share =
      node.card.pcie.h2d_bps / static_cast<double>(ranks_per_card);
  const double host_share =
      node.host_io.h2d_total_bps / static_cast<double>(ranks);
  const double share = std::min(card_share, host_share);
  const double xfer_time = c.xfer_s_at_55gbps * (55.0 * GBps) / share;

  const double serial_time =
      c.serialization_s_per_rank * static_cast<double>(ranks);
  static_cast<void>(cards_used);
  return c.gpu_s + cpu_time + xfer_time + serial_time;
}

FomTriple miniqmc_fom(const arch::NodeSpec& node) {
  FomTriple fom;
  const auto fom_at = [&](int ranks) {
    return kQmcFomScale * static_cast<double>(ranks) /
           miniqmc_block_time(node, ranks);
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
