#include "miniapps/cloverleaf.hpp"

#include "arch/peaks.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "runtime/node_sim.hpp"

namespace pvc::miniapps {

FomTriple cloverleaf_fom(const arch::NodeSpec& node) {
  // Per-rank compute time of the benchmark run: every cell streams
  // kBytesPerCellStep bytes per step at the achieved stream bandwidth.
  const double bw = arch::subdevice_stream_bandwidth(node);
  const double compute_s = kPaperCells * kBytesPerCellStep * kBenchSteps / bw;

  // Halo exchange cost at node scale, priced by the comm layer: four
  // field rows (plus corners) per neighbour per step.
  rt::NodeSim sim(node);
  auto comm = comm::Communicator::explicit_scaling(sim);
  const double halo_bytes = 15360.0 * 8.0 * 4.0;
  const sim::Time t0 = sim.engine().now();
  const sim::Time t1 = comm::halo_exchange_ring(comm, halo_bytes);
  const double halo_s = (t1 - t0) * kBenchSteps;

  const double per_rank_mcells =
      kPaperCells / compute_s / 1.0e6;  // one rank, no communication
  const int subdevices = node.total_subdevices();
  const double node_mcells = kPaperCells * subdevices /
                             (compute_s + halo_s) / 1.0e6;

  FomTriple fom;
  if (has_stacks(node)) {
    fom.one_stack = per_rank_mcells;
    fom.one_gpu = 2.0 * kPaperCells / (compute_s) / 1.0e6;
  } else {
    fom.one_gpu = per_rank_mcells;
  }
  fom.node = node_mcells;
  return fom;
}

}  // namespace pvc::miniapps
