#pragma once
// Collectives on the point-to-point layer, and the allreduce algorithm
// switchover rule.
//
// halo_exchange_ring() is the one node collective: CloverLeaf's weak-
// scaled halo round (cloverleaf_fom), timed through the flow network.
// The allreduce algorithms are named here and selected by size and rank
// count; fault::ft_allreduce() (fault/recovery.hpp) runs their schedules
// over the cluster fabric, and its ft_round_messages() is the one
// discrete-event allreduce schedule.

#include "comm/communicator.hpp"

namespace pvc::comm {

/// Allreduce algorithm selection (docs/SCALING.md).  Real MPI libraries
/// switch algorithm by message size and rank count; `Auto` reproduces
/// that switchover via allreduce_algorithm_for().
enum class AllreduceAlgorithm {
  Auto,               ///< pick by total vector size and rank count
  Ring,               ///< 2(p-1) rounds of bytes/p blocks — bandwidth-bound
  RecursiveDoubling,  ///< log2(p) full-vector rounds — latency-bound
  ReduceBroadcast,    ///< binomial reduce + broadcast — tiny payloads
};

[[nodiscard]] const char* allreduce_algorithm_name(AllreduceAlgorithm algo);

/// The switchover rule: recursive doubling for small vectors on
/// power-of-two rank counts, reduce+broadcast for tiny vectors on other
/// counts, ring for everything bandwidth-bound.  `total_bytes` is the
/// per-rank vector size in bytes.  Never returns Auto.
[[nodiscard]] AllreduceAlgorithm allreduce_algorithm_for(double total_bytes,
                                                         int ranks);

/// Bulk-synchronous rounds the algorithm runs over `ranks` participants
/// (the fault-tolerant cluster driver in fault/recovery.hpp sizes its
/// schedule with this): ring is 2(ranks-1); recursive doubling folds
/// non-power-of-two counts into the largest power of two q with one
/// pre- and one post-round for the extras, so log2(q) [+2]; reduce +
/// broadcast is ceil(log2(ranks)) reduce rounds plus log2(top)
/// broadcast rounds with top the smallest power of two >= ranks.
/// `algo` must not be Auto.  Returns 0 for a single rank.
[[nodiscard]] int allreduce_round_count(AllreduceAlgorithm algo, int ranks);

/// Neighbour halo exchange on a 1-D ring: every rank sends `halo_bytes`
/// to both neighbours and receives the same (CloverLeaf's communication
/// pattern at the end of each step).  Returns completion time.
sim::Time halo_exchange_ring(Communicator& comm, double halo_bytes);

}  // namespace pvc::comm
