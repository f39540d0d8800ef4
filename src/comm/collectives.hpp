#pragma once
// Collective operations built on the point-to-point layer.
//
// Functionally correct (they really move and combine the payloads) and
// timed through the flow network.  Used by the mini-apps' weak-scaled
// phases and tested against analytic results.

#include <span>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"

namespace pvc::comm {

/// Synchronizes all ranks with a dissemination barrier (log2(P) rounds of
/// zero-byte messages).  Returns the simulated completion time.
sim::Time barrier(Communicator& comm);

/// Allreduce algorithm selection (docs/SCALING.md).  Real MPI libraries
/// switch algorithm by message size and rank count; `Auto` reproduces
/// that switchover via allreduce_algorithm_for().  `Ring` remains the
/// default so existing callers keep the seed schedule verbatim.
enum class AllreduceAlgorithm {
  Auto,               ///< pick by total vector size and rank count
  Ring,               ///< 2(p-1) rounds of bytes/p blocks — bandwidth-bound
  RecursiveDoubling,  ///< log2(p) full-vector rounds — latency-bound, pow2
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

/// All-reduce (sum) over per-rank vectors of equal length.  On return
/// every rank's vector holds the element-wise sum; the reported time is
/// the completion of the slowest rank.  `element_bytes` prices the wire
/// traffic (8 for FP64 payloads).  The default `Ring` keeps the seed
/// ring schedule; `Auto` switches algorithm by size and rank count, and
/// `RecursiveDoubling` requires a power-of-two rank count (throws
/// ErrorCode::InvalidArgument otherwise).
sim::Time allreduce_sum(Communicator& comm,
                        std::vector<std::vector<double>>& rank_data,
                        double element_bytes = 8.0,
                        AllreduceAlgorithm algo = AllreduceAlgorithm::Ring);

/// Neighbour halo exchange on a 1-D ring: every rank sends `halo_bytes`
/// to both neighbours and receives the same (CloverLeaf's communication
/// pattern at the end of each step).  Returns completion time.
sim::Time halo_exchange_ring(Communicator& comm, double halo_bytes);

/// Gather of equal-sized blocks to rank 0 (timing only).
sim::Time gather_to_root(Communicator& comm, double block_bytes);

/// Broadcast from rank 0 via a binomial tree (timing only).
sim::Time broadcast_from_root(Communicator& comm, double bytes);

/// Pairwise-exchange all-to-all: every rank sends a distinct
/// `block_bytes` block to every other rank (P-1 rounds with partner
/// r XOR round where possible, ring otherwise).  The FFT-transpose
/// communication pattern.  Timing only; returns completion time.
sim::Time alltoall(Communicator& comm, double block_bytes);

/// Reduction (sum) of per-rank vectors onto rank 0 via a binomial tree;
/// functionally combines the payloads.  On return rank_data[0] holds the
/// element-wise sum; other ranks' vectors are unspecified partials.
sim::Time reduce_sum_to_root(Communicator& comm,
                             std::vector<std::vector<double>>& rank_data,
                             double element_bytes = 8.0);

/// Paired exchange between two ranks (both directions concurrently);
/// returns completion time.  The Table III bidirectional measurement.
sim::Time sendrecv(Communicator& comm, int rank_a, int rank_b, double bytes);

// --- cluster-scale allreduce schedules (docs/SCALING.md) -------------------
//
// cluster_allreduce() (comm/cluster.cpp) runs round by round as bulk
// exchanges; the round builders live here so the schedule is one
// authoritative function of (algo, ranks, round) shared by the plain
// driver, the fault-tolerant driver (fault/recovery.hpp), and the tests
// that pin it.

/// Bulk-synchronous rounds cluster_allreduce() runs with `algo` over
/// `ranks` dense ranks: 2(ranks-1) for Ring, log2(ranks) for
/// RecursiveDoubling (power-of-two counts only, else throws
/// ErrorCode::InvalidArgument), 2*ceil(log2(ranks)) for BinomialTree
/// (binomial reduce plus mirrored broadcast).  0 when ranks <= 1.
[[nodiscard]] int cluster_allreduce_rounds(sim::CollectiveAlgo algo,
                                           int ranks);

/// Messages of round `round` (in [0, cluster_allreduce_rounds())) of a
/// cluster allreduce of `bytes` per rank, in the posting order
/// cluster_allreduce() uses — ascending source rank within the round.
[[nodiscard]] std::vector<ClusterComm::Message> cluster_allreduce_round(
    sim::CollectiveAlgo algo, int ranks, int round, double bytes);

}  // namespace pvc::comm
