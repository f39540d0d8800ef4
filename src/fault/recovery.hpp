#pragma once
// Fault-tolerant cluster collectives (docs/ROBUSTNESS.md).
//
// The plain cluster_halo_exchange() wrapper raises ErrorCode::RankFailed
// the moment a message fails.  The drivers here recover instead, the
// way ULFM-style MPI applications do: when an exchange reports
// failures, the operation rolls back to its last consistent state and
// restarts with a repaired communicator —
//
//  * RecoveryPolicy::Shrink — the survivors deterministically rebuild
//    the ring / recursive-doubling / reduce-broadcast schedule over the
//    remaining ranks and rerun from round 0;
//  * RecoveryPolicy::Spare — every node hosting a dead participant is
//    failed over to a hot-spare node (ClusterComm::activate_spare, the
//    bind_ranks_multinode remap), its ranks revive, and the original
//    schedule reruns.
//
// Schedules are pure functions of (participants, algorithm, bytes).
// ft_round_messages() is the one cluster allreduce schedule: without
// faults, ft_allreduce() is the plain cluster allreduce.  The
// from-scratch reference_ft_schedule() oracle re-derives every round
// independently, and the FtSchedule tests assert bit-equality.

#include <span>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/collectives.hpp"
#include "fault/plan.hpp"

namespace pvc::fault {

/// What a fault-tolerant collective did.
struct FtResult {
  double elapsed_s = 0.0;  ///< first post to last delivered completion
  int rounds_run = 0;      ///< bulk exchanges executed, including rerun ones
  int failures = 0;        ///< messages refused or killed across the run
  int recoveries = 0;      ///< recovery passes (shrink or failover)
  std::vector<int> participants;  ///< ranks in the final schedule
  comm::AllreduceAlgorithm algo = comm::AllreduceAlgorithm::Ring;
};

/// Ranks currently able to communicate, ascending — the from-scratch
/// membership scan shrink recovery must agree with.
[[nodiscard]] std::vector<int> surviving_ranks(
    const comm::ClusterComm& cluster);

/// Messages of round `round` of the allreduce schedule over
/// `participants` (position i sends as virtual rank i): ring runs
/// 2(m-1) rounds of bytes/m blocks; recursive doubling folds non-power-
/// of-two counts into the largest power of two with a pre- and post-
/// round for the extras; reduce-broadcast is a binomial reduce onto
/// participants[0] followed by the mirrored broadcast.  Round counts
/// match comm::allreduce_round_count().  `algo` must not be Auto.
[[nodiscard]] std::vector<comm::ClusterComm::Message> ft_round_messages(
    std::span<const int> participants, comm::AllreduceAlgorithm algo,
    int round, double bytes);

/// The whole schedule re-derived from scratch by independent plain
/// loops (the oracle ft_round_messages must match round for round).
[[nodiscard]] std::vector<std::vector<comm::ClusterComm::Message>>
reference_ft_schedule(std::span<const int> participants,
                      comm::AllreduceAlgorithm algo, double bytes);

/// Fault-tolerant allreduce over every currently-alive rank.  `algo`
/// Auto resolves by size and participant count (and re-resolves after a
/// shrink).  Returns after the schedule completes over a stable
/// participant set; Spare recovery throws ErrorCode::RankFailed when
/// the spares run out.
FtResult ft_allreduce(comm::ClusterComm& cluster, double bytes,
                      comm::AllreduceAlgorithm algo, RecoveryPolicy policy);

/// Fault-tolerant 1-D ring halo exchange over every alive rank: one
/// bulk round of both-neighbour messages, rerun over the repaired
/// membership until it completes cleanly.
FtResult ft_halo_exchange(comm::ClusterComm& cluster, double halo_bytes,
                          RecoveryPolicy policy);

}  // namespace pvc::fault
