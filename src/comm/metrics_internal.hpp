#pragma once
// Shared obs handles for the comm layer (communicator.cpp registers and
// owns them; collectives.cpp bumps the collective counters).  Internal —
// read metric values through obs::Registry::global().snapshot().

#include "obs/metrics.hpp"

namespace pvc::comm::detail {

struct CommMetrics {
  obs::Counter* sends_posted;
  obs::Counter* recvs_posted;
  obs::Counter* messages;
  obs::Counter* bytes;
  obs::Histogram* tag_match_depth;
  obs::Counter* collectives;
  obs::Counter* collective_rounds;
  // Resilience (docs/ROBUSTNESS.md).
  obs::Counter* drops;
  obs::Counter* corruptions;
  obs::Counter* retries;
  obs::Counter* transfer_failures;
  obs::Counter* hangs_detected;
};

/// Resolves the handles in the global registry on first use.
CommMetrics& comm_metrics();

/// Multi-node fabric handles (cluster.cpp registers and bumps them; see
/// docs/OBSERVABILITY.md "Fabric").
struct FabricMetrics {
  obs::Counter* messages;
  obs::Counter* bytes;
  obs::Counter* routes_intra_node;
  obs::Counter* routes_minimal;
  obs::Counter* hops_local;
  obs::Counter* hops_global;
  obs::Counter* nic_failovers;
  obs::Gauge* nic_stall_seconds;
  // Node/rank faults and checkpointing (docs/ROBUSTNESS.md).
  obs::Counter* node_down_events;
  obs::Counter* flows_killed;
  obs::Counter* messages_refused;
  obs::Counter* spare_activations;
  obs::Counter* ckpt_bytes;
};

/// Resolves the fabric handles in the active registry on first use.
FabricMetrics& fabric_metrics();

}  // namespace pvc::comm::detail
