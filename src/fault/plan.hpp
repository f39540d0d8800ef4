#pragma once
// Fault plan: the parsed form of a `chaos=<spec>` string.
//
// A plan is a declarative schedule of adverse events for one simulated
// run — link outages and retraining windows on the Xe-Link fabric,
// per-message drop/corrupt probabilities, and NIC, node and rank
// failures on a cluster — plus overrides for the communicator's retry
// policy.  Everything is deterministic: the probabilistic clauses draw
// from a seeded xoshiro256** stream, so the same spec and seed
// reproduce a run bit-identically.
//
// Grammar (full reference in docs/ROBUSTNESS.md): clauses separated by
// ';', each `name` or `name:k=v,k=v,...`; single-value clauses accept
// the shorthand `name:value`.  Durations take s/ms/us/ns suffixes;
// numbers and durations must be finite.
//
//   seed:42
//   linkdown:a=0,b=2,at=1ms[,for=5ms]         (no `for` = permanent)
//   flap:a=0,b=2,period=2ms,duty=0.5,count=4[,at=0]
//   degrade:a=0,b=2,factor=0.25,at=1ms[,for=5ms]
//   drop:0.1            | drop:p=0.1
//   corrupt:0.05        | corrupt:p=0.05
//   reroute:0.2         | reroute:penalty=0.2
//   retries:max=4[,backoff=2us][,maxbackoff=1s]
//   nicdown:node=0,nic=3,at=1ms[,for=5ms]     (cluster runs only)
//   nicdegrade:node=0,nic=3,factor=0.5,at=1ms[,for=5ms]
//   nodedown:node=3,at=1ms[,for=5ms]          (cluster runs only)
//   rankfail:rank=7[,at=1ms]                  (cluster runs only)
//   ckpt:bytes=64e6[,interval=2s][,restart=30s][,mtbf=1000s]

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pvc::arch {
struct NodeSpec;
}  // namespace pvc::arch

namespace pvc::fault {

/// Xe-Link outage window between two remote subdevices.
struct LinkDownEvent {
  int a = 0;
  int b = 0;
  double at_s = 0.0;
  double duration_s = 0.0;  // ignored when permanent
  bool permanent = true;
};

/// Periodic link flapping: `count` down/up cycles of length `period_s`,
/// down for `duty` of each period, starting at `at_s`.
struct FlapSpec {
  int a = 0;
  int b = 0;
  double period_s = 0.0;
  double duty = 0.5;  // fraction of the period spent down, in (0, 1)
  int count = 1;
  double at_s = 0.0;
};

/// Link retraining window: pair capacity scaled to `factor` of healthy.
struct DegradeEvent {
  int a = 0;
  int b = 0;
  double factor = 1.0;  // (0, 1]
  double at_s = 0.0;
  double duration_s = 0.0;
  bool permanent = true;
};

/// One cluster NIC down: traffic fails over to the node's next healthy
/// NIC (comm::ClusterComm).  Only meaningful for multi-node runs.
struct NicDownEvent {
  int node = 0;
  int nic = 0;
  double at_s = 0.0;
  double duration_s = 0.0;
  bool permanent = true;
};

/// One cluster NIC's injection/ejection capacity scaled to `factor`.
struct NicDegradeEvent {
  int node = 0;
  int nic = 0;
  double factor = 1.0;  // (0, 1]
  double at_s = 0.0;
  double duration_s = 0.0;
  bool permanent = true;
};

/// Whole-node outage: every rank bound to the node dies, its in-flight
/// flows are killed, and (with `for=`) the node rejoins afterwards.
struct NodeDownEvent {
  int node = 0;
  double at_s = 0.0;
  double duration_s = 0.0;
  bool permanent = true;
};

/// Single-rank failure (process abort): the rank stays dead for the rest
/// of the run even if its node is healthy.
struct RankFailEvent {
  int rank = 0;
  double at_s = 0.0;
};

/// Checkpoint/restart discipline (docs/ROBUSTNESS.md): `bytes_per_rank`
/// written through the NIC links every `interval_s` of useful work;
/// interval 0 = use the analytic Daly optimum for (write cost, mtbf).
struct CheckpointPlan {
  double bytes_per_rank = 0.0;
  double interval_s = 0.0;  ///< 0 = Daly-optimal
  double restart_s = 0.0;
  double mtbf_s = 0.0;  ///< 0 = no random failures (scheduled faults only)
};

/// How fault-tolerant collectives respond to dead ranks.
enum class RecoveryPolicy : std::uint8_t {
  Shrink,  ///< survivors rebuild the schedule and continue without the dead
  Spare,   ///< dead ranks are rebound onto spare nodes and revived
};

[[nodiscard]] const char* recovery_policy_name(RecoveryPolicy policy);

/// Parsed chaos specification.  Zero-initialised = no faults.
struct FaultPlan {
  std::uint64_t seed = 0;

  std::vector<LinkDownEvent> linkdowns;
  std::vector<FlapSpec> flaps;
  std::vector<DegradeEvent> degradations;
  std::vector<NicDownEvent> nic_downs;
  std::vector<NicDegradeEvent> nic_degradations;
  std::vector<NodeDownEvent> node_downs;
  std::vector<RankFailEvent> rank_fails;

  /// Checkpoint/restart discipline; unset = no checkpointing.
  std::optional<CheckpointPlan> checkpoint;

  /// Per-attempt message fault probabilities, in [0, 1] with sum <= 1.
  double drop_probability = 0.0;
  double corrupt_probability = 0.0;

  /// Host-staging reroute penalty override; unset = NodeSim default.
  std::optional<double> reroute_penalty;

  /// Communicator Resilience overrides; unset fields keep defaults.
  std::optional<int> max_retries;
  std::optional<double> retry_backoff_s;
  std::optional<double> max_backoff_s;

  /// Parses a `chaos=` spec.  Throws pvc::Error with
  /// ErrorCode::InvalidArgument on malformed input, naming the clause.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// True when the plan injects nothing and overrides nothing.
  [[nodiscard]] bool empty() const;

  /// One-line-per-clause human-readable description.
  [[nodiscard]] std::string summary() const;
};

/// Size of the largest cluster a bench arms a plan on.  All zero when
/// the bench's options arm no cluster at all.
struct ClusterExtent {
  int nodes = 0;
  int nics_per_node = 0;
  int ranks = 0;
};

/// Rejects a plan that a cluster-only bench (scaling_multinode,
/// resilience_sweep) would silently ignore or could not survive, with
/// ErrorCode::InvalidArgument naming the clause:
///  * node-level clauses (linkdown, flap, degrade, drop, corrupt,
///    reroute, retries), which need a NodeSim or Communicator the bench
///    never builds;
///  * `ckpt`, `nodedown` and `rankfail`, unless the bench `recovers`
///    (runs the fault-tolerant collectives and the checkpoint model):
///    without recovery a dead rank fails the run and a checkpoint plan
///    is never read;
///  * nodedown/nicdown/nicdegrade/rankfail clauses naming a node, NIC or
///    rank outside `largest`.  Injector::arm(ClusterComm&) still skips
///    such events per cluster, so a plan valid on the largest cluster
///    stays valid on every smaller slice of the sweep.
/// Zero-probability drop/corrupt clauses parse to the empty plan and
/// pass.
void check_cluster_plan(const FaultPlan& plan, const ClusterExtent& largest,
                        bool recovers);

/// Rejects a plan that a single-node bench (chaos_degradation) would
/// silently ignore or fail on late, with ErrorCode::InvalidArgument
/// naming the clause:
///  * cluster-only clauses (nicdown, nicdegrade, nodedown, rankfail,
///    ckpt), which need a ClusterComm the bench never builds;
///  * linkdown/flap/degrade unless `a` and `b` are subdevices of `node`
///    on different cards (the stacks of one card share MDFI, not an
///    Xe-Link).
void check_node_plan(const FaultPlan& plan, const arch::NodeSpec& node);

}  // namespace pvc::fault
