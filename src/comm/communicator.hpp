#pragma once
// GPU-aware message passing over the node simulator.
//
// Mirrors the slice of MPI the paper's microbenchmarks use (MPICH with
// Level-Zero support, §IV-A4): nonblocking Isend/Irecv with tag matching,
// requests, and wait/wait-all.  One rank per subdevice ("explicit
// scaling").  Transfers are fluid flows routed through the node's link
// graph, so local-stack vs remote-Xe-Link pairs and multi-pair contention
// behave as in Table III.  A message is a byte count: the model times
// transfers and carries no data.
//
// The harness is single-threaded: a driver posts operations for every
// rank, then waits — the usual style for discrete-event MPI models.
//
// Matching: each destination rank keeps its unmatched sends and its
// unmatched receives in two vectors, in post order.  A post scans the
// opposite vector for the first operation with its (source rank, tag)
// and pairs with it, or else appends itself, so messages of one key
// match in post order (MPI's non-overtaking rule).  The queues stay a
// few entries deep in every bench, so the scan is all matching needs.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/node_sim.hpp"

namespace pvc::comm {

/// Completion handle for a nonblocking operation.  Every accessor on a
/// default-constructed (invalid) request throws pvc::Error with
/// ErrorCode::InvalidArgument rather than dereferencing null state.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// True once the operation completed successfully.
  [[nodiscard]] bool done() const;
  /// True when the transfer was aborted after exhausting its retries
  /// (see Resilience); error() carries the diagnostic.
  [[nodiscard]] bool failed() const;
  [[nodiscard]] const std::string& error() const;
  /// Transmission attempts so far (1 = no retries).
  [[nodiscard]] int attempts() const;
  /// Completion timestamp; only meaningful once done().
  [[nodiscard]] sim::Time complete_time() const;

 private:
  friend class Communicator;
  struct State {
    bool done = false;
    bool failed = false;
    int attempts = 0;
    sim::Time when = 0.0;
    std::string error;
  };
  explicit Request(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Fate of one transmission attempt, decided by the installed fault
/// hook (fault::Injector, docs/ROBUSTNESS.md).  Drop models a lost
/// transfer (detected at the expected completion time, retried after a
/// backoff); Corrupt models a checksum mismatch (retransmitted
/// immediately; the message completes on the first clean attempt).
enum class TransferVerdict : std::uint8_t { Deliver, Drop, Corrupt };

/// Retry policy for dropped and corrupted transfers.
struct Resilience {
  /// Retransmissions allowed per message before it is marked failed.
  int max_retries = 4;
  /// Delay before the first drop retransmission; doubles per attempt
  /// (exponential backoff), clamped at max_backoff_s.
  double retry_backoff_s = 2e-6;
  /// Ceiling on the exponential backoff, so long retry chains (high
  /// max_retries) wait at most this long between attempts instead of
  /// the unclamped 2^attempts growth.
  double max_backoff_s = 1.0;
};

/// Rank-addressed communicator bound to a NodeSim.
class Communicator {
 public:
  /// Binds rank r to device `rank_to_device[r]`.
  Communicator(rt::NodeSim& node, std::vector<int> rank_to_device);

  /// The paper's default: one rank per stack, ranks in flat device order.
  [[nodiscard]] static Communicator explicit_scaling(rt::NodeSim& node);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(rank_to_device_.size());
  }
  [[nodiscard]] int device_of(int rank) const;
  [[nodiscard]] rt::NodeSim& node() noexcept { return *node_; }

  /// Nonblocking send of `bytes` from `rank` to `dst` with `tag`.
  Request isend(int rank, int dst, int tag, double bytes);

  /// Nonblocking receive of `bytes` on `rank` from `src` with `tag`; the
  /// matching send must carry the same byte count.
  Request irecv(int rank, int src, int tag, double bytes);

  /// Runs the simulation until `request` completes.  Throws pvc::Error
  /// with ErrorCode::TransferAborted when the transfer exhausted its
  /// retries, and a hang report naming every unmatched send/recv per
  /// rank when no event is left to run before sim::Engine::kHorizon
  /// with the request still pending.
  void wait(Request& request);
  void wait_all(std::span<Request> requests);

  /// Retry policy; the fault injector overrides it from the chaos plan
  /// (docs/ROBUSTNESS.md).
  void set_resilience(Resilience resilience);
  [[nodiscard]] const Resilience& resilience() const noexcept {
    return resilience_;
  }

  /// Per-attempt fault verdict hook; pass nullptr to disarm.  Called
  /// once per transmission attempt, so a deterministic seeded hook
  /// yields bit-identical runs.
  using FaultHook = std::function<TransferVerdict(
      int src_rank, int dst_rank, int tag, double bytes, int attempt)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Messages fully delivered so far (diagnostics).
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return delivered_;
  }

  /// Unmatched operations currently queued (hang diagnostics).
  [[nodiscard]] std::size_t unmatched_sends() const noexcept;
  [[nodiscard]] std::size_t unmatched_recvs() const noexcept;
  /// Human-readable per-rank list of every unmatched send/recv.
  [[nodiscard]] std::string pending_diagnostics() const;

 private:
  struct PendingSend {
    int src_rank;
    int tag;
    double bytes;
    std::shared_ptr<Request::State> state;
  };
  struct PendingRecv {
    int src_rank;  // required match; no ANY_SOURCE
    int tag;
    double bytes;
    std::shared_ptr<Request::State> state;
  };
  /// One matched message in flight, kept across retransmissions.
  struct Transfer;

  /// One destination's unmatched operations, each vector in post order.
  struct MatchQueues {
    std::vector<PendingSend> sends;
    std::vector<PendingRecv> recvs;
  };

  /// Pairs a freshly posted operation with the first queued opposite of
  /// its (src_rank, tag) and launches the transfer, or queues it.  A
  /// match observes comm.tag_match_depth: the matched send's queue
  /// position, or the live send count when a send meets a waiting
  /// receive (the position it would have queued at).
  void post_send(int dst_rank, PendingSend&& send);
  void post_recv(int dst_rank, PendingRecv&& recv);
  void launch(int src_rank, int dst_rank, const PendingSend& send,
              const PendingRecv& recv);
  void start_transfer(const std::shared_ptr<Transfer>& transfer);
  void retry_transfer(const std::shared_ptr<Transfer>& transfer);
  void on_transfer_complete(const std::shared_ptr<Transfer>& transfer,
                            TransferVerdict verdict, sim::Time now);
  static void fail_transfer(const std::shared_ptr<Transfer>& transfer,
                            const std::string& why);

  rt::NodeSim* node_;
  std::vector<int> rank_to_device_;
  // Posted-but-unmatched operations, indexed by destination rank.
  std::vector<MatchQueues> queues_;
  std::uint64_t delivered_ = 0;
  Resilience resilience_;
  FaultHook fault_hook_;
};

}  // namespace pvc::comm
