#pragma once
// GPU-aware message passing over the node simulator.
//
// Mirrors the slice of MPI the paper's microbenchmarks use (MPICH with
// Level-Zero support, §IV-A4): nonblocking Isend/Irecv with tag matching,
// requests, and wait/wait-all.  One rank per subdevice ("explicit
// scaling").  Transfers are fluid flows routed through the node's link
// graph, so local-stack vs remote-Xe-Link pairs and multi-pair contention
// behave as in Table III.  Payloads are optionally carried for real, so
// the collectives built on top are functionally correct, not just timed.
//
// The harness is single-threaded: a driver posts operations for every
// rank, then waits — the usual style for discrete-event MPI models.
//
// Matching hot path (docs/PERFORMANCE.md): unmatched operations live in
// per-destination hash buckets keyed by (src_rank, tag), so posting
// probes one bucket instead of rescanning every queued send × recv as
// the seed did.  Between posts the queues are fully matched, so a new
// operation can pair only with the earliest queued opposite of its own
// key — exactly the pairing the seed's in-order rescans produced — and
// a Fenwick tree over send sequence numbers reproduces the seed's
// comm.tag_match_depth histogram bit for bit.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
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
/// immediately, the clean payload lands on the successful attempt).
enum class TransferVerdict : std::uint8_t { Deliver, Drop, Corrupt };

/// Retry/timeout policy for transfers and wait().
struct Resilience {
  /// Simulated-time budget of one wait() call; infinity = no timeout.
  double wait_timeout_s = std::numeric_limits<double>::infinity();
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
  /// `data` may be empty; when both sides supply equal-sized payloads the
  /// bytes are delivered on completion.
  Request isend(int rank, int dst, int tag, double bytes,
                std::span<const double> data = {});

  /// Nonblocking receive into `data` (may be empty for timing-only use).
  Request irecv(int rank, int src, int tag, double bytes,
                std::span<double> data = {});

  /// Runs the simulation until `request` completes.  Throws pvc::Error
  /// with ErrorCode::TransferAborted when the transfer exhausted its
  /// retries, ErrorCode::Timeout when the Resilience wait timeout
  /// elapses first, and a hang report naming every unmatched send/recv
  /// per rank when the event calendar drains with the request still
  /// pending.
  void wait(Request& request);
  void wait_all(std::span<Request> requests);

  /// Retry/timeout policy; the fault injector overrides it from the
  /// chaos plan (docs/ROBUSTNESS.md).
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
    std::span<const double> data;
    std::shared_ptr<Request::State> state;
  };
  struct PendingRecv {
    int src_rank;  // required match; no ANY_SOURCE
    int tag;
    double bytes;
    std::span<double> data;
    std::shared_ptr<Request::State> state;
  };
  /// One matched message in flight, kept across retransmissions.
  struct Transfer;

  /// Fenwick (binary-indexed) tree over per-destination send sequence
  /// numbers.  live_below(seq) counts earlier-posted sends that are
  /// still unmatched — the queue position the seed's linear scan
  /// reported to comm.tag_match_depth.  Sequence numbers are appended
  /// in order; all operations are O(log n).
  class SeqTree {
   public:
    /// Registers the next sequence number (`seq` == appends so far).
    void append_live(std::uint64_t seq);
    /// Marks a live sequence number matched.
    void remove(std::uint64_t seq);
    /// Live sequence numbers strictly below `seq`.
    [[nodiscard]] std::uint64_t live_below(std::uint64_t seq) const;
    /// Drops all state; valid only once no sequence number is live.
    void clear() noexcept { tree_.clear(); }

   private:
    [[nodiscard]] std::uint64_t prefix(std::size_t count) const;
    std::vector<std::uint64_t> tree_;  // 1-based Fenwick; tree_[i-1] = node i
  };

  struct QueuedSend {
    PendingSend op;
    std::uint64_t seq;  // post order among this destination's sends
  };
  struct QueuedRecv {
    PendingRecv op;
    std::uint64_t seq;  // post order among this destination's recvs
  };
  /// Per-destination matching state: FIFO buckets hashed by
  /// (src_rank, tag).  Sequence counters restart whenever the
  /// respective side drains, so the Fenwick array is bounded by the
  /// longest stretch of posts between drains, not the run total.
  struct MatchQueues {
    std::unordered_map<std::uint64_t, std::deque<QueuedSend>> sends;
    std::unordered_map<std::uint64_t, std::deque<QueuedRecv>> recvs;
    std::uint64_t send_seq = 0;
    std::uint64_t recv_seq = 0;
    std::size_t send_count = 0;
    std::size_t recv_count = 0;
    SeqTree send_live;
  };

  /// Matches a freshly posted operation against the opposite bucket of
  /// its (src_rank, tag) key, or queues it.  At most one pairing can
  /// fire per post (the queues are fully matched in between), and it is
  /// the pairing the seed's in-order rescans chose.
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
