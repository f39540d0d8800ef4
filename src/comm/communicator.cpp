#include "comm/communicator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "comm/metrics_internal.hpp"
#include "core/error.hpp"

namespace pvc::comm {

namespace detail {

CommMetrics& comm_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local CommMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    CommMetrics c;
    c.sends_posted =
        &reg.counter("comm.sends_posted", "messages", "isend operations posted");
    c.recvs_posted =
        &reg.counter("comm.recvs_posted", "messages", "irecv operations posted");
    c.messages = &reg.counter("comm.messages", "messages",
                              "messages fully delivered");
    c.bytes = &reg.counter("comm.bytes", "bytes",
                           "payload bytes of delivered messages");
    c.tag_match_depth = &reg.histogram(
        "comm.tag_match_depth", "queue entries",
        "unmatched-send queue positions scanned before each match");
    c.collectives = &reg.counter("comm.collectives", "calls",
                                 "collective operations executed");
    c.collective_rounds =
        &reg.counter("comm.collective_rounds", "rounds",
                     "communication rounds across all collectives");
    c.drops = &reg.counter("comm.drops", "messages",
                           "transmission attempts dropped by fault injection");
    c.corruptions =
        &reg.counter("comm.corruptions", "messages",
                     "transmission attempts corrupted by fault injection");
    c.retries = &reg.counter("comm.retries", "messages",
                             "retransmissions scheduled after drop/corrupt");
    c.transfer_failures =
        &reg.counter("comm.transfer_failures", "messages",
                     "messages abandoned after exhausting their retries");
    c.hangs_detected = &reg.counter(
        "comm.hangs_detected", "calls",
        "wait() calls that drained the calendar with the request pending");
    return c;
  }();
  return m;
}

}  // namespace detail

using detail::comm_metrics;

bool Request::done() const {
  ensure(state_ != nullptr, ErrorCode::InvalidArgument,
         "Request::done: default-constructed (empty) request — it was never "
         "returned by isend/irecv");
  return state_->done;
}

bool Request::failed() const {
  ensure(state_ != nullptr, ErrorCode::InvalidArgument,
         "Request::failed: default-constructed (empty) request — it was never "
         "returned by isend/irecv");
  return state_->failed;
}

const std::string& Request::error() const {
  ensure(state_ != nullptr, ErrorCode::InvalidArgument,
         "Request::error: default-constructed (empty) request — it was never "
         "returned by isend/irecv");
  return state_->error;
}

int Request::attempts() const {
  ensure(state_ != nullptr, ErrorCode::InvalidArgument,
         "Request::attempts: default-constructed (empty) request — it was "
         "never returned by isend/irecv");
  return state_->attempts;
}

sim::Time Request::complete_time() const {
  ensure(state_ != nullptr, ErrorCode::InvalidArgument,
         "Request::complete_time: default-constructed (empty) request — it "
         "was never returned by isend/irecv");
  ensure(state_->done, "Request: completion time queried before completion");
  return state_->when;
}

/// One matched message, kept alive (shared_ptr) across retransmissions.
struct Communicator::Transfer {
  int src_rank;
  int dst_rank;
  int tag;
  int src_dev;
  int dst_dev;
  double bytes;
  std::shared_ptr<Request::State> send_state;
  std::shared_ptr<Request::State> recv_state;
  int attempt = 0;  // transmissions started so far

  [[nodiscard]] std::string describe() const {
    std::ostringstream out;
    out << "message rank " << src_rank << " -> rank " << dst_rank << " tag "
        << tag << " (" << bytes << " bytes)";
    return out.str();
  }
};

namespace {

/// The first queued operation of `ops` with this (source rank, tag).
template <typename Op>
auto first_match(std::vector<Op>& ops, int src_rank, int tag) {
  return std::find_if(ops.begin(), ops.end(), [&](const Op& op) {
    return op.src_rank == src_rank && op.tag == tag;
  });
}

}  // namespace

Communicator::Communicator(rt::NodeSim& node, std::vector<int> rank_to_device)
    : node_(&node), rank_to_device_(std::move(rank_to_device)) {
  ensure(!rank_to_device_.empty(), "Communicator: need at least one rank");
  for (int dev : rank_to_device_) {
    ensure(dev >= 0 && dev < node.device_count(),
           "Communicator: rank bound to invalid device");
  }
  queues_.resize(rank_to_device_.size());
}

Communicator Communicator::explicit_scaling(rt::NodeSim& node) {
  std::vector<int> binding(static_cast<std::size_t>(node.device_count()));
  for (int d = 0; d < node.device_count(); ++d) {
    binding[static_cast<std::size_t>(d)] = d;
  }
  return Communicator(node, std::move(binding));
}

int Communicator::device_of(int rank) const {
  ensure(rank >= 0 && rank < size(), "Communicator: bad rank");
  return rank_to_device_[static_cast<std::size_t>(rank)];
}

void Communicator::set_resilience(Resilience resilience) {
  ensure(resilience.max_retries >= 0, ErrorCode::InvalidArgument,
         "Communicator: max_retries must be non-negative");
  ensure(resilience.retry_backoff_s >= 0.0, ErrorCode::InvalidArgument,
         "Communicator: retry_backoff_s must be non-negative");
  ensure(resilience.max_backoff_s >= 0.0, ErrorCode::InvalidArgument,
         "Communicator: max_backoff_s must be non-negative");
  resilience_ = resilience;
}

Request Communicator::isend(int rank, int dst, int tag, double bytes) {
  ensure(rank >= 0 && rank < size() && dst >= 0 && dst < size(),
         "Communicator: isend rank out of range");
  ensure(bytes >= 0.0, "Communicator: negative message size");
  comm_metrics().sends_posted->add(1);
  auto state = std::make_shared<Request::State>();
  post_send(dst, PendingSend{rank, tag, bytes, state});
  return Request(std::move(state));
}

Request Communicator::irecv(int rank, int src, int tag, double bytes) {
  ensure(rank >= 0 && rank < size() && src >= 0 && src < size(),
         "Communicator: irecv rank out of range");
  ensure(bytes >= 0.0, "Communicator: negative message size");
  comm_metrics().recvs_posted->add(1);
  auto state = std::make_shared<Request::State>();
  post_recv(rank, PendingRecv{src, tag, bytes, state});
  return Request(std::move(state));
}

void Communicator::post_send(int dst_rank, PendingSend&& send) {
  MatchQueues& q = queues_[static_cast<std::size_t>(dst_rank)];
  const auto recv = first_match(q.recvs, send.src_rank, send.tag);
  if (recv == q.recvs.end()) {
    q.sends.push_back(std::move(send));
    return;
  }
  ensure(send.bytes == recv->bytes,
         "Communicator: matched send/recv sizes differ");
  comm_metrics().tag_match_depth->observe(q.sends.size());
  const PendingRecv matched = std::move(*recv);
  q.recvs.erase(recv);
  launch(send.src_rank, dst_rank, send, matched);
}

void Communicator::post_recv(int dst_rank, PendingRecv&& recv) {
  MatchQueues& q = queues_[static_cast<std::size_t>(dst_rank)];
  const auto send = first_match(q.sends, recv.src_rank, recv.tag);
  if (send == q.sends.end()) {
    q.recvs.push_back(std::move(recv));
    return;
  }
  ensure(send->bytes == recv.bytes,
         "Communicator: matched send/recv sizes differ");
  comm_metrics().tag_match_depth->observe(
      static_cast<std::uint64_t>(send - q.sends.begin()));
  const PendingSend matched = std::move(*send);
  q.sends.erase(send);
  launch(matched.src_rank, dst_rank, matched, recv);
}

void Communicator::launch(int src_rank, int dst_rank,
                          const PendingSend& send, const PendingRecv& recv) {
  auto transfer = std::make_shared<Transfer>();
  transfer->src_rank = src_rank;
  transfer->dst_rank = dst_rank;
  transfer->tag = send.tag;
  transfer->src_dev = device_of(src_rank);
  transfer->dst_dev = device_of(dst_rank);
  transfer->bytes = send.bytes;
  transfer->send_state = send.state;
  transfer->recv_state = recv.state;
  start_transfer(transfer);
}

void Communicator::start_transfer(const std::shared_ptr<Transfer>& transfer) {
  ++transfer->attempt;
  transfer->send_state->attempts = transfer->attempt;
  transfer->recv_state->attempts = transfer->attempt;
  // Verdict for this attempt is decided up front so a deterministic hook
  // (seeded Rng) makes whole runs bit-identical.
  const TransferVerdict verdict =
      fault_hook_ ? fault_hook_(transfer->src_rank, transfer->dst_rank,
                                transfer->tag, transfer->bytes,
                                transfer->attempt)
                  : TransferVerdict::Deliver;
  try {
    node_->transfer_d2d(transfer->src_dev, transfer->dst_dev, transfer->bytes,
                        [this, transfer, verdict](sim::Time t) {
                          on_transfer_complete(transfer, verdict, t);
                        });
  } catch (const Error& e) {
    // E.g. ErrorCode::LinkDown between two cards of a node without a
    // remote fabric: surface it through the request rather than
    // unwinding the event calendar.
    fail_transfer(transfer, transfer->describe() + " aborted on attempt " +
                                std::to_string(transfer->attempt) + ": " +
                                e.what());
  }
}

void Communicator::retry_transfer(const std::shared_ptr<Transfer>& transfer) {
  comm_metrics().retries->add(1);
  start_transfer(transfer);
}

void Communicator::on_transfer_complete(
    const std::shared_ptr<Transfer>& transfer, TransferVerdict verdict,
    sim::Time now) {
  auto& metrics = comm_metrics();
  if (verdict == TransferVerdict::Deliver) {
    transfer->send_state->done = true;
    transfer->send_state->when = now;
    transfer->recv_state->done = true;
    transfer->recv_state->when = now;
    ++delivered_;
    metrics.messages->add(1);
    metrics.bytes->add(
        static_cast<std::uint64_t>(std::llround(transfer->bytes)));
    return;
  }

  if (verdict == TransferVerdict::Drop) {
    metrics.drops->add(1);
  } else {
    metrics.corruptions->add(1);
  }
  if (transfer->attempt > resilience_.max_retries) {
    fail_transfer(transfer,
                  transfer->describe() + " aborted after " +
                      std::to_string(transfer->attempt) + " attempts (" +
                      std::to_string(resilience_.max_retries) +
                      " retries exhausted)");
    return;
  }
  if (verdict == TransferVerdict::Corrupt) {
    // Checksum mismatch is detected at delivery; retransmit immediately.
    retry_transfer(transfer);
    return;
  }
  // A drop is noticed at the expected completion time; back off before
  // retransmitting, doubling per failed attempt up to max_backoff_s.
  const double backoff =
      std::min(resilience_.max_backoff_s,
               resilience_.retry_backoff_s *
                   std::pow(2.0, static_cast<double>(transfer->attempt - 1)));
  node_->engine().schedule_at(now + backoff,
                              [this, transfer] { retry_transfer(transfer); });
}

void Communicator::fail_transfer(const std::shared_ptr<Transfer>& transfer,
                                 const std::string& why) {
  comm_metrics().transfer_failures->add(1);
  transfer->send_state->failed = true;
  transfer->send_state->error = why;
  transfer->recv_state->failed = true;
  transfer->recv_state->error = why;
}

std::size_t Communicator::unmatched_sends() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) {
    n += q.sends.size();
  }
  return n;
}

std::size_t Communicator::unmatched_recvs() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) {
    n += q.recvs.size();
  }
  return n;
}

std::string Communicator::pending_diagnostics() const {
  std::ostringstream out;
  out << unmatched_sends() << " unmatched send(s), " << unmatched_recvs()
      << " unmatched recv(s)";
  for (int dst = 0; dst < size(); ++dst) {
    const MatchQueues& q = queues_[static_cast<std::size_t>(dst)];
    for (const PendingSend& s : q.sends) {
      out << "; unmatched send: rank " << s.src_rank << " -> rank " << dst
          << " tag " << s.tag << " (" << s.bytes << " bytes)";
    }
    for (const PendingRecv& r : q.recvs) {
      out << "; unmatched recv: rank " << dst << " <- rank " << r.src_rank
          << " tag " << r.tag << " (" << r.bytes << " bytes)";
    }
  }
  return out.str();
}

void Communicator::wait(Request& request) {
  ensure(request.valid(), ErrorCode::InvalidArgument,
         "Communicator::wait: default-constructed (empty) request");
  auto& engine = node_->engine();
  while (!request.done()) {
    if (request.failed()) {
      raise(ErrorCode::TransferAborted,
            "Communicator::wait: " + request.error());
    }
    // Step one event at a time so the clock stops at the completion.
    if (engine.step()) {
      continue;
    }
    comm_metrics().hangs_detected->add(1);
    raise(ErrorCode::Generic,
          "Communicator::wait: hang detected — no event is left to run "
          "before the simulation horizon, with the request still "
          "pending; " +
              pending_diagnostics());
  }
}

void Communicator::wait_all(std::span<Request> requests) {
  for (auto& r : requests) {
    wait(r);
  }
}

}  // namespace pvc::comm
