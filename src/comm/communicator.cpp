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
    c.wait_timeouts = &reg.counter("comm.wait_timeouts", "calls",
                                   "wait() calls that hit the wait timeout");
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
  std::span<const double> src_data;
  std::span<double> dst_data;
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

void Communicator::SeqTree::append_live(std::uint64_t seq) {
  // Node j covers the element range (j - lowbit(j), j].  Because seqs
  // arrive in order, everything below the new node is already
  // summarised, so the node value is the new element (1, live) plus the
  // live count over the rest of its range.
  const std::size_t j = static_cast<std::size_t>(seq) + 1;
  const std::size_t low = j & (0 - j);
  std::uint64_t node = 1;
  if (low > 1) {
    node += prefix(j - 1) - prefix(j - low);
  }
  tree_.push_back(node);
}

void Communicator::SeqTree::remove(std::uint64_t seq) {
  for (std::size_t j = static_cast<std::size_t>(seq) + 1; j <= tree_.size();
       j += j & (0 - j)) {
    --tree_[j - 1];
  }
}

std::uint64_t Communicator::SeqTree::live_below(std::uint64_t seq) const {
  return prefix(static_cast<std::size_t>(seq));
}

std::uint64_t Communicator::SeqTree::prefix(std::size_t count) const {
  std::uint64_t total = 0;
  for (std::size_t j = count; j > 0; j -= j & (0 - j)) {
    total += tree_[j - 1];
  }
  return total;
}

namespace {

/// Hash-bucket key for one (source rank, tag) matching class.
std::uint64_t match_key(int src_rank, int tag) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank))
          << 32) |
         static_cast<std::uint32_t>(tag);
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
  ensure(resilience.wait_timeout_s > 0.0,
         ErrorCode::InvalidArgument,
         "Communicator: wait_timeout_s must be positive");
  ensure(resilience.max_retries >= 0, ErrorCode::InvalidArgument,
         "Communicator: max_retries must be non-negative");
  ensure(resilience.retry_backoff_s >= 0.0, ErrorCode::InvalidArgument,
         "Communicator: retry_backoff_s must be non-negative");
  ensure(resilience.max_backoff_s >= 0.0, ErrorCode::InvalidArgument,
         "Communicator: max_backoff_s must be non-negative");
  resilience_ = resilience;
}

Request Communicator::isend(int rank, int dst, int tag, double bytes,
                            std::span<const double> data) {
  ensure(rank >= 0 && rank < size() && dst >= 0 && dst < size(),
         "Communicator: isend rank out of range");
  ensure(bytes >= 0.0, "Communicator: negative message size");
  comm_metrics().sends_posted->add(1);
  auto state = std::make_shared<Request::State>();
  post_send(dst, PendingSend{rank, tag, bytes, data, state});
  return Request(std::move(state));
}

Request Communicator::irecv(int rank, int src, int tag, double bytes,
                            std::span<double> data) {
  ensure(rank >= 0 && rank < size() && src >= 0 && src < size(),
         "Communicator: irecv rank out of range");
  ensure(bytes >= 0.0, "Communicator: negative message size");
  comm_metrics().recvs_posted->add(1);
  auto state = std::make_shared<Request::State>();
  post_recv(rank, PendingRecv{src, tag, bytes, data, state});
  return Request(std::move(state));
}

void Communicator::post_send(int dst_rank, PendingSend&& send) {
  MatchQueues& q = queues_[static_cast<std::size_t>(dst_rank)];
  const std::uint64_t key = match_key(send.src_rank, send.tag);
  if (const auto it = q.recvs.find(key); it != q.recvs.end()) {
    ensure(send.bytes == it->second.front().op.bytes,
           "Communicator: matched send/recv sizes differ");
    // The seed scan would have appended this send behind every live one
    // before matching it, so its queue position is the live send count.
    comm_metrics().tag_match_depth->observe(
        static_cast<std::uint64_t>(q.send_count));
    QueuedRecv recv = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) {
      q.recvs.erase(it);
    }
    --q.recv_count;
    if (q.recv_count == 0) {
      q.recv_seq = 0;
    }
    launch(send.src_rank, dst_rank, send, recv.op);
    return;
  }
  const std::uint64_t seq = q.send_seq++;
  q.send_live.append_live(seq);
  ++q.send_count;
  q.sends[key].push_back(QueuedSend{std::move(send), seq});
}

void Communicator::post_recv(int dst_rank, PendingRecv&& recv) {
  MatchQueues& q = queues_[static_cast<std::size_t>(dst_rank)];
  const std::uint64_t key = match_key(recv.src_rank, recv.tag);
  if (const auto it = q.sends.find(key); it != q.sends.end()) {
    ensure(it->second.front().op.bytes == recv.bytes,
           "Communicator: matched send/recv sizes differ");
    QueuedSend send = std::move(it->second.front());
    // The seed scan reported the matched send's queue position: the
    // number of still-unmatched sends posted before it.
    comm_metrics().tag_match_depth->observe(q.send_live.live_below(send.seq));
    it->second.pop_front();
    if (it->second.empty()) {
      q.sends.erase(it);
    }
    q.send_live.remove(send.seq);
    --q.send_count;
    if (q.send_count == 0) {
      q.send_live.clear();
      q.send_seq = 0;
    }
    launch(send.op.src_rank, dst_rank, send.op, recv);
    return;
  }
  q.recvs[key].push_back(QueuedRecv{std::move(recv), q.recv_seq++});
  ++q.recv_count;
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
  transfer->src_data = send.data;
  transfer->dst_data = recv.data;
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
    // E.g. ErrorCode::DeviceLost on a retransmission attempt: surface it
    // through the request rather than unwinding the event calendar.
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
    if (!transfer->src_data.empty() &&
        transfer->src_data.size() == transfer->dst_data.size()) {
      std::copy(transfer->src_data.begin(), transfer->src_data.end(),
                transfer->dst_data.begin());
    }
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
    n += q.send_count;
  }
  return n;
}

std::size_t Communicator::unmatched_recvs() const noexcept {
  std::size_t n = 0;
  for (const auto& q : queues_) {
    n += q.recv_count;
  }
  return n;
}

std::string Communicator::pending_diagnostics() const {
  std::ostringstream out;
  out << unmatched_sends() << " unmatched send(s), " << unmatched_recvs()
      << " unmatched recv(s)";
  // Flatten the hash buckets back into post order (by seq) so the
  // report reads exactly as the seed's FIFO queues did.
  for (int dst = 0; dst < size(); ++dst) {
    const MatchQueues& q = queues_[static_cast<std::size_t>(dst)];
    std::vector<const QueuedSend*> pending_sends;
    pending_sends.reserve(q.send_count);
    for (const auto& [key, bucket] : q.sends) {
      for (const auto& s : bucket) {
        pending_sends.push_back(&s);
      }
    }
    std::sort(pending_sends.begin(), pending_sends.end(),
              [](const QueuedSend* a, const QueuedSend* b) {
                return a->seq < b->seq;
              });
    for (const auto* s : pending_sends) {
      out << "; unmatched send: rank " << s->op.src_rank << " -> rank " << dst
          << " tag " << s->op.tag << " (" << s->op.bytes << " bytes)";
    }
    std::vector<const QueuedRecv*> pending_recvs;
    pending_recvs.reserve(q.recv_count);
    for (const auto& [key, bucket] : q.recvs) {
      for (const auto& r : bucket) {
        pending_recvs.push_back(&r);
      }
    }
    std::sort(pending_recvs.begin(), pending_recvs.end(),
              [](const QueuedRecv* a, const QueuedRecv* b) {
                return a->seq < b->seq;
              });
    for (const auto* r : pending_recvs) {
      out << "; unmatched recv: rank " << dst << " <- rank " << r->op.src_rank
          << " tag " << r->op.tag << " (" << r->op.bytes << " bytes)";
    }
  }
  return out.str();
}

void Communicator::wait(Request& request) {
  ensure(request.valid(), ErrorCode::InvalidArgument,
         "Communicator::wait: default-constructed (empty) request");
  auto& engine = node_->engine();
  const double timeout = resilience_.wait_timeout_s;
  const sim::Time deadline =
      std::isinf(timeout) ? 1e300 : engine.now() + timeout;
  while (!request.done()) {
    if (request.failed()) {
      raise(ErrorCode::TransferAborted,
            "Communicator::wait: " + request.error());
    }
    // Step one event at a time so completing early never catapults the
    // clock to the deadline.
    if (engine.step(deadline)) {
      continue;
    }
    if (engine.idle()) {
      comm_metrics().hangs_detected->add(1);
      raise(ErrorCode::Generic,
            "Communicator::wait: hang detected — the event calendar "
            "drained with the request still pending; " +
                pending_diagnostics());
    }
    comm_metrics().wait_timeouts->add(1);
    raise(ErrorCode::Timeout,
          "Communicator::wait: no completion within " +
              std::to_string(timeout) + " s (simulated); " +
              pending_diagnostics());
  }
}

void Communicator::wait_all(std::span<Request> requests) {
  for (auto& r : requests) {
    wait(r);
  }
}

}  // namespace pvc::comm
