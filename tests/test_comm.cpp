// Unit tests for src/comm: point-to-point matching, delivery and
// retries, collectives, rank binding.

#include <gtest/gtest.h>

#include <numeric>

#include "arch/systems.hpp"
#include "comm/binding.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "obs/metrics.hpp"

namespace pvc::comm {
namespace {

TEST(Communicator, ExplicitScalingBindsOneRankPerStack) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  EXPECT_EQ(comm.size(), 12);
  for (int r = 0; r < comm.size(); ++r) {
    EXPECT_EQ(comm.device_of(r), r);
  }
}

TEST(Communicator, SendRecvDeliversPayload) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  auto s = comm.isend(0, 1, 42, 24.0);
  auto r = comm.irecv(1, 0, 42, 24.0);
  comm.wait(s);
  comm.wait(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(comm.messages_delivered(), 1u);
  EXPECT_DOUBLE_EQ(s.complete_time(), r.complete_time());
}

TEST(Communicator, RecvBeforeSendAlsoMatches) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  auto r = comm.irecv(2, 3, 7, 8.0);
  auto s = comm.isend(3, 2, 7, 8.0);
  comm.wait(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(s.done());
  EXPECT_EQ(comm.messages_delivered(), 1u);
}

TEST(Communicator, TagsKeepMessagesApart) {
  // Each tag carries its own size, so a receive matched to the other
  // tag's send would throw "matched send/recv sizes differ".
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  auto s1 = comm.isend(0, 1, 100, 8.0);
  auto s2 = comm.isend(0, 1, 200, 16.0);
  auto r2 = comm.irecv(1, 0, 200, 16.0);
  auto r1 = comm.irecv(1, 0, 100, 8.0);
  std::vector<Request> all{s1, s2, r1, r2};
  comm.wait_all(all);
  EXPECT_EQ(comm.messages_delivered(), 2u);
}

TEST(Communicator, UnmatchedRequestDeadlocks) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  auto r = comm.irecv(0, 1, 5, 8.0);
  EXPECT_THROW(comm.wait(r), pvc::Error);
}

TEST(Request, DefaultConstructedAccessorsThrowCodedErrors) {
  Request r;
  EXPECT_FALSE(r.valid());
  const auto expect_invalid = [](auto&& accessor) {
    try {
      accessor();
      FAIL() << "expected pvc::Error";
    } catch (const pvc::Error& e) {
      EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument);
      EXPECT_NE(std::string(e.what()).find("default-constructed"),
                std::string::npos);
    }
  };
  expect_invalid([&] { (void)r.done(); });
  expect_invalid([&] { (void)r.failed(); });
  expect_invalid([&] { (void)r.error(); });
  expect_invalid([&] { (void)r.attempts(); });
  expect_invalid([&] { (void)r.complete_time(); });
}

TEST(Request, WaitOnDefaultConstructedRequestThrows) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  Request empty;
  try {
    comm.wait(empty);
    FAIL() << "expected pvc::Error";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument);
  }
}

TEST(Communicator, HangReportNamesUnmatchedRankAndTag) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  comm.isend(2, 3, 9, 8.0);         // never received
  auto r = comm.irecv(0, 1, 5, 8.0);  // never sent
  EXPECT_EQ(comm.unmatched_sends(), 1u);
  EXPECT_EQ(comm.unmatched_recvs(), 1u);
  try {
    comm.wait(r);
    FAIL() << "expected hang report";
  } catch (const pvc::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hang detected"), std::string::npos);
    EXPECT_NE(msg.find("unmatched send: rank 2 -> rank 3 tag 9"),
              std::string::npos);
    EXPECT_NE(msg.find("unmatched recv: rank 0 <- rank 1 tag 5"),
              std::string::npos);
  }
}

TEST(Communicator, HangReportListsUnmatchedOpsInPostOrder) {
  // Per destination rank, the report lists the unmatched sends and then
  // the unmatched receives, each in post order: same-key operations
  // keep their order, and a match from the middle of a queue leaves the
  // rest in place.
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  comm.isend(0, 4, 7, 8.0);
  comm.isend(2, 1, 3, 16.0);
  comm.irecv(1, 0, 5, 8.0);
  comm.isend(3, 1, 2, 8.0);
  comm.isend(0, 1, 9, 8.0);
  comm.irecv(4, 3, 7, 8.0);   // tag 7 from another source: no match
  comm.isend(2, 1, 3, 32.0);  // queued behind the 16-byte send of its key
  comm.irecv(1, 0, 5, 24.0);  // queued behind the 8-byte recv of its key
  comm.irecv(1, 3, 2, 8.0);   // matches the middle send of rank 1's queue
  comm.irecv(1, 2, 3, 16.0);  // matches the first send of its key
  comm.isend(5, 4, 1, 8.0);
  comm.irecv(1, 2, 4, 8.0);
  EXPECT_EQ(comm.pending_diagnostics(),
            "4 unmatched send(s), 4 unmatched recv(s)"
            "; unmatched send: rank 0 -> rank 1 tag 9 (8 bytes)"
            "; unmatched send: rank 2 -> rank 1 tag 3 (32 bytes)"
            "; unmatched recv: rank 1 <- rank 0 tag 5 (8 bytes)"
            "; unmatched recv: rank 1 <- rank 0 tag 5 (24 bytes)"
            "; unmatched recv: rank 1 <- rank 2 tag 4 (8 bytes)"
            "; unmatched send: rank 0 -> rank 4 tag 7 (8 bytes)"
            "; unmatched send: rank 5 -> rank 4 tag 1 (8 bytes)"
            "; unmatched recv: rank 4 <- rank 3 tag 7 (8 bytes)");
}

TEST(Communicator, DropRetriesWithBackoffThenDelivers) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  Resilience policy;
  policy.max_retries = 4;
  policy.retry_backoff_s = 1e-6;
  comm.set_resilience(policy);
  // Drop the first two attempts, deliver the third.
  comm.set_fault_hook([](int, int, int, double, int attempt) {
    return attempt <= 2 ? TransferVerdict::Drop : TransferVerdict::Deliver;
  });
  auto s = comm.isend(0, 1, 1, 8.0);
  auto r = comm.irecv(1, 0, 1, 8.0);
  comm.wait(r);
  comm.wait(s);
  EXPECT_EQ(r.attempts(), 3);
  EXPECT_TRUE(r.done());

  // The same message without drops finishes sooner: each drop costs a
  // full transfer round plus the exponential backoff.
  rt::NodeSim clean_sim(arch::aurora());
  auto clean = Communicator::explicit_scaling(clean_sim);
  auto cs = clean.isend(0, 1, 1, 8.0);
  auto cr = clean.irecv(1, 0, 1, 8.0);
  clean.wait(cr);
  EXPECT_GT(r.complete_time(), cr.complete_time());
}

TEST(Communicator, RetriesExhaustedAbortsTheTransfer) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  Resilience policy;
  policy.max_retries = 2;
  policy.retry_backoff_s = 1e-6;
  comm.set_resilience(policy);
  comm.set_fault_hook([](int, int, int, double, int) {
    return TransferVerdict::Drop;  // never let anything through
  });
  auto s = comm.isend(0, 1, 3, 8.0);
  auto r = comm.irecv(1, 0, 3, 8.0);
  try {
    comm.wait(r);
    FAIL() << "expected TransferAborted";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::TransferAborted);
    EXPECT_NE(std::string(e.what()).find("rank 0 -> rank 1 tag 3"),
              std::string::npos);
  }
  EXPECT_TRUE(r.failed());
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(r.attempts(), 3);  // 1 original + 2 retries
  EXPECT_FALSE(r.done());
}

TEST(Communicator, CorruptRetransmitsAndCleanPayloadLands) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  comm.set_fault_hook([](int, int, int, double, int attempt) {
    return attempt == 1 ? TransferVerdict::Corrupt : TransferVerdict::Deliver;
  });
  auto s = comm.isend(0, 1, 2, 8.0);
  auto r = comm.irecv(1, 0, 2, 8.0);
  comm.wait(r);
  EXPECT_EQ(r.attempts(), 2);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(s.done());
}

TEST(Communicator, ResiliencePolicyIsValidated) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  Resilience bad;
  bad.max_retries = -1;
  EXPECT_THROW(comm.set_resilience(bad), pvc::Error);
  bad = Resilience{};
  bad.retry_backoff_s = -1e-6;
  EXPECT_THROW(comm.set_resilience(bad), pvc::Error);
  bad = Resilience{};
  bad.max_backoff_s = -1.0;
  EXPECT_THROW(comm.set_resilience(bad), pvc::Error);
}

TEST(Communicator, ExponentialBackoffClampsAtMaxBackoff) {
  // Four dropped attempts back off 1, 2, 4, 8 us unclamped; with
  // max_backoff_s = 1 us every retry waits exactly 1 us, so the clamped
  // run finishes (1+2+4+8) - 4 = 11 us of simulated time sooner.
  const auto run = [](double max_backoff_s) {
    rt::NodeSim sim(arch::aurora());
    auto comm = Communicator::explicit_scaling(sim);
    Resilience policy;
    policy.max_retries = 6;
    policy.retry_backoff_s = 1e-6;
    policy.max_backoff_s = max_backoff_s;
    comm.set_resilience(policy);
    comm.set_fault_hook([](int, int, int, double, int attempt) {
      return attempt <= 4 ? TransferVerdict::Drop : TransferVerdict::Deliver;
    });
    auto s = comm.isend(0, 1, 1, 8.0);
    auto r = comm.irecv(1, 0, 1, 8.0);
    comm.wait(r);
    comm.wait(s);
    EXPECT_EQ(r.attempts(), 5);
    return r.complete_time();
  };
  const double clamped = run(1e-6);
  const double unclamped = run(1.0);
  EXPECT_NEAR(unclamped - clamped, 11e-6, 1e-9);
}

TEST(Communicator, SameKeySendsMatchInPostOrder) {
  // Three sends with an identical (src, tag) key must pair with the
  // receives in post order — MPI non-overtaking, preserved by scanning
  // each queue front to back.  Each send has its own size, so a receive
  // matched out of order would throw "matched send/recv sizes differ".
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  auto s1 = comm.isend(0, 1, 5, 8.0);
  auto s2 = comm.isend(0, 1, 5, 16.0);
  auto s3 = comm.isend(0, 1, 5, 24.0);
  auto q1 = comm.irecv(1, 0, 5, 8.0);
  auto q2 = comm.irecv(1, 0, 5, 16.0);
  auto q3 = comm.irecv(1, 0, 5, 24.0);
  std::vector<Request> all{s1, s2, s3, q1, q2, q3};
  comm.wait_all(all);
  EXPECT_EQ(comm.messages_delivered(), 3u);
}

TEST(Communicator, TagMatchDepthHistogramReportsQueuePositions) {
  // The histogram must report the matched send's queue position — the
  // count of still-unmatched sends posted before it (what the seed's
  // linear rescan walked past) — and the live send count when a send
  // matches a waiting receive on arrival.
  obs::Registry local;
  obs::ScopedRegistry scope(local);
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  comm.isend(0, 1, 10, 8.0);    // seq 0
  comm.isend(0, 1, 11, 8.0);    // seq 1
  comm.isend(0, 1, 12, 8.0);    // seq 2
  comm.irecv(1, 0, 11, 8.0);    // matches seq 1; seq 0 live ahead -> depth 1
  comm.irecv(1, 0, 12, 8.0);    // matches seq 2; only seq 0 live  -> depth 1
  comm.irecv(1, 0, 10, 8.0);    // matches seq 0; nothing earlier  -> depth 0
  comm.irecv(1, 0, 99, 8.0);    // queues
  comm.isend(0, 1, 99, 8.0);    // immediate match, empty queue    -> depth 0
  const auto snap = local.snapshot();
  const auto* depth = snap.find("comm.tag_match_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count, 4u);
  ASSERT_EQ(depth->buckets.size(), 2u);
  EXPECT_EQ(depth->buckets[0].lower, 0u);
  EXPECT_EQ(depth->buckets[0].count, 2u);
  EXPECT_EQ(depth->buckets[1].lower, 1u);
  EXPECT_EQ(depth->buckets[1].upper, 1u);
  EXPECT_EQ(depth->buckets[1].count, 2u);
}

TEST(Communicator, SizeMismatchThrows) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  comm.isend(0, 1, 5, 16.0);
  EXPECT_THROW(comm.irecv(1, 0, 5, 8.0), pvc::Error);
}

TEST(Communicator, LocalPairFasterThanRemotePair) {
  // Timing goes through the topology: same-card exchange beats the
  // Xe-Link pair (Table III: 197 vs 15 GB/s).
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  auto s1 = comm.isend(0, 1, 1, 500.0 * MB);
  auto r1 = comm.irecv(1, 0, 1, 500.0 * MB);
  comm.wait(r1);
  const double local_time = r1.complete_time();
  auto s2 = comm.isend(0, 4, 2, 500.0 * MB);
  auto r2 = comm.irecv(4, 0, 2, 500.0 * MB);
  comm.wait(r2);
  const double remote_time = r2.complete_time() - local_time;
  EXPECT_GT(remote_time, 5.0 * local_time);
  static_cast<void>(s1);
  static_cast<void>(s2);
}

// --- collectives -------------------------------------------------------------

TEST(Collectives, HaloExchangeRingCompletes) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  const sim::Time t = halo_exchange_ring(comm, 4.0 * MB);
  EXPECT_GT(t, 0.0);
  // 24 messages of 4 MB; even over Xe-Link this is well under a second.
  EXPECT_LT(t, 0.1);
}

TEST(Collectives, RoundCountsMatchSchedule) {
  // The halo exchange runs once on a fresh Aurora node: one collective,
  // one round, a message to each ring neighbour from each of the 12
  // ranks.  The completion time pins the message schedule.
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  rt::NodeSim sim(arch::aurora());
  Communicator comm = Communicator::explicit_scaling(sim);
  EXPECT_EQ(halo_exchange_ring(comm, 64.0), 0x1.b459ccd2474p-17);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.value("comm.collectives"), 1.0);
  EXPECT_EQ(snap.value("comm.collective_rounds"), 1.0);
  EXPECT_EQ(snap.value("comm.messages"), 24.0);
}

// --- binding -----------------------------------------------------------------

TEST(Binding, SkipsOsCoresAndFillsSockets) {
  const auto node = arch::aurora();
  const auto bindings = bind_ranks(node, 12);
  ASSERT_EQ(bindings.size(), 12u);
  // §IV-A: rank 0 is bound to CPU core 1 (core 0 reserved for the OS).
  EXPECT_EQ(bindings[0].core, 1);
  EXPECT_EQ(bindings[0].socket, 0);
  EXPECT_EQ(bindings[0].device, 0);
  // Cards 0-2 on socket 0, cards 3-5 on socket 1.
  EXPECT_EQ(bindings[5].socket, 0);   // card 2
  EXPECT_EQ(bindings[6].socket, 1);   // card 3
  EXPECT_EQ(bindings[6].core, 53);    // first usable core of socket 1
  // No two ranks share a core.
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    for (std::size_t j = i + 1; j < bindings.size(); ++j) {
      EXPECT_NE(bindings[i].core, bindings[j].core);
    }
  }
}

TEST(Binding, ValidatesRankCount) {
  EXPECT_THROW(bind_ranks(arch::aurora(), 0), pvc::Error);
  EXPECT_THROW(bind_ranks(arch::aurora(), 13), pvc::Error);
}

}  // namespace
}  // namespace pvc::comm
