// Unit tests for src/comm: point-to-point matching, payload delivery,
// collectives, rank binding.

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
  std::vector<double> src{1.0, 2.0, 3.0};
  std::vector<double> dst(3, 0.0);
  auto s = comm.isend(0, 1, 42, 24.0, src);
  auto r = comm.irecv(1, 0, 42, 24.0, dst);
  comm.wait(s);
  comm.wait(r);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(comm.messages_delivered(), 1u);
  EXPECT_DOUBLE_EQ(s.complete_time(), r.complete_time());
}

TEST(Communicator, RecvBeforeSendAlsoMatches) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  std::vector<double> dst(1, 0.0);
  std::vector<double> src{9.0};
  auto r = comm.irecv(2, 3, 7, 8.0, dst);
  auto s = comm.isend(3, 2, 7, 8.0, src);
  comm.wait(r);
  EXPECT_DOUBLE_EQ(dst[0], 9.0);
  EXPECT_TRUE(s.done());
}

TEST(Communicator, TagsKeepMessagesApart) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  std::vector<double> a{1.0}, b{2.0}, ra(1), rb(1);
  auto s1 = comm.isend(0, 1, 100, 8.0, a);
  auto s2 = comm.isend(0, 1, 200, 8.0, b);
  auto r2 = comm.irecv(1, 0, 200, 8.0, rb);
  auto r1 = comm.irecv(1, 0, 100, 8.0, ra);
  std::vector<Request> all{s1, s2, r1, r2};
  comm.wait_all(all);
  EXPECT_DOUBLE_EQ(ra[0], 1.0);
  EXPECT_DOUBLE_EQ(rb[0], 2.0);
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
  std::vector<double> src{7.0}, dst(1, 0.0);
  auto s = comm.isend(0, 1, 1, 8.0, src);
  auto r = comm.irecv(1, 0, 1, 8.0, dst);
  comm.wait(r);
  comm.wait(s);
  EXPECT_EQ(r.attempts(), 3);
  EXPECT_DOUBLE_EQ(dst[0], 7.0);

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
  std::vector<double> src{4.0}, dst(1, 0.0);
  auto s = comm.isend(0, 1, 2, 8.0, src);
  auto r = comm.irecv(1, 0, 2, 8.0, dst);
  comm.wait(r);
  EXPECT_EQ(r.attempts(), 2);
  EXPECT_DOUBLE_EQ(dst[0], 4.0);
  EXPECT_TRUE(s.done());
}

TEST(Communicator, WaitTimeoutThrowsCodedError) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  Resilience policy;
  policy.wait_timeout_s = 1e-9;  // far below any transfer's latency
  comm.set_resilience(policy);
  auto s = comm.isend(0, 1, 1, 1.0 * pvc::MB);
  auto r = comm.irecv(1, 0, 1, 1.0 * pvc::MB);
  try {
    comm.wait(r);
    FAIL() << "expected Timeout";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::Timeout);
  }
  // The transfer itself is healthy: a timeout-free wait finishes it.
  comm.set_resilience(Resilience{});
  comm.wait(r);
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
  bad.wait_timeout_s = 0.0;
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
  // each queue front to back.
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  std::vector<double> a{1.0}, b{2.0}, c{3.0};
  auto s1 = comm.isend(0, 1, 5, 8.0, a);
  auto s2 = comm.isend(0, 1, 5, 8.0, b);
  auto s3 = comm.isend(0, 1, 5, 8.0, c);
  std::vector<double> r1(1), r2(1), r3(1);
  auto q1 = comm.irecv(1, 0, 5, 8.0, r1);
  auto q2 = comm.irecv(1, 0, 5, 8.0, r2);
  auto q3 = comm.irecv(1, 0, 5, 8.0, r3);
  std::vector<Request> all{s1, s2, s3, q1, q2, q3};
  comm.wait_all(all);
  EXPECT_DOUBLE_EQ(r1[0], 1.0);
  EXPECT_DOUBLE_EQ(r2[0], 2.0);
  EXPECT_DOUBLE_EQ(r3[0], 3.0);
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

TEST(Collectives, BarrierCompletesOnAllSizes) {
  for (const auto& node : {arch::aurora(), arch::dawn(), arch::jlse_h100()}) {
    rt::NodeSim sim(node);
    auto comm = Communicator::explicit_scaling(sim);
    const sim::Time t = barrier(comm);
    EXPECT_GE(t, 0.0);
  }
}

TEST(Collectives, AllreduceSumsEverywhere) {
  rt::NodeSim sim(arch::dawn());
  auto comm = Communicator::explicit_scaling(sim);
  const int p = comm.size();
  const std::size_t n = 37;  // deliberately not divisible by p
  std::vector<std::vector<double>> data(p);
  std::vector<double> expected(n, 0.0);
  for (int r = 0; r < p; ++r) {
    data[r].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[r][i] = static_cast<double>(r + 1) * static_cast<double>(i);
      expected[i] += data[r][i];
    }
  }
  const sim::Time t = allreduce_sum(comm, data);
  EXPECT_GT(t, 0.0);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(data[r][i], expected[i], 1e-9)
          << "rank " << r << " element " << i;
    }
  }
}

TEST(Collectives, AllreduceSingleRankIsIdentity) {
  rt::NodeSim sim(arch::jlse_h100());
  Communicator comm(sim, {0});
  std::vector<std::vector<double>> data{{1.0, 2.0}};
  allreduce_sum(comm, data);
  EXPECT_EQ(data[0], (std::vector<double>{1.0, 2.0}));
}

TEST(Collectives, HaloExchangeRingCompletes) {
  rt::NodeSim sim(arch::aurora());
  auto comm = Communicator::explicit_scaling(sim);
  const sim::Time t = halo_exchange_ring(comm, 4.0 * MB);
  EXPECT_GT(t, 0.0);
  // 24 messages of 4 MB; even over Xe-Link this is well under a second.
  EXPECT_LT(t, 0.1);
}

TEST(Collectives, BroadcastAndGatherComplete) {
  rt::NodeSim sim(arch::dawn());
  auto comm = Communicator::explicit_scaling(sim);
  const sim::Time t1 = broadcast_from_root(comm, 16.0 * MB);
  EXPECT_GT(t1, 0.0);
  const sim::Time t2 = gather_to_root(comm, 16.0 * MB);
  EXPECT_GT(t2, t1);
}

TEST(Collectives, SumCollectivesMatchSerialReductionOracle) {
  // Integer-valued payloads add exactly in FP64, so whatever association
  // the ring/tree uses, the result must equal the serial rank-order fold.
  const std::size_t n = 64;
  const auto fill = [&] {
    std::vector<std::vector<double>> data(12);
    for (std::size_t r = 0; r < data.size(); ++r) {
      data[r].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        data[r][i] = static_cast<double>((r + 1) * 7 + i * 3);
      }
    }
    return data;
  };
  std::vector<double> expected(n, 0.0);
  for (const auto& row : fill()) {
    for (std::size_t i = 0; i < n; ++i) expected[i] += row[i];
  }
  {
    rt::NodeSim sim(arch::aurora());
    auto comm = Communicator::explicit_scaling(sim);
    auto data = fill();
    allreduce_sum(comm, data);
    for (std::size_t r = 0; r < data.size(); ++r) {
      EXPECT_EQ(data[r], expected) << "allreduce rank " << r;
    }
  }
  {
    rt::NodeSim sim(arch::aurora());
    auto comm = Communicator::explicit_scaling(sim);
    auto data = fill();
    reduce_sum_to_root(comm, data);
    EXPECT_EQ(data[0], expected) << "reduce root";
  }
}

TEST(Collectives, RoundCountsMatchSchedule) {
  // Each collective runs once on a fresh Aurora node.  At P = 12: the
  // dissemination barrier takes ceil(log2 P) = 4 rounds, the ring
  // allreduce 2(P-1) = 22, halo and gather one, the binomial broadcast
  // and reduce 4, the pairwise alltoall P-1 = 11.  On the 8-rank
  // communicator of stacks 0-7, recursive doubling takes log2 8 = 3
  // rounds and reduce+broadcast counts as its two collectives, 3 + 3
  // rounds.  The completion times pin the message schedule; they hold
  // with metrics compiled out too.
  using Data = std::vector<std::vector<double>>;
  struct Case {
    const char* name;
    int ranks;
    double collectives;
    double rounds;
    double messages;
    sim::Time finish;
    sim::Time (*run)(Communicator&);
  };
  const Case cases[] = {
      {"barrier", 12, 1, 4, 48, 0x1.b43526527a206p-15,
       [](Communicator& c) { return barrier(c); }},
      {"allreduce", 12, 1, 22, 264, 0x1.2be9b1c2acceap-12,
       [](Communicator& c) {
         Data d(12, std::vector<double>(16, 1.0));
         return allreduce_sum(c, d);
       }},
      {"halo", 12, 1, 1, 24, 0x1.b459ccd2474p-17,
       [](Communicator& c) { return halo_exchange_ring(c, 64.0); }},
      {"gather", 12, 1, 1, 11, 0x1.b4ec66d17bbeap-17,
       [](Communicator& c) { return gather_to_root(c, 64.0); }},
      {"broadcast", 12, 1, 4, 11, 0x1.47440c3788495p-15,
       [](Communicator& c) { return broadcast_from_root(c, 64.0); }},
      {"alltoall", 12, 1, 11, 110, 0x1.0642fd822b569p-13,
       [](Communicator& c) { return alltoall(c, 64.0); }},
      {"reduce", 12, 1, 4, 11, 0x1.1d6ed09f6e286p-15,
       [](Communicator& c) {
         Data d(12, std::vector<double>(16, 1.0));
         return reduce_sum_to_root(c, d);
       }},
      {"allreduce recursive-doubling", 8, 1, 3, 24, 0x1.043dbbd3d903fp-15,
       [](Communicator& c) {
         Data d(8, std::vector<double>(16, 1.0));
         return allreduce_sum(c, d, 8.0,
                              AllreduceAlgorithm::RecursiveDoubling);
       }},
      {"allreduce reduce-broadcast", 8, 2, 6, 14, 0x1.de72a8cb26969p-15,
       [](Communicator& c) {
         Data d(8, std::vector<double>(16, 1.0));
         return allreduce_sum(c, d, 8.0, AllreduceAlgorithm::ReduceBroadcast);
       }},
  };
  for (const auto& c : cases) {
    obs::Registry reg;
    obs::ScopedRegistry scope(reg);
    rt::NodeSim sim(arch::aurora());
    Communicator comm =
        c.ranks == 12 ? Communicator::explicit_scaling(sim)
                      : Communicator(sim, {0, 1, 2, 3, 4, 5, 6, 7});
    EXPECT_EQ(c.run(comm), c.finish) << c.name;
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.value("comm.collectives"), c.collectives) << c.name;
    EXPECT_EQ(snap.value("comm.collective_rounds"), c.rounds) << c.name;
    EXPECT_EQ(snap.value("comm.messages"), c.messages) << c.name;
  }
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

TEST(Binding, CoresPerRankShrinksWithMoreGpus) {
  // Aurora (6 GPUs : 2 CPUs) leaves fewer cores per rank than Dawn
  // (4 : 2) — the miniQMC congestion mechanism (§V-B1).
  const double aurora_share = cores_per_rank(arch::aurora(), 12);
  const double dawn_share = cores_per_rank(arch::dawn(), 8);
  EXPECT_LT(aurora_share, dawn_share);
  EXPECT_NEAR(aurora_share, 102.0 / 12.0, 1e-9);
  EXPECT_NEAR(dawn_share, 94.0 / 8.0, 1e-9);
}

TEST(Binding, HostBandwidthSharesEvenly) {
  const auto node = arch::aurora();
  EXPECT_NEAR(host_bandwidth_per_rank(node, 12),
              node.cpu.ddr_bandwidth_bps / 12.0, 1.0);
}

TEST(Binding, ValidatesRankCount) {
  EXPECT_THROW(bind_ranks(arch::aurora(), 0), pvc::Error);
  EXPECT_THROW(bind_ranks(arch::aurora(), 13), pvc::Error);
}

}  // namespace
}  // namespace pvc::comm
