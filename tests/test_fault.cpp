// Unit tests for src/fault: chaos-spec parsing, the injector's timed
// windows and message-verdict hook, graceful degradation (host-staging
// reroute, link degradation and flaps), and determinism of the whole
// subsystem under a fixed seed.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "arch/systems.hpp"
#include "comm/communicator.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/units.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_sim.hpp"

namespace pvc::fault {
namespace {

// --- plan parsing ------------------------------------------------------------

TEST(FaultPlan, ParsesDurationsWithSuffixes) {
  const auto at_s = [](const std::string& at) {
    const auto plan = FaultPlan::parse("rankfail:rank=0,at=" + at);
    return plan.rank_fails.at(0).at_s;
  };
  EXPECT_DOUBLE_EQ(at_s("1.5ms"), 1.5e-3);
  EXPECT_DOUBLE_EQ(at_s("2us"), 2e-6);
  EXPECT_DOUBLE_EQ(at_s("30ns"), 30e-9);
  EXPECT_DOUBLE_EQ(at_s("0.25s"), 0.25);
  EXPECT_DOUBLE_EQ(at_s("3"), 3.0);
  // std::from_chars reads nan and inf; a duration must be finite.  Each
  // error is an InvalidArgument that quotes the clause and the value,
  // suffix included.
  for (const char* text :
       {"fast", "", "nan", "inf", "-inf", "infinity", "nanms", "1xs"}) {
    const std::string spec = std::string("rankfail:rank=0,at=") + text;
    try {
      (void)FaultPlan::parse(spec);
      FAIL() << "expected rejection of: " << spec;
    } catch (const pvc::Error& e) {
      EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << spec;
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + spec + "'"), std::string::npos) << what;
      if (*text != '\0') {
        EXPECT_NE(what.find(std::string("'") + text + "'"), std::string::npos)
            << what;
      }
    }
  }
}

TEST(FaultPlan, ParsesEveryClauseKind) {
  const auto plan = FaultPlan::parse(
      "seed:42;"
      "linkdown:a=0,b=3,at=1ms,for=5ms;"
      "flap:a=2,b=5,period=2ms,duty=0.25,count=4,at=1ms;"
      "degrade:a=0,b=3,factor=0.5,at=2ms;"
      "drop:0.1;corrupt:p=0.05;"
      "reroute:0.3;"
      "retries:max=6,backoff=2us,maxbackoff=5ms");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.linkdowns.size(), 1u);
  EXPECT_EQ(plan.linkdowns[0].a, 0);
  EXPECT_EQ(plan.linkdowns[0].b, 3);
  EXPECT_DOUBLE_EQ(plan.linkdowns[0].at_s, 1e-3);
  EXPECT_DOUBLE_EQ(plan.linkdowns[0].duration_s, 5e-3);
  EXPECT_FALSE(plan.linkdowns[0].permanent);
  ASSERT_EQ(plan.flaps.size(), 1u);
  EXPECT_EQ(plan.flaps[0].count, 4);
  EXPECT_DOUBLE_EQ(plan.flaps[0].duty, 0.25);
  ASSERT_EQ(plan.degradations.size(), 1u);
  EXPECT_TRUE(plan.degradations[0].permanent);
  EXPECT_DOUBLE_EQ(plan.degradations[0].factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.drop_probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.corrupt_probability, 0.05);
  ASSERT_TRUE(plan.reroute_penalty.has_value());
  EXPECT_DOUBLE_EQ(*plan.reroute_penalty, 0.3);
  EXPECT_EQ(plan.max_retries.value(), 6);
  EXPECT_DOUBLE_EQ(plan.retry_backoff_s.value(), 2e-6);
  EXPECT_DOUBLE_EQ(plan.max_backoff_s.value(), 5e-3);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ; ").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  // Each is an InvalidArgument; one that holds a single clause quotes it.
  const auto expect_invalid = [](const char* spec) {
    try {
      (void)FaultPlan::parse(spec);
      FAIL() << "expected rejection of: " << spec;
    } catch (const pvc::Error& e) {
      EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << spec;
      if (std::string_view(spec).find(';') == std::string_view::npos) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + spec + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  };
  expect_invalid("explode:now");                    // unknown clause
  expect_invalid("drop:1.5");                       // probability > 1
  expect_invalid("drop:0.6;corrupt:0.6");           // sum > 1
  expect_invalid("linkdown:a=0");                   // missing b
  expect_invalid("linkdown:a=0,b=1,sneaky=1");      // unknown key
  expect_invalid("linkdown:a=0,b=1,a=2");           // duplicate key
  expect_invalid("linkdown:a=0,b=1,at=1ms,for=0");  // empty window
  expect_invalid("flap:a=0,b=1,period=2ms,duty=1.5");
  expect_invalid("degrade:a=0,b=1,factor=0");       // factor out of (0,1]
  expect_invalid("degrade:a=0,b=1,factor=2");
  expect_invalid("retries:max=-1");
  expect_invalid("retries:max=4,maxbackoff=-1us");  // negative clamp
  expect_invalid("nodedown:node=-1");                // negative node
  expect_invalid("nodedown:node=0,rank=1");          // unknown key
  expect_invalid("rankfail:rank=-2");                // negative rank
  expect_invalid("rankfail:rank=1,for=1ms");         // rankfail has no window
  expect_invalid("ckpt:bytes=0");                    // bytes must be positive
  expect_invalid("ckpt:interval=60s");               // missing bytes
  expect_invalid("recovery:spare");                  // retired clause
  // Clauses that changed no bench's output are gone: unknown names now.
  for (const char* retired :
       {"throttle:card=0,factor=0.5", "devlost:dev=1,at=1ms",
        "usmfail:p=0.5,kind=device", "timeout:1ms"}) {
    expect_invalid(retired);
    try {
      (void)FaultPlan::parse(retired);
    } catch (const pvc::Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown clause name"),
                std::string::npos)
          << e.what();
    }
  }
  // std::from_chars reads nan and inf, and NaN passes every range check:
  // each number or duration must be finite, and its error quotes the
  // clause.
  for (const char* spec :
       {"drop:nan", "corrupt:nan", "drop:p=inf", "linkdown:a=0,b=3,at=inf",
        "linkdown:a=0,b=3,at=nan", "linkdown:a=0,b=3,at=0,for=nan",
        "flap:a=0,b=3,period=nan", "flap:a=0,b=3,period=2ms,duty=nan",
        "degrade:a=0,b=3,factor=nan", "reroute:nan",
        "retries:max=3,backoff=nan", "retries:max=3,maxbackoff=infinity",
        "nicdown:node=0,nic=0,at=-inf", "nicdegrade:node=0,nic=1,factor=nan",
        "nodedown:node=3,at=inf", "rankfail:rank=5,at=nan", "ckpt:bytes=nan",
        "ckpt:bytes=1e9,mtbf=inf"}) {
    expect_invalid(spec);
  }
  // Engine::run and Engine::step stop at Engine::kHorizon (1e300 s): a
  // window, flap or rank failure that would act past it would be armed
  // and never fire.
  for (const char* spec :
       {"linkdown:a=0,b=3,at=1e301", "linkdown:a=0,b=3,at=1e300,for=1e300",
        "degrade:a=0,b=3,factor=0.5,at=2e300",
        "flap:a=0,b=3,period=1e300,count=2", "nicdown:node=0,nic=0,at=1e301",
        "nicdegrade:node=0,nic=1,factor=0.5,at=0,for=1e301",
        "nodedown:node=3,at=1e301", "rankfail:rank=5,at=1e301"}) {
    expect_invalid(spec);
  }
  EXPECT_NO_THROW((void)FaultPlan::parse("linkdown:a=0,b=3,at=1e300"));
  // A malformed duration names its clause and quotes the whole value.
  try {
    (void)FaultPlan::parse("linkdown:a=0,b=3,at=1xs");
    FAIL() << "expected rejection of at=1xs";
  } catch (const pvc::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'linkdown:a=0,b=3,at=1xs'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'1xs'"), std::string::npos) << what;
  }
}

TEST(FaultPlan, ParsesNodeAndRankFailureClauses) {
  const auto plan = FaultPlan::parse(
      "nodedown:node=3,at=1ms,for=5ms;nodedown:7;"
      "rankfail:rank=9,at=2us;rankfail:4");
  ASSERT_EQ(plan.node_downs.size(), 2u);
  EXPECT_EQ(plan.node_downs[0].node, 3);
  EXPECT_DOUBLE_EQ(plan.node_downs[0].at_s, 1e-3);
  EXPECT_DOUBLE_EQ(plan.node_downs[0].duration_s, 5e-3);
  EXPECT_FALSE(plan.node_downs[0].permanent);
  EXPECT_EQ(plan.node_downs[1].node, 7);  // shorthand
  EXPECT_TRUE(plan.node_downs[1].permanent);
  ASSERT_EQ(plan.rank_fails.size(), 2u);
  EXPECT_EQ(plan.rank_fails[0].rank, 9);
  EXPECT_DOUBLE_EQ(plan.rank_fails[0].at_s, 2e-6);
  EXPECT_EQ(plan.rank_fails[1].rank, 4);  // shorthand
  EXPECT_DOUBLE_EQ(plan.rank_fails[1].at_s, 0.0);
  EXPECT_FALSE(plan.empty());
  EXPECT_NE(plan.summary().find("nodedown node 3"), std::string::npos);
  EXPECT_NE(plan.summary().find("rankfail rank 9"), std::string::npos);
}

TEST(FaultPlan, ParsesCheckpointClause) {
  const auto plan = FaultPlan::parse(
      "ckpt:bytes=1e9,interval=60s,restart=30s,mtbf=1000s");
  ASSERT_TRUE(plan.checkpoint.has_value());
  EXPECT_DOUBLE_EQ(plan.checkpoint->bytes_per_rank, 1e9);
  EXPECT_DOUBLE_EQ(plan.checkpoint->interval_s, 60.0);
  EXPECT_DOUBLE_EQ(plan.checkpoint->restart_s, 30.0);
  EXPECT_DOUBLE_EQ(plan.checkpoint->mtbf_s, 1000.0);

  // Shorthand bytes; interval 0 means "Daly-optimal at run time".
  const auto shorthand = FaultPlan::parse("ckpt:5e8");
  ASSERT_TRUE(shorthand.checkpoint.has_value());
  EXPECT_DOUBLE_EQ(shorthand.checkpoint->bytes_per_rank, 5e8);
  EXPECT_DOUBLE_EQ(shorthand.checkpoint->interval_s, 0.0);
  EXPECT_STREQ(recovery_policy_name(RecoveryPolicy::Shrink), "shrink");
  EXPECT_STREQ(recovery_policy_name(RecoveryPolicy::Spare), "spare");
}

TEST(FaultPlan, FuzzedClausesRoundTripAndMutationsNameTheClause) {
  // Property test over the node-failure grammar: every generated
  // well-formed spec parses back to the values it was built from, and a
  // mutated sibling throws InvalidArgument whose message embeds the
  // offending clause text.
  pvc::Rng rng(0xc1a05f00dull);
  const auto randint = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.uniform() * (hi - lo) + 0.5);
  };
  for (int iter = 0; iter < 200; ++iter) {
    const int node = randint(0, 63);
    const int rank = randint(0, 1023);
    const int at_us = randint(0, 999);
    const int for_us = randint(1, 500);
    const bool windowed = randint(0, 1) == 1;
    const int bytes = randint(1, 1000000);
    std::string spec = "nodedown:node=" + std::to_string(node) +
                       ",at=" + std::to_string(at_us) + "us";
    if (windowed) {
      spec += ",for=" + std::to_string(for_us) + "us";
    }
    spec += ";rankfail:rank=" + std::to_string(rank) +
            ",at=" + std::to_string(at_us) + "us";
    spec += ";ckpt:bytes=" + std::to_string(bytes);

    const auto plan = FaultPlan::parse(spec);
    ASSERT_EQ(plan.node_downs.size(), 1u) << spec;
    EXPECT_EQ(plan.node_downs[0].node, node);
    EXPECT_DOUBLE_EQ(plan.node_downs[0].at_s, at_us * 1e-6);
    EXPECT_EQ(plan.node_downs[0].permanent, !windowed);
    if (windowed) {
      EXPECT_DOUBLE_EQ(plan.node_downs[0].duration_s, for_us * 1e-6);
    }
    ASSERT_EQ(plan.rank_fails.size(), 1u);
    EXPECT_EQ(plan.rank_fails[0].rank, rank);
    ASSERT_TRUE(plan.checkpoint.has_value());
    EXPECT_DOUBLE_EQ(plan.checkpoint->bytes_per_rank, bytes);

    const char* mutations[] = {
        "nodedown:node=-1",
        "nodedown:node=1,node=2",
        "rankfail:rank=1,bogus=1",
        "ckpt:bytes=0",
        "nodedown:node=1,at=inf",
        "nodedown:node=1,at=0,for=nan",
        "rankfail:rank=1,at=nan",
        "ckpt:bytes=inf",
    };
    const char* mutation = mutations[randint(0, 7)];
    try {
      (void)FaultPlan::parse(spec + ";" + mutation);
      FAIL() << "expected rejection of mutation: " << mutation;
    } catch (const pvc::Error& e) {
      EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument);
      EXPECT_NE(std::string(e.what()).find(mutation), std::string::npos)
          << "error must name the clause: " << e.what();
    }
  }
}

TEST(FaultPlan, SummaryNamesEveryClause) {
  const auto plan = FaultPlan::parse(
      "seed:9;linkdown:a=0,b=3,at=1ms;degrade:a=2,b=5,factor=0.5,at=0;"
      "drop:0.2");
  const std::string text = plan.summary();
  EXPECT_NE(text.find("seed 9"), std::string::npos);
  EXPECT_NE(text.find("linkdown 0<->3"), std::string::npos);
  EXPECT_NE(text.find("degrade 2<->5 to 0.5x"), std::string::npos);
  EXPECT_NE(text.find("drop p=0.2"), std::string::npos);
}

// --- injector: timed windows -------------------------------------------------

TEST(Injector, DegradeWindowScalesXeLinkBandwidth) {
  const auto spec = arch::aurora();
  const auto run_pair = [&](const char* chaos) {
    rt::NodeSim sim(spec);
    Injector injector(FaultPlan::parse(chaos));
    injector.arm(sim);
    sim.run();
    double done_at = -1.0;
    sim.transfer_d2d(0, 3, 100.0 * MB, [&](sim::Time t) { done_at = t; });
    sim.run();
    return done_at;
  };
  const double healthy = run_pair("");
  const double degraded = run_pair("degrade:a=0,b=3,factor=0.25,at=0");
  EXPECT_GT(degraded, healthy * 2.0);
}

// --- graceful degradation: reroute -------------------------------------------

TEST(Injector, DownedXeLinkReroutesTableIIIPairWithSlowdown) {
  const auto spec = arch::aurora();
  // Table III remote pair: stacks 0 and 3 sit on the same Xe-Link plane.
  const auto run_pair = [&](const char* chaos) {
    rt::NodeSim sim(spec);
    Injector injector(FaultPlan::parse(chaos));
    injector.arm(sim);
    sim.run();
    double done_at = -1.0;
    sim.transfer_d2d(0, 3, 100.0 * MB, [&](sim::Time t) { done_at = t; });
    sim.run();
    EXPECT_GT(done_at, 0.0);  // the transfer must complete either way
    return done_at;
  };
  const double healthy = run_pair("");
  const double rerouted = run_pair("linkdown:a=0,b=3,at=0");
  // Host staging (PCIe D2H + DDR + H2D, store-and-forward penalty) is
  // strictly slower than the healthy Xe-Link.
  EXPECT_GT(rerouted / healthy, 1.0);

  const auto snapshot = obs::Registry::global().snapshot();
  bool saw_reroute = false;
  for (const auto& s : snapshot.samples) {
    if (s.name == "net.reroutes" && s.value > 0.0) {
      saw_reroute = true;
    }
  }
  EXPECT_TRUE(saw_reroute);
}

TEST(Injector, ReroutePenaltyOverrideDeepensSlowdown) {
  const auto spec = arch::aurora();
  const auto run_pair = [&](const char* chaos) {
    rt::NodeSim sim(spec);
    Injector injector(FaultPlan::parse(chaos));
    injector.arm(sim);
    sim.run();
    double done_at = -1.0;
    sim.transfer_d2d(0, 3, 100.0 * MB, [&](sim::Time t) { done_at = t; });
    sim.run();
    return done_at;
  };
  const double mild = run_pair("linkdown:a=0,b=3,at=0;reroute:0.4");
  const double harsh = run_pair("linkdown:a=0,b=3,at=0;reroute:0.1");
  EXPECT_GT(harsh, mild * 2.0);
}

TEST(Injector, LinkFlapWindowClosesAgain) {
  rt::NodeSim sim(arch::aurora());
  Injector injector(
      FaultPlan::parse("flap:a=0,b=3,period=2ms,duty=0.5,count=2,at=1ms"));
  injector.arm(sim);
  EXPECT_EQ(injector.events_armed(), 4);  // two down/up cycles
  std::vector<bool> observed;
  for (const double at : {0.5e-3, 1.5e-3, 2.5e-3, 3.5e-3, 4.5e-3, 5.5e-3}) {
    sim.engine().schedule_at(at,
                             [&] { observed.push_back(sim.xelink_down(0, 3)); });
  }
  sim.run();
  EXPECT_EQ(observed,
            (std::vector<bool>{false, true, false, true, false, false}));
}

// --- message-verdict hook ----------------------------------------------------

TEST(Injector, AttachAppliesResilienceOverrides) {
  rt::NodeSim sim(arch::aurora());
  auto comm = comm::Communicator::explicit_scaling(sim);
  Injector injector(
      FaultPlan::parse("retries:max=7,backoff=3us,maxbackoff=9us"));
  injector.attach(comm);
  EXPECT_EQ(comm.resilience().max_retries, 7);
  EXPECT_DOUBLE_EQ(comm.resilience().retry_backoff_s, 3e-6);
  EXPECT_DOUBLE_EQ(comm.resilience().max_backoff_s, 9e-6);
}

TEST(Injector, DropPlanRetriesAndStillDelivers) {
  rt::NodeSim sim(arch::aurora());
  Injector injector(FaultPlan::parse(
      "seed:3;drop:0.5;retries:max=32,backoff=1us"));
  injector.arm(sim);
  auto comm = comm::Communicator::explicit_scaling(sim);
  injector.attach(comm);
  std::vector<comm::Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(comm.isend(0, 1, i, 4096.0));
    requests.push_back(comm.irecv(1, 0, i, 4096.0));
  }
  comm.wait_all(requests);
  EXPECT_EQ(comm.messages_delivered(), 8u);
}

// --- determinism -------------------------------------------------------------

std::string chaotic_run_snapshot() {
  obs::Registry::global().reset_values();
  const auto plan = FaultPlan::parse(
      "seed:7;drop:0.15;corrupt:0.1;retries:max=10,backoff=1us;"
      "flap:a=0,b=3,period=1ms,duty=0.5,count=2,at=0");
  Injector injector(plan);
  rt::NodeSim sim(arch::aurora());
  injector.arm(sim);
  auto comm = comm::Communicator::explicit_scaling(sim);
  injector.attach(comm);

  for (int i = 0; i < 24; ++i) {
    const int src = i % comm.size();
    int dst = (i * 5 + 1) % comm.size();
    if (dst == src) {
      dst = (dst + 1) % comm.size();
    }
    (void)comm.isend(src, dst, i, 64.0 * KiB);
    (void)comm.irecv(dst, src, i, 64.0 * KiB);
  }
  sim.run();  // drain everything; aborted transfers are fine here
  return obs::to_csv(obs::Registry::global().snapshot()).to_string();
}

TEST(Injector, SameSpecAndSeedReproduceBitIdenticalMetrics) {
  const std::string first = chaotic_run_snapshot();
  const std::string second = chaotic_run_snapshot();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("comm."), std::string::npos);
}

}  // namespace
}  // namespace pvc::fault
