// Unit tests for src/sim: event engine, flow network, compute queues,
// power governor, cache hierarchy.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/cache_model.hpp"
#include "sim/compute_queue.hpp"
#include "sim/engine.hpp"
#include "sim/flow_network.hpp"
#include "sim/power.hpp"

namespace pvc::sim {
namespace {

// --- engine ------------------------------------------------------------------

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_DOUBLE_EQ(engine.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoTieBreakAtEqualTimes) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(1.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(1.0, [&] {
    engine.schedule_after(0.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(Engine, CancelSuppressesEvent) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_executed(), 0u);
}

TEST(Engine, CancelAfterFireIsExactNoOp) {
  Engine engine;
  int fired = 0;
  const EventId id = engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.pending(id));
  engine.cancel(id);  // id already fired — must not poison later events
  engine.schedule_at(3.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, DoubleCancelIsExactNoOp) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  engine.cancel(id);
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.events_executed(), 0u);
  // A cancelled ghost must not keep the calendar looking busy.
  EXPECT_TRUE(engine.idle());
}

TEST(Engine, CancelFromSameTimestampCallback) {
  Engine engine;
  bool second_fired = false;
  EventId second = 0;
  // FIFO tie-break: the canceller runs first at t=1 and must suppress
  // its same-timestamp sibling.
  engine.schedule_at(1.0, [&] { engine.cancel(second); });
  second = engine.schedule_at(1.0, [&] { second_fired = true; });
  engine.run();
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(engine.events_executed(), 1u);
  EXPECT_TRUE(engine.idle());
}

TEST(Engine, CancelNeverScheduledIdIsExactNoOp) {
  Engine engine;
  engine.cancel(EventId{12345});
  bool fired = false;
  engine.schedule_at(1.0, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelChurnRunsOnlySurvivors) {
  // Heavy schedule/cancel churn across slot recycling: only the
  // uncancelled half may fire, in time order, and every retired id
  // stays an exact no-op afterwards even once its slot is reused.
  Engine engine;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        engine.schedule_at(static_cast<double>(i), [&fired, i] {
          fired.push_back(i);
        }));
  }
  for (int i = 0; i < 1000; i += 2) {
    engine.cancel(ids[static_cast<std::size_t>(i)]);
  }
  engine.run();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], static_cast<int>(2 * k + 1));
  }
  // All ids are stale now; cancelling them must not disturb new events
  // that recycle the same slots.
  for (const EventId id : ids) {
    engine.cancel(id);
  }
  bool again = false;
  engine.schedule_at(2000.0, [&again] { again = true; });
  EXPECT_DOUBLE_EQ(engine.run(), 2000.0);
  EXPECT_TRUE(again);
}

TEST(Engine, StepExecutesAtMostOneEventUpToLimit) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(engine.step(5.0));
  EXPECT_EQ(fired, 1);
  // Completing early must not catapult the clock to the limit.
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_FALSE(engine.step(1.5));  // next event lies beyond the limit
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_TRUE(engine.step(2.0));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(engine.step());  // drained
}

TEST(Engine, PendingTracksEventLifecycle) {
  Engine engine;
  const EventId fires = engine.schedule_at(1.0, [] {});
  const EventId cancelled = engine.schedule_at(2.0, [] {});
  EXPECT_TRUE(engine.pending(fires));
  EXPECT_TRUE(engine.pending(cancelled));
  engine.cancel(cancelled);
  EXPECT_FALSE(engine.pending(cancelled));
  engine.run();
  EXPECT_FALSE(engine.pending(fires));
}

TEST(Engine, RunUntilAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(5.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastSchedulingThrows) {
  Engine engine;
  engine.schedule_at(1.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(0.5, [] {}), pvc::Error);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), pvc::Error);
}

// --- flow network ------------------------------------------------------------

TEST(FlowNetwork, SingleFlowTakesBytesOverCapacity) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);  // 100 B/s
  double done_at = -1.0;
  net.start_flow(std::array{link}, 500.0, 0.0, [&](Time t) { done_at = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(FlowNetwork, FlowOverAPcieLinkBumpsOnlyThePcieSeries) {
  // A link's class comes from add_link(), and routes the flow's bytes
  // and flow-seconds to that class's net.<class>.* series alone.
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Pcie, 100.0);
  EXPECT_EQ(net.link(link).cls, LinkClass::Pcie);
  net.start_flow(std::array{link}, 1000.0, 0.0, {});
  engine.run();
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.count("net.bytes_total"), 1000u);
  for (std::size_t c = 0; c < kLinkClassCount; ++c) {
    const std::string cls = link_class_name(static_cast<LinkClass>(c));
    const bool pcie = static_cast<LinkClass>(c) == LinkClass::Pcie;
    EXPECT_EQ(snap.count("net." + cls + ".bytes"), pcie ? 1000u : 0u) << cls;
    EXPECT_DOUBLE_EQ(snap.value("net." + cls + ".flow_seconds"),
                     pcie ? 10.0 : 0.0)
        << cls;
  }
}

TEST(FlowNetwork, LatencyDelaysStart) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  double done_at = -1.0;
  net.start_flow(std::array{link}, 100.0, 2.0, [&](Time t) { done_at = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  std::vector<double> done;
  net.start_flow(std::array{link}, 100.0, 0.0,
                 [&](Time t) { done.push_back(t); });
  net.start_flow(std::array{link}, 100.0, 0.0,
                 [&](Time t) { done.push_back(t); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);  // each gets 50 B/s
  EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST(FlowNetwork, ShortFlowReleasesBandwidth) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  double long_done = -1.0;
  // Finishes at t=1 (50 B at 50 B/s).
  net.start_flow(std::array{link}, 50.0, 0.0, {});
  net.start_flow(std::array{link}, 150.0, 0.0, [&](Time t) { long_done = t; });
  engine.run();
  // Long flow: 50 B in the first second (shared), then 100 B/s alone.
  EXPECT_DOUBLE_EQ(long_done, 2.0);
}

TEST(FlowNetwork, BottleneckLinkGovernsMultiLinkRoute) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId fast = net.add_link(LinkClass::Other, 1000.0);
  const LinkId slow = net.add_link(LinkClass::Other, 10.0);
  double done = -1.0;
  net.start_flow(std::array{fast, slow}, 100.0, 0.0, [&](Time t) { done = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 10.0);
}

TEST(FlowNetwork, DoubleTraversalChargesTwice) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  double done = -1.0;
  // Crossing the same link twice halves the end-to-end rate.
  net.start_flow(std::array{link, link}, 100.0, 0.0, [&](Time t) { done = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(FlowNetwork, MaxMinAllocationWithAsymmetricRoutes) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId shared = net.add_link(LinkClass::Other, 90.0);
  const LinkId private_slow = net.add_link(LinkClass::Other, 10.0);
  // Flow A is bottlenecked by its private link at 10 B/s; flow B should
  // then get the remaining 80 B/s of the shared link.
  double a_done = -1.0, b_done = -1.0;
  net.start_flow(std::array{shared, private_slow}, 10.0, 0.0,
                 [&](Time t) { a_done = t; });
  net.start_flow(std::array{shared}, 80.0, 0.0, [&](Time t) { b_done = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 1.0);
  EXPECT_DOUBLE_EQ(b_done, 1.0);
}

TEST(FlowNetwork, EmptyRouteIsPureLatency) {
  Engine engine;
  FlowNetwork net(engine);
  double done = -1.0;
  net.start_flow({}, 0.0, 0.25, [&](Time t) { done = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 0.25);
}

TEST(FlowNetwork, LinkScaleDegradesInFlightFlow) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  double done_at = -1.0;
  net.start_flow(std::array{link}, 100.0, 0.0, [&](Time t) { done_at = t; });
  // Halfway through (50 B moved), the link retrains to quarter speed:
  // the remaining 50 B crawl at 25 B/s and land at 0.5 + 2.0.
  engine.schedule_at(0.5, [&] { net.set_link_scale(link, 0.25); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
  EXPECT_DOUBLE_EQ(net.link_scale(link), 0.25);
}

TEST(FlowNetwork, LinkScaleRestores) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  net.set_link_scale(link, 0.5);
  net.set_link_scale(link, 1.0);
  double done_at = -1.0;
  net.start_flow(std::array{link}, 100.0, 0.0, [&](Time t) { done_at = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 1.0);
}

TEST(FlowNetwork, LinkScaleValidatesRange) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  EXPECT_THROW(net.set_link_scale(link, 0.0), pvc::Error);
  EXPECT_THROW(net.set_link_scale(link, -0.5), pvc::Error);
  EXPECT_THROW(net.set_link_scale(link, 1.5), pvc::Error);
}

TEST(FlowNetwork, InvalidInputsThrow) {
  Engine engine;
  FlowNetwork net(engine);
  EXPECT_THROW(net.add_link(LinkClass::Other, 0.0), pvc::Error);
  const LinkId link = net.add_link(LinkClass::Other, 1.0);
  EXPECT_THROW(net.start_flow(std::array{link + 10}, 1.0, 0.0, {}),
               pvc::Error);
  EXPECT_THROW(net.start_flow(std::array{link}, -1.0, 0.0, {}), pvc::Error);
}

TEST(FlowNetwork, RouteLongerThanTheInlineLimitIsRejected) {
  // A flow's record holds its route inline: 16 links run (here one link
  // crossed 16 times, so the flow moves at 100/16 B/s), 17 fail with a
  // typed error naming the length and the limit.
  ASSERT_EQ(kMaxRouteLinks, 16u);
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  std::vector<LinkId> route(kMaxRouteLinks, link);
  double done = -1.0;
  net.start_flow(route, 100.0, 0.0, [&](Time t) { done = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(done, 16.0);

  route.push_back(link);
  try {
    (void)net.start_flow(route, 100.0, 0.0, {});
    ADD_FAILURE() << "a 17-link route was accepted";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument);
    const std::string what = e.what();
    EXPECT_NE(what.find("17 links"), std::string::npos) << what;
    EXPECT_NE(what.find("limit of 16"), std::string::npos) << what;
  }
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(FlowNetwork, LinkLoadCountsMultiTraversalRoutes) {
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  // Flow A crosses the link twice (2-hop Xe-Link pattern), flow B once:
  // three traversals share 100 B/s, so both flows run at 100/3 and the
  // link is exactly full counting A's multiplicity.
  const FlowId a = net.start_flow(std::array{link, link}, 300.0, 0.0, {});
  const FlowId b = net.start_flow(std::array{link}, 300.0, 0.0, {});
  engine.schedule_at(1.0, [&] {
    EXPECT_DOUBLE_EQ(net.flow_rate(a), 100.0 / 3.0);
    EXPECT_DOUBLE_EQ(net.flow_rate(b), 100.0 / 3.0);
    EXPECT_DOUBLE_EQ(net.link_load(link), 100.0);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(net.link_load(link), 0.0);
}

TEST(FlowNetwork, IncrementalMatchesReferenceUnderRandomChurn) {
  // Randomized flow churn (starts with and without a latency phase,
  // completions, aborts in either phase, routes of 1-16 hops that cross
  // links more than once, adjacent or not, link degradations/restores):
  // after every mutation the incremental solver's rates must match the
  // retained from-scratch reference solver, every id's flow_rate() must
  // agree with them, and every link's load must equal a from-scratch
  // sum of rate x traversals and respect its capacity.
  Engine engine;
  FlowNetwork net(engine);
  pvc::Rng rng(0xC0FFEEu);

  std::vector<LinkId> links;
  for (int i = 0; i < 6; ++i) {
    links.push_back(net.add_link(LinkClass::Other, 50.0 * (1 + i % 3)));
  }
  std::vector<FlowId> started;
  std::vector<std::vector<LinkId>> routes;  // index-matched with started
  int latent_aborts = 0;
  int active_aborts = 0;
  int split_repeats = 0;  // routes crossing a link twice, not in a row

  const auto check = [&net, &links, &started, &routes] {
    const std::size_t transferring = net.active_flows();
    const auto inc = net.current_rates();
    const auto ref = net.reference_rates();
    EXPECT_EQ(transferring, inc.size());
    ASSERT_EQ(inc.size(), ref.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      EXPECT_EQ(inc[i].first, ref[i].first);
      EXPECT_DOUBLE_EQ(inc[i].second, ref[i].second);
    }
    for (const FlowId id : started) {
      const auto it = std::find_if(inc.begin(), inc.end(),
                                   [id](const auto& r) { return r.first == id; });
      EXPECT_EQ(net.flow_rate(id), it == inc.end() ? 0.0 : it->second);
    }
    for (const LinkId id : links) {
      double load = 0.0;
      for (const auto& [flow, rate] : inc) {
        const auto& route = routes[static_cast<std::size_t>(
            std::find(started.begin(), started.end(), flow) -
            started.begin())];
        load += rate * static_cast<double>(
                           std::count(route.begin(), route.end(), id));
      }
      EXPECT_DOUBLE_EQ(net.link_load(id), load);
      EXPECT_LE(net.link_load(id),
                net.link(id).effective_capacity_bps() * (1.0 + 1e-9));
    }
  };

  double t = 0.0;
  for (int step = 0; step < 300; ++step) {
    t += rng.uniform(0.0, 0.5);
    engine.schedule_at(t, [&] {
      const double pick = rng.uniform();
      if (pick < 0.6) {
        // Random route of 1-16 hops (the inline limit), links drawn with
        // replacement so the same link is regularly traversed more than
        // once, often with other links between, as in NodeSim's
        // host-staged reroute.  Half the flows start at once, half after
        // a latency phase that often outlasts the next mutation.
        std::vector<LinkId> route;
        const std::size_t hops = 1 + rng.uniform_index(kMaxRouteLinks);
        for (std::size_t h = 0; h < hops; ++h) {
          route.push_back(links[rng.uniform_index(links.size())]);
        }
        for (std::size_t h = 2; h < route.size(); ++h) {
          if (std::find(route.begin(), route.begin() + (h - 1), route[h]) !=
              route.begin() + (h - 1)) {
            ++split_repeats;
            break;
          }
        }
        const double latency =
            rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.0, 1.5);
        started.push_back(
            net.start_flow(route, rng.uniform(10.0, 500.0), latency, {}));
        routes.push_back(std::move(route));
      } else if (pick < 0.75 && !started.empty()) {
        // Abort a random earlier flow: latent, active or long finished.
        const FlowId victim = started[rng.uniform_index(started.size())];
        const auto rates = net.current_rates();
        const bool active =
            std::any_of(rates.begin(), rates.end(),
                        [victim](const auto& r) { return r.first == victim; });
        if (net.abort_flow(victim)) {
          ++(active ? active_aborts : latent_aborts);
        }
        EXPECT_FALSE(net.abort_flow(victim));
      } else {
        net.set_link_scale(links[rng.uniform_index(links.size())],
                           rng.uniform(0.25, 1.0));
      }
      check();
    });
  }
  engine.run();
  check();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(latent_aborts, 0);
  EXPECT_GT(active_aborts, 0);
  EXPECT_GT(split_repeats, 0);
  EXPECT_EQ(net.flows_aborted(),
            static_cast<std::uint64_t>(latent_aborts + active_aborts));
}

TEST(FlowNetwork, SameInstantCompletionsFireInCreationOrder) {
  // Flows finishing at one instant fire their callbacks in creation
  // order, however they reached the active list.
  {
    // Activated out of order: the first flow waits out a 1 s latency,
    // the second starts at once; both finish at t = 2 on private links.
    Engine engine;
    FlowNetwork net(engine);
    const LinkId a = net.add_link(LinkClass::Other, 100.0);
    const LinkId b = net.add_link(LinkClass::Other, 100.0);
    std::vector<int> order;
    net.start_flow(std::array{a}, 100.0, 1.0, [&](Time t) {
      EXPECT_DOUBLE_EQ(t, 2.0);
      order.push_back(1);
    });
    net.start_flow(std::array{b}, 200.0, 0.0, [&](Time t) {
      EXPECT_DOUBLE_EQ(t, 2.0);
      order.push_back(2);
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
  {
    // A later flow in a lower slot: the first flow finishes at t = 1 and
    // frees slot 0, which `late` (started from its callback) takes;
    // `older` holds slot 1 since t = 0.  Both finish at t = 3.
    Engine engine;
    FlowNetwork net(engine);
    const LinkId a = net.add_link(LinkClass::Other, 100.0);
    const LinkId b = net.add_link(LinkClass::Other, 100.0);
    std::vector<int> order;
    FlowId late = 0;
    net.start_flow(std::array{a}, 100.0, 0.0, [&](Time) {
      late = net.start_flow(std::array{a}, 200.0, 0.0, [&](Time t) {
        EXPECT_DOUBLE_EQ(t, 3.0);
        order.push_back(2);
      });
    });
    const FlowId older = net.start_flow(std::array{b}, 300.0, 0.0, [&](Time t) {
      EXPECT_DOUBLE_EQ(t, 3.0);
      order.push_back(1);
    });
    engine.run();
    EXPECT_LT(static_cast<std::uint32_t>(late),
              static_cast<std::uint32_t>(older));  // the lower slot
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
  }
  {
    // Four activations at t = 1 in the order a, l0, n, l1, where l0 and
    // l1 (started at t = 0) end a 1 s latency phase and a and n start
    // at t = 1 with none.  Events at one timestamp fire in scheduling
    // order.  The tail appended after a, [l0, n, l1], is itself out of
    // creation order, so restoring it takes a sort before the merge.
    // All four finish at t = 2 on private links.
    Engine engine;
    FlowNetwork net(engine);
    std::array<LinkId, 4> link{};
    for (LinkId& l : link) {
      l = net.add_link(LinkClass::Other, 100.0);
    }
    std::vector<int> order;
    const auto finish = [&order](int rank) {
      return [&order, rank](Time t) {
        EXPECT_DOUBLE_EQ(t, 2.0);
        order.push_back(rank);
      };
    };
    FlowId a = 0;
    FlowId n = 0;
    engine.schedule_at(1.0, [&] {
      a = net.start_flow(std::array{link[2]}, 100.0, 0.0, finish(3));
    });
    const FlowId l0 =
        net.start_flow(std::array{link[0]}, 100.0, 1.0, finish(1));
    engine.schedule_at(1.0, [&] {
      n = net.start_flow(std::array{link[3]}, 100.0, 0.0, finish(4));
    });
    const FlowId l1 =
        net.start_flow(std::array{link[1]}, 100.0, 1.0, finish(2));
    engine.schedule_at(1.5, [&] {
      const auto rates = net.current_rates();
      ASSERT_EQ(rates.size(), 4u);
      const FlowId creation[] = {l0, l1, a, n};
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(rates[i].first, creation[i]) << i;
      }
    });
    engine.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  }
}

TEST(FlowNetwork, AbortInStartInstantReleasesBandwidth) {
  // Regression: aborting a flow in the same simulated instant it was
  // created — before the batched zero-delay resolve has ever priced it —
  // must release its bandwidth immediately.  The incremental solver saw
  // the doomed flow only through dirty-marks, so a stale traversal count
  // here once left the survivor at half rate.
  Engine engine;
  FlowNetwork net(engine);
  const LinkId link = net.add_link(LinkClass::Other, 100.0);
  double done = -1.0;
  const FlowId doomed = net.start_flow(std::array{link}, 1000.0, 0.0, {});
  net.start_flow(std::array{link}, 100.0, 0.0, [&](Time t) { done = t; });
  EXPECT_TRUE(net.abort_flow(doomed));
  // The incremental rates must already agree bit-for-bit with the
  // retained from-scratch reference solver: one survivor, full capacity.
  const auto inc = net.current_rates();
  const auto ref = net.reference_rates();
  ASSERT_EQ(inc.size(), 1u);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(inc[0].first, ref[0].first);
  EXPECT_EQ(inc[0].second, ref[0].second);  // bit-equal, not just close
  EXPECT_EQ(inc[0].second, 100.0);
  engine.run();
  EXPECT_DOUBLE_EQ(done, 1.0);  // alone at 100 B/s from the first byte
  EXPECT_EQ(net.flows_aborted(), 1u);
}

// --- compute queue -----------------------------------------------------------

TEST(ComputeQueue, SerializesTasks) {
  Engine engine;
  ComputeQueue queue(engine, "q");
  std::vector<double> ends;
  queue.submit(1.0, [&](Time t) { ends.push_back(t); });
  queue.submit(2.0, [&](Time t) { ends.push_back(t); });
  EXPECT_DOUBLE_EQ(queue.busy_until(), 3.0);
  engine.run();
  EXPECT_EQ(ends, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(queue.tasks_submitted(), 2u);
  EXPECT_DOUBLE_EQ(queue.busy_seconds(), 3.0);
}

TEST(ComputeQueue, SubmissionAfterIdleStartsAtNow) {
  Engine engine;
  ComputeQueue queue(engine, "q");
  queue.submit(1.0, [](Time) {});
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  double end = -1.0;
  queue.submit(0.5, [&](Time t) { end = t; });
  engine.run();
  EXPECT_DOUBLE_EQ(end, 1.5);
}

TEST(ComputeQueue, CallbackFreeSubmissionOnlyAdvancesBookkeeping) {
  Engine engine;
  ComputeQueue queue(engine, "q");
  queue.submit(1.0);  // no callback: nothing needs an event
  EXPECT_TRUE(engine.idle());
  EXPECT_DOUBLE_EQ(queue.busy_until(), 1.0);
}

// --- power governor ----------------------------------------------------------

PowerDomain aurora_like_domain() {
  PowerDomain d;
  d.f_max_hz = 1.6e9;
  d.static_w = 75.0;
  d.stack_cap_w = 261.0;
  d.card_cap_w = 500.0;
  d.node_cap_w = 2915.0;
  d.stacks_per_card = 2;
  d.cards = 6;
  return d;
}

TEST(PowerGovernor, Fp64ThrottlesToTwelveHundredMegahertz) {
  const PowerGovernor gov(aurora_like_domain());
  // The paper's observation: FP64 FMA runs at ~1.2 GHz (§IV-B2).
  EXPECT_NEAR(gov.operating_frequency(331.0, 1, 1), 1.2e9, 0.01e9);
}

TEST(PowerGovernor, LightWorkloadHoldsMaxClock) {
  const PowerGovernor gov(aurora_like_domain());
  EXPECT_NEAR(gov.operating_frequency(105.0, 1, 1), 1.6e9, 0.02e9);
}

TEST(PowerGovernor, FrequencyFallsWithOccupancy) {
  const PowerGovernor gov(aurora_like_domain());
  const double f1 = gov.operating_frequency(331.0, 1, 1);
  const double f2 = gov.operating_frequency(331.0, 2, 1);
  const double f12 = gov.operating_frequency(331.0, 2, 6);
  EXPECT_GT(f1, f2);
  EXPECT_GT(f2, f12);
  // Two-stack scaling efficiency ~97% (paper §IV-B1).
  EXPECT_NEAR(f2 / f1, 0.97, 0.015);
  EXPECT_NEAR(f12 / f1, 0.95, 0.015);
}

TEST(PowerGovernor, PowerDrawMatchesClosedForm) {
  const PowerGovernor gov(aurora_like_domain());
  EXPECT_NEAR(gov.stack_power(331.0, 1.6e9), 75.0 + 331.0, 1e-9);
  EXPECT_NEAR(gov.stack_power(331.0, 0.8e9), 75.0 + 331.0 * 0.25, 1e-9);
  // At the governed frequency the stack sits exactly at its cap.
  const double f = gov.operating_frequency(331.0, 1, 1);
  EXPECT_NEAR(gov.stack_power(331.0, f), 261.0, 0.5);
}

TEST(PowerGovernor, InvalidConfigurationsThrow) {
  PowerDomain bad = aurora_like_domain();
  bad.stack_cap_w = 10.0;  // below static power
  EXPECT_THROW(PowerGovernor{bad}, pvc::Error);
  const PowerGovernor gov(aurora_like_domain());
  EXPECT_THROW(gov.operating_frequency(-1.0, 1, 1), pvc::Error);
  EXPECT_THROW(gov.operating_frequency(100.0, 3, 1), pvc::Error);
  EXPECT_THROW(gov.operating_frequency(100.0, 1, 7), pvc::Error);
}

// --- cache hierarchy ---------------------------------------------------------

CacheHierarchy small_hierarchy() {
  // L1: 4 KiB, 64 B lines, 2-way (32 sets); L2: 64 KiB, 8-way.
  return CacheHierarchy(
      {
          CacheLevelSpec{"L1", 4096, 64, 2, 10.0},
          CacheLevelSpec{"L2", 65536, 64, 8, 100.0},
      },
      1000.0);
}

TEST(CacheHierarchy, ColdMissThenHit) {
  auto cache = small_hierarchy();
  EXPECT_DOUBLE_EQ(cache.access(0), 1000.0);  // cold: memory latency
  EXPECT_DOUBLE_EQ(cache.access(0), 10.0);    // now in L1
  EXPECT_DOUBLE_EQ(cache.access(32), 10.0);   // same line
  EXPECT_EQ(cache.level_stats(0).hits, 2u);
  EXPECT_EQ(cache.level_stats(0).misses, 1u);
}

TEST(CacheHierarchy, L1EvictionFallsBackToL2) {
  auto cache = small_hierarchy();
  // Three lines mapping to the same L1 set (stride = 32 sets * 64 B).
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride);
  cache.access(1 * stride);
  cache.access(2 * stride);  // evicts line 0 from the 2-way L1
  EXPECT_DOUBLE_EQ(cache.access(0), 100.0);  // L1 miss, L2 hit
}

TEST(CacheHierarchy, LruKeepsRecentlyUsedLine) {
  auto cache = small_hierarchy();
  const std::uint64_t stride = 32 * 64;
  cache.access(0 * stride);
  cache.access(1 * stride);
  cache.access(0 * stride);  // refresh line 0 to MRU
  cache.access(2 * stride);  // must evict line 1, not line 0
  EXPECT_DOUBLE_EQ(cache.access(0), 10.0);
  EXPECT_DOUBLE_EQ(cache.access(1 * stride), 100.0);
}

TEST(CacheHierarchy, WorkingSetBeyondL2GoesToMemory) {
  auto cache = small_hierarchy();
  // Stream far more lines than L2 holds, twice; the second pass still
  // misses everywhere (footprint 16x the L2).
  const std::size_t lines = 16 * 1024;
  for (int pass = 0; pass < 2; ++pass) {
    double total = 0.0;
    for (std::size_t i = 0; i < lines; ++i) {
      total += cache.access(i * 64);
    }
    if (pass == 1) {
      EXPECT_GT(total / static_cast<double>(lines), 900.0);
    }
  }
}

TEST(CacheHierarchy, ResetClearsState) {
  auto cache = small_hierarchy();
  cache.access(0);
  cache.reset();
  EXPECT_EQ(cache.accesses(), 0u);
  EXPECT_DOUBLE_EQ(cache.access(0), 1000.0);
}

TEST(CacheHierarchy, ValidatesGeometry) {
  EXPECT_THROW(CacheHierarchy({CacheLevelSpec{"bad", 100, 48, 2, 1.0}}, 10.0),
               pvc::Error);  // line not power of two
  EXPECT_THROW(
      CacheHierarchy({CacheLevelSpec{"l1", 4096, 64, 2, 50.0},
                      CacheLevelSpec{"l2", 65536, 64, 8, 20.0}},
                     1000.0),
      pvc::Error);  // latencies must increase outward
  EXPECT_THROW(
      CacheHierarchy({CacheLevelSpec{"l1", 4096, 64, 2, 50.0}}, 25.0),
      pvc::Error);  // memory faster than cache
}

TEST(CacheHierarchy, WideSetsManyLevelsAndHighAddressesWork) {
  // Nothing past the geometry checks limits the model: nine levels of
  // one 256-way set each, and a line at the top of the address space.
  std::vector<CacheLevelSpec> levels;
  for (const char* name : {"L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9"}) {
    const double latency = 10.0 * static_cast<double>(levels.size() + 1);
    levels.push_back(CacheLevelSpec{name, 256 * 64, 64, 256, latency});
  }
  CacheHierarchy cache(levels, 1000.0);
  const std::uint64_t top = ~0ull - 63;  // the last 64-byte line
  EXPECT_DOUBLE_EQ(cache.access(top), 1000.0);
  for (std::uint64_t line = 1; line < 256; ++line) {
    cache.access(line * 64);
  }
  EXPECT_DOUBLE_EQ(cache.access(top), 10.0);  // 256 lines fit 256 ways
  // A 257th line: L1 evicts its LRU line 1, while L2-L9, which never saw
  // the L1 hit, evict `top`.
  cache.access(256 * 64);
  EXPECT_DOUBLE_EQ(cache.access(64), 20.0);
  EXPECT_DOUBLE_EQ(cache.access(top), 10.0);
}

}  // namespace
}  // namespace pvc::sim
