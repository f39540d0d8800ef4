// Unit tests for src/runtime: kernel pricing, memory manager, node
// simulator transfers, queues.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "arch/systems.hpp"
#include "core/error.hpp"
#include "core/statistics.hpp"
#include "core/units.hpp"
#include "runtime/kernel.hpp"
#include "runtime/memory.hpp"
#include "runtime/node_sim.hpp"
#include "runtime/queue.hpp"

namespace pvc::rt {
namespace {

using arch::Precision;
using arch::WorkloadKind;

// --- kernel duration ---------------------------------------------------------

TEST(KernelDuration, ComputeBoundRooflineLeg) {
  const auto node = arch::aurora();
  KernelDesc k;
  k.kind = WorkloadKind::Fp64Fma;
  k.precision = Precision::FP64;
  k.flops = 17.2e12;  // one second of work at the FP64 governed rate
  k.launch_latency_s = 0.0;
  const double t = kernel_duration(node, k, arch::Activity{1, 1});
  EXPECT_NEAR(t, 1.0, 0.01);
}

TEST(KernelDuration, MemoryBoundRooflineLeg) {
  const auto node = arch::aurora();
  KernelDesc k;
  k.kind = WorkloadKind::Stream;
  k.bytes = 1.0e12;  // one second at the 1 TB/s achieved stream rate
  k.launch_latency_s = 0.0;
  const double t = kernel_duration(node, k, arch::Activity{1, 1});
  EXPECT_NEAR(t, 1.0, 0.02);
}

TEST(KernelDuration, TakesMaxOfLegsPlusLatency) {
  const auto node = arch::aurora();
  KernelDesc k;
  k.kind = WorkloadKind::Mixed;
  k.precision = Precision::FP32;
  k.flops = 1.0e9;   // tiny compute
  k.bytes = 1.0e9;   // ~1 ms of memory traffic
  k.launch_latency_s = 5e-6;
  const double t = kernel_duration(node, k, arch::Activity{1, 1});
  EXPECT_GT(t, 1.0e-3);
  EXPECT_LT(t, 1.2e-3);
}

TEST(KernelDuration, MatrixPipelineSelected) {
  const auto node = arch::aurora();
  KernelDesc k;
  k.kind = WorkloadKind::GemmLowPrec;
  k.precision = Precision::FP16;
  k.use_matrix_pipeline = true;
  k.flops = 1.0e12;
  k.launch_latency_s = 0.0;
  const double t_matrix = kernel_duration(node, k, arch::Activity{1, 1});
  k.use_matrix_pipeline = false;
  const double t_vector = kernel_duration(node, k, arch::Activity{1, 1});
  EXPECT_LT(t_matrix, t_vector / 3.0);  // XMX is 8x the vector fp16 rate
}

TEST(KernelDuration, ValidatesInputs) {
  const auto node = arch::aurora();
  KernelDesc k;
  k.flops = -1.0;
  EXPECT_THROW(kernel_duration(node, k, arch::Activity{1, 1}), pvc::Error);
  k.flops = 1.0;
  k.compute_efficiency = 0.0;
  EXPECT_THROW(kernel_duration(node, k, arch::Activity{1, 1}), pvc::Error);
}

TEST(KernelDuration, UnsupportedPrecisionNamesIt) {
  // PVC's vector pipeline has no TF32 rate; only XMX runs TF32.
  const auto node = arch::aurora();
  KernelDesc k;
  k.precision = Precision::TF32;
  k.flops = 1.0e9;
  k.use_matrix_pipeline = false;
  try {
    (void)kernel_duration(node, k, arch::Activity{1, 1});
    FAIL() << "expected an error";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Generic);
    EXPECT_STREQ(e.what(),
                 "kernel_duration: precision TF32 unsupported on pipeline");
  }
  k.use_matrix_pipeline = true;
  EXPECT_GT(kernel_duration(node, k, arch::Activity{1, 1}), 0.0);
}

// --- memory manager ----------------------------------------------------------

TEST(MemoryManager, TracksCapacityAndRaiiRelease) {
  const auto node = arch::aurora();
  MemoryManager mm(node);
  EXPECT_EQ(mm.device_count(), 12);
  {
    const Buffer b = mm.allocate(MemKind::Device, 0, 10.0 * GB);
    EXPECT_NEAR(mm.device_used(0), 10.0 * GB, 1.0);
    EXPECT_EQ(b.device(), 0);
    EXPECT_EQ(b.kind(), MemKind::Device);
  }
  EXPECT_NEAR(mm.device_used(0), 0.0, 1.0);  // released on scope exit
}

TEST(MemoryManager, RejectsOverflow) {
  const auto node = arch::aurora();
  MemoryManager mm(node);
  // 64 GB HBM per stack: a 65 GB allocation must fail.
  EXPECT_THROW(mm.allocate(MemKind::Device, 0, 65.0 * GB), pvc::Error);
  // CloverLeaf's 47 GB grid fits (the paper sizes it to fit one stack).
  EXPECT_NO_THROW(mm.allocate(MemKind::Device, 0, 47.0 * GB));
}

TEST(MemoryManager, HostPoolSeparate) {
  const auto node = arch::aurora();
  MemoryManager mm(node);
  const Buffer b = mm.allocate(MemKind::Host, -1, 100.0 * GB);
  EXPECT_NEAR(mm.host_used(), 100.0 * GB, 1.0);
  EXPECT_NEAR(mm.device_used(0), 0.0, 1.0);
  EXPECT_THROW(mm.allocate(MemKind::Host, -1, 2000.0 * GB), pvc::Error);
}

TEST(MemoryManager, MoveTransfersOwnership) {
  const auto node = arch::aurora();
  MemoryManager mm(node);
  Buffer a = mm.allocate(MemKind::Device, 1, 1.0 * GB);
  Buffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_NEAR(mm.device_used(1), 1.0 * GB, 1.0);
  b.reset();
  EXPECT_NEAR(mm.device_used(1), 0.0, 1.0);
}

// --- node sim transfers ------------------------------------------------------

double timed_transfer(NodeSim& sim, int src, int dst, double bytes) {
  double done = -1.0;
  sim.transfer_d2d(src, dst, bytes, [&](sim::Time t) { done = t; });
  sim.run();
  return done;
}

TEST(NodeSim, SingleH2dAtCardLinkRate) {
  NodeSim sim(arch::aurora());
  double done = -1.0;
  sim.transfer_h2d(0, 500.0 * MB, [&](sim::Time t) { done = t; });
  sim.run();
  // ~500 MB / 55 GB/s plus small latency.
  EXPECT_NEAR(500.0 * MB / done, 55.0 * GBps, 1.0 * GBps);
}

TEST(NodeSim, SecondStackSharesCardPcie) {
  NodeSim sim(arch::aurora());
  double done0 = -1.0, done1 = -1.0;
  sim.transfer_h2d(0, 500.0 * MB, [&](sim::Time t) { done0 = t; });
  sim.transfer_h2d(1, 500.0 * MB, [&](sim::Time t) { done1 = t; });
  sim.run();
  // Both stacks share one 55 GB/s link: aggregate stays ~55 GB/s.
  const double aggregate = 1000.0 * MB / std::max(done0, done1);
  EXPECT_NEAR(aggregate, 55.0 * GBps, 1.5 * GBps);
}

TEST(NodeSim, BidirectionalCapBelowTwiceUni) {
  NodeSim sim(arch::aurora());
  double h2d = -1.0, d2h = -1.0;
  sim.transfer_h2d(0, 500.0 * MB, [&](sim::Time t) { h2d = t; });
  sim.transfer_d2h(0, 500.0 * MB, [&](sim::Time t) { d2h = t; });
  sim.run();
  const double aggregate = 1000.0 * MB / std::max(h2d, d2h);
  EXPECT_NEAR(aggregate, 77.0 * GBps, 2.0 * GBps);  // Table II bidir
}

TEST(NodeSim, LocalStackPairAtMdfiRate) {
  NodeSim sim(arch::aurora());
  const double done = timed_transfer(sim, 0, 1, 500.0 * MB);
  EXPECT_NEAR(500.0 * MB / done, 197.0 * GBps, 5.0 * GBps);
}

TEST(NodeSim, RemoteSamePlanePairAtXeLinkRate) {
  NodeSim sim(arch::aurora());
  // 0.0 (dev 0) and 2.0 (dev 4) share plane 0: one Xe-Link hop.
  EXPECT_EQ(sim.d2d_route_kind(0, 4), arch::RouteKind::XeLinkDirect);
  const double done = timed_transfer(sim, 0, 4, 500.0 * MB);
  EXPECT_NEAR(500.0 * MB / done, 15.0 * GBps, 1.0 * GBps);
}

TEST(NodeSim, CrossPlanePairTakesTwoHops) {
  NodeSim sim(arch::aurora());
  // 0.0 -> 1.0 is the paper's two-hop example (dev 0 -> dev 2).
  EXPECT_EQ(sim.d2d_route_kind(0, 2), arch::RouteKind::XeLinkTwoHop);
  const double done = timed_transfer(sim, 0, 2, 500.0 * MB);
  // Still Xe-Link limited (~15 GB/s) but with extra hop latency.
  EXPECT_NEAR(500.0 * MB / done, 15.0 * GBps, 1.0 * GBps);
}

TEST(NodeSim, RemoteSlowerThanPcie) {
  // §IV-B7: Xe-Link remote-stack bandwidth is slower than PCIe.
  NodeSim a(arch::aurora());
  const double remote = 500.0 * MB / timed_transfer(a, 0, 4, 500.0 * MB);
  NodeSim b(arch::aurora());
  double h2d = -1.0;
  b.transfer_h2d(0, 500.0 * MB, [&](sim::Time t) { h2d = t; });
  b.run();
  const double pcie = 500.0 * MB / h2d;
  EXPECT_LT(remote, pcie);
}

TEST(NodeSim, SameDeviceCopyUsesLocalBandwidth) {
  NodeSim sim(arch::aurora());
  const double done = timed_transfer(sim, 3, 3, 500.0 * MB);
  // Read + write at ~1 TB/s achieved.
  EXPECT_NEAR(done, 2.0 * 500.0 * MB / 1.0e12, 1e-4);
}

TEST(NodeSim, H100PeerTransfersUseNvlinkRates) {
  NodeSim sim(arch::jlse_h100());
  EXPECT_EQ(sim.device_count(), 4);
  EXPECT_EQ(sim.d2d_route_kind(0, 1), arch::RouteKind::XeLinkDirect);
  const double done = timed_transfer(sim, 0, 1, 500.0 * MB);
  EXPECT_NEAR(500.0 * MB / done, 450.0 * GBps, 20.0 * GBps);
}

/// How many distinct links of each class the transfers in flight load,
/// sampled 1 ms in: after every route's latency phase, long before a
/// 1 GB transfer drains.
std::map<sim::LinkClass, int> loaded_link_classes(NodeSim& sim) {
  sim.engine().run_until(1e-3);
  std::map<sim::LinkClass, int> classes;
  const sim::FlowNetwork& net = sim.network();
  for (sim::LinkId l = 0; l < net.link_count(); ++l) {
    if (net.link_load(l) > 0.0) {
      ++classes[net.link(l).cls];
    }
  }
  sim.run();
  return classes;
}

TEST(NodeSim, EveryLinkKindCarriesItsClass) {
  // The net.<class>.* series count what NodeSim labels each link with.
  // Each route below loads a known set of links, so a link built with
  // the wrong class moves one count from its class to another.
  using C = sim::LinkClass;
  using Classes = std::map<C, int>;
  const auto classes_of = [](const auto& start) {
    NodeSim sim(arch::aurora());
    start(sim);
    return loaded_link_classes(sim);
  };
  // H2D copy to stack 0: the host h2d and bidir aggregates, then the
  // card's PCIe h2d and shared links.
  EXPECT_EQ(classes_of([](NodeSim& s) { s.transfer_h2d(0, 1.0 * GB); }),
            (Classes{{C::Host, 2}, {C::Pcie, 2}}));
  // Same-card stack pair, each way: MDFI fwd or rev plus the shared
  // MDFI link, then the node-wide fabric aggregate.
  EXPECT_EQ(classes_of([](NodeSim& s) { s.transfer_d2d(0, 1, 1.0 * GB); }),
            (Classes{{C::Mdfi, 2}, {C::FabricAgg, 1}}));
  EXPECT_EQ(classes_of([](NodeSim& s) { s.transfer_d2d(1, 0, 1.0 * GB); }),
            (Classes{{C::Mdfi, 2}, {C::FabricAgg, 1}}));
  // Remote pair (one Xe-Link hop): egress, ingress and the pair link,
  // then the fabric aggregate.
  EXPECT_EQ(classes_of([](NodeSim& s) { s.transfer_d2d(0, 4, 1.0 * GB); }),
            (Classes{{C::XeLink, 3}, {C::FabricAgg, 1}}));
  // Host-staged reroute around a downed Xe-Link: D2H on card 0 (host
  // d2h + bidir, PCIe d2h + shared), H2D on card 2 (host h2d, PCIe h2d
  // + shared) and the host staging link.
  EXPECT_EQ(classes_of([](NodeSim& s) {
              s.set_xelink_down(0, 4, true);
              s.transfer_d2d(0, 4, 1.0 * GB);
            }),
            (Classes{{C::Host, 4}, {C::Pcie, 4}}));
}

TEST(NodeSim, CardStackDecomposition) {
  NodeSim sim(arch::dawn());
  EXPECT_EQ(sim.card_of(5), 2);
  EXPECT_EQ(sim.stack_of(5), 1);
  EXPECT_THROW(sim.card_of(99), pvc::Error);
}

TEST(NodeSim, TransfersRejectADeviceOutsideTheNode) {
  // Every entry point that starts a flow or binds a queue checks the
  // subdevice index before it touches the link graph, and starts nothing.
  NodeSim sim(arch::aurora());
  for (const int bad : {-1, sim.device_count()}) {
    const auto expect_rejected = [bad](const char* call, auto&& start) {
      try {
        start();
        ADD_FAILURE() << call << " accepted device " << bad;
      } catch (const pvc::Error& e) {
        EXPECT_NE(std::string(e.what()).find("bad device"), std::string::npos)
            << call << ": " << e.what();
      }
    };
    expect_rejected("transfer_h2d", [&] { sim.transfer_h2d(bad, 1.0 * MB); });
    expect_rejected("transfer_d2h", [&] { sim.transfer_d2h(bad, 1.0 * MB); });
    expect_rejected("transfer_d2d src",
                    [&] { sim.transfer_d2d(bad, 0, 1.0 * MB); });
    expect_rejected("transfer_d2d dst",
                    [&] { sim.transfer_d2d(0, bad, 1.0 * MB); });
    expect_rejected("Queue", [&] { Queue queue(sim, bad); });
  }
  EXPECT_TRUE(sim.engine().idle());
  EXPECT_DOUBLE_EQ(sim.run(), 0.0);
}

TEST(NodeSim, SameCardStacksHaveNoXeLink) {
  // MDFI joins the two stacks of a card; an Xe-Link joins different
  // cards.  Downing a same-card "Xe-Link" used to change no route, and
  // degrading one added a pair link that no route uses.  Both now fail
  // by name and leave the node as it was.
  NodeSim sim(arch::aurora());
  const std::size_t links = sim.network().link_count();
  const auto expect_rejected = [](const std::string& pair, auto&& call) {
    try {
      call();
      ADD_FAILURE() << pair << " accepted";
    } catch (const pvc::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << e.what();
      const std::string what = e.what();
      EXPECT_NE(what.find("subdevices " + pair), std::string::npos) << what;
      EXPECT_NE(what.find("card 2"), std::string::npos) << what;
    }
  };
  expect_rejected("4 and 5", [&] { sim.set_xelink_down(4, 5, true); });
  expect_rejected("5 and 4", [&] { sim.set_xelink_down(5, 4, false); });
  expect_rejected("4 and 5", [&] { sim.set_xelink_degradation(4, 5, 0.5); });
  EXPECT_FALSE(sim.xelink_down(4, 5));
  EXPECT_EQ(sim.network().link_count(), links);

  // Stacks on different cards still take both faults.
  sim.set_xelink_down(0, 4, true);
  EXPECT_TRUE(sim.xelink_down(0, 4));
  sim.set_xelink_degradation(1, 5, 0.5);
  EXPECT_EQ(sim.network().link_count(), links + 1);
}

TEST(NodeSim, CrossCardCopyWithoutRemoteFabricIsLinkDown) {
  // Two cards with no card-to-card fabric: a peer copy between them has
  // no route, and there is no pair link to degrade.
  auto spec = arch::aurora();
  spec.system_name = "Bare";
  spec.fabric.remote_uni_bps = 0.0;
  NodeSim sim(spec);
  try {
    (void)sim.transfer_d2d(0, 2, 1.0 * MB);
    ADD_FAILURE() << "transfer_d2d accepted";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::LinkDown);
    EXPECT_STREQ(e.what(),
                 "[link_down] NodeSim: no remote fabric between devices on "
                 "Bare");
  }
  try {
    sim.set_xelink_degradation(0, 2, 0.5);
    ADD_FAILURE() << "set_xelink_degradation accepted";
  } catch (const pvc::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Generic);
    EXPECT_STREQ(e.what(), "NodeSim: no remote fabric to degrade on Bare");
  }
  // The stacks of one card still reach each other over MDFI.
  (void)sim.transfer_d2d(0, 1, 1.0 * MB);
  EXPECT_GT(sim.run(), 0.0);
}

// --- queue -------------------------------------------------------------------

TEST(Queue, InOrderKernelThenTransfer) {
  NodeSim sim(arch::aurora());
  Queue q(sim, 0);
  KernelDesc k;
  k.kind = WorkloadKind::Stream;
  k.bytes = 1.0e9;  // ~1 ms
  k.launch_latency_s = 0.0;
  q.submit(k);
  q.memcpy_d2h(55.0 * MB);  // ~1 ms at 56 GB/s
  const sim::Time end = q.wait();
  EXPECT_NEAR(end, 2.0e-3, 0.1e-3);
}

TEST(Queue, PeerCopyThroughTopology) {
  NodeSim sim(arch::aurora());
  Queue q(sim, 0);
  q.copy_to_peer(1, 197.0 * MB);  // 1 ms at MDFI rate
  const sim::Time end = q.wait();
  EXPECT_NEAR(end, 1.0e-3, 0.1e-3);
}

TEST(Queue, WaitOnEmptyQueueReturnsImmediately) {
  NodeSim sim(arch::aurora());
  Queue q(sim, 0);
  EXPECT_DOUBLE_EQ(q.wait(), 0.0);
}

}  // namespace
}  // namespace pvc::rt
