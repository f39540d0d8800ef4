#include "report/figures.hpp"

#include <utility>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "core/error.hpp"
#include "report/table6.hpp"

namespace pvc::report {
namespace {

using arch::Precision;
using arch::Scope;

double ratio(const std::optional<double>& a, const std::optional<double>& b) {
  ensure(a.has_value() && b.has_value() && *b != 0.0,
         "figure bars: missing FOM value");
  return *a / *b;
}

}  // namespace

std::vector<RelativeBar> figure2_bars(const Table6Column& fom_a,
                                      const Table6Column& fom_d) {
  const auto aurora = arch::aurora();
  const auto dawn = arch::dawn();
  std::vector<RelativeBar> bars;

  // miniBUDE: single stack only; expected = FP32 peak ratio.
  bars.push_back({"miniBUDE", "one Stack",
                  ratio(fom_a.minibude.one_stack, fom_d.minibude.one_stack),
                  arch::fma_peak(aurora, Precision::FP32, Scope::OneSubdevice) /
                      arch::fma_peak(dawn, Precision::FP32,
                                     Scope::OneSubdevice)});

  // CloverLeaf: expected = stream-bandwidth ratio per scope.
  const auto clover_expected = [&](Scope s) {
    return arch::stream_bandwidth(aurora, s) / arch::stream_bandwidth(dawn, s);
  };
  bars.push_back({"CloverLeaf", "one Stack",
                  ratio(fom_a.cloverleaf.one_stack, fom_d.cloverleaf.one_stack),
                  clover_expected(Scope::OneSubdevice)});
  bars.push_back({"CloverLeaf", "one PVC",
                  ratio(fom_a.cloverleaf.one_gpu, fom_d.cloverleaf.one_gpu),
                  clover_expected(Scope::OneCard)});
  bars.push_back({"CloverLeaf", "full node",
                  ratio(fom_a.cloverleaf.node, fom_d.cloverleaf.node),
                  clover_expected(Scope::FullNode)});

  // miniQMC: no expected bars (§V-B1 — the CPU-congestion bottleneck is
  // not captured by the microbenchmarks).
  bars.push_back({"miniQMC", "one Stack",
                  ratio(fom_a.miniqmc.one_stack, fom_d.miniqmc.one_stack),
                  std::nullopt});
  bars.push_back({"miniQMC", "one PVC",
                  ratio(fom_a.miniqmc.one_gpu, fom_d.miniqmc.one_gpu),
                  std::nullopt});
  bars.push_back({"miniQMC", "full node",
                  ratio(fom_a.miniqmc.node, fom_d.miniqmc.node),
                  std::nullopt});

  // mini-GAMESS: expected = DGEMM ratio per scope.
  const auto gamess_expected = [&](Scope s) {
    return arch::gemm_rate(aurora, Precision::FP64, s) /
           arch::gemm_rate(dawn, Precision::FP64, s);
  };
  bars.push_back({"mini-GAMESS", "one Stack",
                  ratio(fom_a.minigamess.one_stack, fom_d.minigamess.one_stack),
                  gamess_expected(Scope::OneSubdevice)});
  bars.push_back({"mini-GAMESS", "one PVC",
                  ratio(fom_a.minigamess.one_gpu, fom_d.minigamess.one_gpu),
                  gamess_expected(Scope::OneCard)});
  bars.push_back({"mini-GAMESS", "full node",
                  ratio(fom_a.minigamess.node, fom_d.minigamess.node),
                  gamess_expected(Scope::FullNode)});
  return bars;
}

namespace {

/// Shared Fig3/Fig4 builder: `peer` is the comparison system; `gcd_scope`
/// true compares one PVC stack against one MI250 GCD (Figure 4), false
/// compares one PVC card against one peer GPU (Figure 3).
std::vector<RelativeBar> versus_bars(const arch::NodeSpec& peer,
                                     bool gcd_scope,
                                     const Table6Column& fom_peer,
                                     const Table6Column& fom_aurora,
                                     const Table6Column& fom_dawn) {
  const std::pair<arch::NodeSpec, const Table6Column*> systems[] = {
      {arch::aurora(), &fom_aurora}, {arch::dawn(), &fom_dawn}};
  std::vector<RelativeBar> bars;

  for (const auto& [pvc, fom_ptr] : systems) {
    const auto& fom = *fom_ptr;
    const std::string single_label =
        pvc.system_name + (gcd_scope ? " one Stack / GCD" : " one PVC / GPU");
    const std::string node_label = pvc.system_name + " node";

    // miniBUDE (single-device comparison only).  Figure 3 doubles the
    // stack FOM to stand in for a full PVC (§V-B2).
    {
      const double pvc_value = gcd_scope ? *fom.minibude.one_stack
                                         : 2.0 * *fom.minibude.one_stack;
      const double peer_value = *fom_peer.minibude.one_stack;
      const double pvc_peak =
          arch::fma_peak(pvc, Precision::FP32,
                         gcd_scope ? Scope::OneSubdevice : Scope::OneCard);
      const double peer_peak = arch::theoretical_vector_peak(
          peer, Precision::FP32, Scope::OneSubdevice);
      bars.push_back({"miniBUDE", single_label, pvc_value / peer_value,
                      pvc_peak / peer_peak});
    }

    // CloverLeaf.
    {
      const auto pvc_single =
          gcd_scope ? fom.cloverleaf.one_stack : fom.cloverleaf.one_gpu;
      const auto peer_single =
          gcd_scope ? fom_peer.cloverleaf.one_stack : fom_peer.cloverleaf.one_gpu;
      const double pvc_bw = arch::stream_bandwidth(
          pvc, gcd_scope ? Scope::OneSubdevice : Scope::OneCard);
      const double peer_bw_single = peer.card.subdevice.hbm.bandwidth_bps;
      bars.push_back({"CloverLeaf", single_label, ratio(pvc_single, peer_single),
                      pvc_bw / peer_bw_single});
      const double peer_bw_node =
          peer.card.subdevice.hbm.bandwidth_bps * peer.total_subdevices();
      bars.push_back({"CloverLeaf", node_label,
                      ratio(fom.cloverleaf.node, fom_peer.cloverleaf.node),
                      arch::stream_bandwidth(pvc, Scope::FullNode) /
                          peer_bw_node});
    }

    // miniQMC: measured only.
    {
      const auto pvc_single =
          gcd_scope ? fom.miniqmc.one_stack : fom.miniqmc.one_gpu;
      const auto peer_single =
          gcd_scope ? fom_peer.miniqmc.one_stack : fom_peer.miniqmc.one_gpu;
      bars.push_back({"miniQMC", single_label, ratio(pvc_single, peer_single),
                      std::nullopt});
      bars.push_back({"miniQMC", node_label,
                      ratio(fom.miniqmc.node, fom_peer.miniqmc.node),
                      std::nullopt});
    }

    // mini-GAMESS: absent when the peer has no result (MI250).
    if (fom_peer.minigamess.one_gpu.has_value()) {
      const auto pvc_single =
          gcd_scope ? fom.minigamess.one_stack : fom.minigamess.one_gpu;
      const double pvc_dgemm = arch::gemm_rate(
          pvc, Precision::FP64, gcd_scope ? Scope::OneSubdevice : Scope::OneCard);
      const double peer_dgemm_peak = arch::theoretical_vector_peak(
          peer, Precision::FP64, Scope::OneSubdevice);
      bars.push_back({"mini-GAMESS", single_label,
                      ratio(pvc_single, fom_peer.minigamess.one_gpu),
                      pvc_dgemm / peer_dgemm_peak});
      bars.push_back({"mini-GAMESS", node_label,
                      ratio(fom.minigamess.node, fom_peer.minigamess.node),
                      arch::gemm_rate(pvc, Precision::FP64, Scope::FullNode) /
                          (peer_dgemm_peak * peer.total_subdevices())});
    }
  }
  return bars;
}

}  // namespace

std::vector<RelativeBar> figure3_bars(const Table6Column& peer_fom,
                                      const Table6Column& aurora_fom,
                                      const Table6Column& dawn_fom) {
  return versus_bars(arch::jlse_h100(), /*gcd_scope=*/false, peer_fom,
                     aurora_fom, dawn_fom);
}

std::vector<RelativeBar> figure4_bars(const Table6Column& peer_fom,
                                      const Table6Column& aurora_fom,
                                      const Table6Column& dawn_fom) {
  return versus_bars(arch::jlse_mi250(), /*gcd_scope=*/true, peer_fom,
                     aurora_fom, dawn_fom);
}

LatencySeries figure1_system_series(const arch::NodeSpec& node,
                                    bool coalesced) {
  LatencySeries s;
  s.system = node.system_name;
  s.points = micro::measure_latency_curve(
      node, coalesced, micro::default_latency_footprints(node));
  return s;
}

}  // namespace pvc::report
