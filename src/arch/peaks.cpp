#include "arch/peaks.hpp"

#include "core/error.hpp"
#include "sim/power.hpp"

namespace pvc::arch {

std::string scope_name(Scope s) {
  switch (s) {
    case Scope::OneSubdevice:
      return "One Stack";
    case Scope::OneCard:
      return "One GPU";
    case Scope::FullNode:
      return "Full Node";
  }
  return "?";
}

Activity activity(const NodeSpec& node, Scope scope) {
  switch (scope) {
    case Scope::OneSubdevice:
      return Activity{1, 1};
    case Scope::OneCard:
      return Activity{node.card.subdevice_count, 1};
    case Scope::FullNode:
      return Activity{node.card.subdevice_count, node.card_count};
  }
  unreachable("bad scope");
}

int active_subdevices(const NodeSpec& node, Scope scope) {
  return activity(node, scope).total();
}

double governed_frequency(const NodeSpec& node, WorkloadKind kind,
                          Scope scope) {
  const sim::PowerGovernor governor(node.power);
  const Activity act = activity(node, scope);
  return governor.operating_frequency(node.calib.dynamic_power(kind),
                                      act.stacks_per_card, act.cards);
}

double fma_peak(const NodeSpec& node, Precision p, Scope scope) {
  ensure(p == Precision::FP64 || p == Precision::FP32,
         "fma_peak: only FP64/FP32 FMA chains are benchmarked");
  const WorkloadKind kind =
      p == Precision::FP64 ? WorkloadKind::Fp64Fma : WorkloadKind::Fp32Fma;
  const double f = governed_frequency(node, kind, scope);
  const double per_subdevice =
      node.card.subdevice.vector_peak(p, f) * kPaperFmaEfficiency;
  return per_subdevice * active_subdevices(node, scope);
}

double theoretical_vector_peak(const NodeSpec& node, Precision p,
                               Scope scope) {
  const double per_subdevice =
      node.card.subdevice.vector_peak(p, node.card.subdevice.f_max_hz);
  return per_subdevice * active_subdevices(node, scope);
}

double stream_bandwidth(const NodeSpec& node, Scope scope) {
  return subdevice_stream_bandwidth(node) * active_subdevices(node, scope);
}

double subdevice_stream_bandwidth(const NodeSpec& node) {
  return node.card.subdevice.hbm.bandwidth_bps * node.calib.stream_efficiency;
}

double gemm_rate(const NodeSpec& node, Precision p, Scope scope) {
  const WorkloadKind kind = gemm_workload(p);
  const double f = governed_frequency(node, kind, scope);
  const double pipeline_peak = node.card.subdevice.gemm_peak(p, f);
  ensure(pipeline_peak > 0.0, [&] {
    return "gemm_rate: precision unsupported on " + node.system_name;
  });
  const double per_subdevice = pipeline_peak * node.calib.gemm_efficiency(p);
  return per_subdevice * active_subdevices(node, scope);
}

PowerReport power_report(const NodeSpec& node, WorkloadKind kind,
                         Scope scope) {
  const sim::PowerGovernor governor(node.power);
  const Activity act = activity(node, scope);
  const double dyn = node.calib.dynamic_power(kind);
  PowerReport report;
  report.frequency_hz =
      governor.operating_frequency(dyn, act.stacks_per_card, act.cards);
  report.per_stack_w = governor.stack_power(dyn, report.frequency_hz);
  report.total_w = report.per_stack_w * act.total();
  report.stack_cap_w = node.power.stack_cap_w;
  report.card_cap_w = node.power.card_cap_w;
  report.node_cap_w = node.power.node_cap_w;
  return report;
}

}  // namespace pvc::arch
