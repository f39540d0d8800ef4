// Regenerates the paper's Table II: microbenchmark results for Aurora and
// Dawn at one-stack / one-PVC / full-node scope, with the paper's
// published values and the model-vs-paper delta in every cell.  Also
// prints the §IV-B1 scaling-efficiency claims (experiment E9).
//
// Usage: table2_microbench [csv=<path>]

#include <cstdio>
#include <iostream>

#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "bench_entry.hpp"
#include "core/table.hpp"
#include "micro/microbench.hpp"
#include "micro/paper_reference.hpp"
#include "micro/table_results.hpp"

namespace {

using pvc::micro::ScopeTriple;

struct Row {
  const char* label;
  ScopeTriple model;
  ScopeTriple paper;
  bool is_bandwidth;
  const char* unit;  // for format_flops
};

void print_system(const std::string& name,
                  const pvc::micro::Table2Reference& model,
                  const pvc::micro::Table2Reference& paper,
                  pvc::CsvWriter& csv) {
  const Row rows[] = {
      {"Double Precision Peak Flops", model.fp64_peak, paper.fp64_peak, false,
       "Flop/s"},
      {"Single Precision Peak Flops", model.fp32_peak, paper.fp32_peak, false,
       "Flop/s"},
      {"Memory Bandwidth (triad)", model.stream_bw, paper.stream_bw, true,
       ""},
      {"PCIe Unidirectional Bandwidth (H2D)", model.pcie_h2d, paper.pcie_h2d,
       true, ""},
      {"PCIe Unidirectional Bandwidth (D2H)", model.pcie_d2h, paper.pcie_d2h,
       true, ""},
      {"PCIe Bidirectional Bandwidth", model.pcie_bidir, paper.pcie_bidir,
       true, ""},
      {"DGEMM", model.dgemm, paper.dgemm, false, "Flop/s"},
      {"SGEMM", model.sgemm, paper.sgemm, false, "Flop/s"},
      {"HGEMM", model.hgemm, paper.hgemm, false, "Flop/s"},
      {"BF16GEMM", model.bf16gemm, paper.bf16gemm, false, "Flop/s"},
      {"TF32GEMM", model.tf32gemm, paper.tf32gemm, false, "Flop/s"},
      {"I8GEMM", model.i8gemm, paper.i8gemm, false, "Iop/s"},
      {"Single-precision FFT C2C 1D", model.fft_1d, paper.fft_1d, false,
       "Flop/s"},
      {"Single-precision FFT C2C 2D", model.fft_2d, paper.fft_2d, false,
       "Flop/s"},
  };

  // The paper keeps the best of 3 runs (§IV-A).  The model runs each
  // cell once: it is deterministic, so three runs would agree.
  pvc::Table table("Table II reproduction — " + name +
                   " (model vs paper, one deterministic run)");
  table.set_header({"Microbenchmark", "One Stack", "One PVC",
                    name == "Aurora" ? "Six PVC" : "Four PVC"});
  for (const auto& row : rows) {
    const auto cell = [&](double m, double p) {
      return row.is_bandwidth ? pvcbench::cell_bw_vs_paper(m, p)
                              : pvcbench::cell_vs_paper(m, p, row.unit);
    };
    table.add_row({row.label, cell(row.model.one_stack, row.paper.one_stack),
                   cell(row.model.one_card, row.paper.one_card),
                   cell(row.model.full_node, row.paper.full_node)});
    csv.add_row({name, row.label,
                 pvc::format_value(row.model.one_stack, 6),
                 pvc::format_value(row.model.one_card, 6),
                 pvc::format_value(row.model.full_node, 6),
                 pvc::format_value(row.paper.one_stack, 6),
                 pvc::format_value(row.paper.one_card, 6),
                 pvc::format_value(row.paper.full_node, 6)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void print_scaling_claims(const pvc::micro::Table2Reference& aurora,
                          const pvc::micro::Table2Reference& dawn) {
  std::printf("Scaling efficiencies (paper §IV-B1/B2):\n");
  std::printf(
      "  Aurora FP64 two-stack: %.0f%% (paper 97%%), full node: %.0f%% "
      "(paper 95%%)\n",
      100.0 * aurora.fp64_peak.one_card / (2.0 * aurora.fp64_peak.one_stack),
      100.0 * aurora.fp64_peak.full_node /
          (12.0 * aurora.fp64_peak.one_stack));
  std::printf(
      "  Dawn   FP64 two-stack: %.0f%% (paper 92%%), full node: %.0f%% "
      "(paper 88%%)\n",
      100.0 * dawn.fp64_peak.one_card / (2.0 * dawn.fp64_peak.one_stack),
      100.0 * dawn.fp64_peak.full_node / (8.0 * dawn.fp64_peak.one_stack));
  std::printf(
      "  Aurora FP32/FP64 single-stack ratio: %.2fx (paper 1.3x, TDP "
      "down-clock)\n",
      aurora.fp32_peak.one_stack / aurora.fp64_peak.one_stack);
  std::printf(
      "  Aurora full-node D2H per-rank PCIe efficiency: %.0f%% (paper "
      "40%%)\n\n",
      100.0 * aurora.pcie_d2h.full_node /
          (12.0 * aurora.pcie_d2h.one_stack));
}

// Three-point pointer-chase probe: one footprint per cache regime.
// Drives the cache-hierarchy model (so a `metrics=` dump carries cache
// hit/miss counters); the full Figure 1 curve lives in fig1_latency.
void print_latency_spot_check(const pvc::arch::NodeSpec& node) {
  const std::vector<double> probes = {64.0 * pvc::KiB, 16.0 * pvc::MiB,
                                      512.0 * pvc::MiB};
  const auto curve =
      pvc::micro::measure_latency_curve(node, /*coalesced=*/true, probes);
  std::printf("Memory latency spot check — %s (coalesced chase):\n",
              node.system_name.c_str());
  for (const auto& point : curve) {
    std::printf("  %10s footprint: %7.1f cycles\n",
                pvc::format_bytes_si(point.footprint_bytes).c_str(),
                point.latency_cycles);
  }
  std::printf("\n");
}

}  // namespace

namespace {

int run(int argc, char** argv) {
  const auto config = pvc::Config::from_args(argc, argv);
  pvcbench::require_known_keys(config, {"csv", "metrics"});
  pvc::CsvWriter csv;
  csv.set_header({"system", "benchmark", "model_one_stack", "model_one_card",
                  "model_full_node", "paper_one_stack", "paper_one_card",
                  "paper_full_node"});

  const auto aurora_model = pvc::micro::compute_table2(pvc::arch::aurora());
  const auto dawn_model = pvc::micro::compute_table2(pvc::arch::dawn());
  print_system("Aurora", aurora_model, pvc::micro::table2_aurora(), csv);
  print_system("Dawn", dawn_model, pvc::micro::table2_dawn(), csv);
  print_scaling_claims(aurora_model, dawn_model);
  print_latency_spot_check(pvc::arch::aurora());
  pvcbench::maybe_write_csv(config, csv);
  pvcbench::maybe_write_metrics(config);
  return 0;
}

}  // namespace

PVCBENCH_MAIN(table2_microbench);
