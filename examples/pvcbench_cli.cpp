// pvcbench_cli: one entry point over the whole library — query systems,
// run any microbenchmark, price a custom kernel, or time a transfer,
// from the command line.
//
//   ./pvcbench_cli systems
//   ./pvcbench_cli peak   system=dawn precision=fp64 scope=node
//   ./pvcbench_cli stream system=aurora scope=stack
//   ./pvcbench_cli gemm   system=h100 precision=fp16
//   ./pvcbench_cli fft    system=aurora dims=2
//   ./pvcbench_cli xfer   system=aurora src=0 dst=4 mb=500
//   ./pvcbench_cli kernel system=aurora flops=1e13 bytes=1e10
//                   precision=fp32 kind=mixed

#include <cstdio>
#include <string>

#include "arch/peaks.hpp"
#include "arch/systems.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/units.hpp"
#include "micro/microbench.hpp"
#include "runtime/kernel.hpp"
#include "runtime/node_sim.hpp"

namespace {

using namespace pvc;

arch::Scope parse_scope(const Config& config) {
  const std::string s = config.get_string("scope", "stack");
  if (s == "stack" || s == "subdevice" || s == "gcd") {
    return arch::Scope::OneSubdevice;
  }
  if (s == "card" || s == "gpu") {
    return arch::Scope::OneCard;
  }
  if (s == "node") {
    return arch::Scope::FullNode;
  }
  reject_option("scope", s, "is not a scope (stack, card, node)");
}

arch::Precision parse_precision(const Config& config) {
  const std::string p = config.get_string("precision", "fp64");
  if (p == "fp64") return arch::Precision::FP64;
  if (p == "fp32") return arch::Precision::FP32;
  if (p == "fp16") return arch::Precision::FP16;
  if (p == "bf16") return arch::Precision::BF16;
  if (p == "tf32") return arch::Precision::TF32;
  if (p == "i8") return arch::Precision::I8;
  reject_option("precision", p,
                "is not a precision (fp64, fp32, fp16, bf16, tf32, i8)");
}

/// Refuses `precision=` before anything is priced when `ops_per_clock`,
/// the rate of the pipeline the command prices it on, is zero on `node`.
void require_rate(const Config& config, const arch::NodeSpec& node,
                  double ops_per_clock) {
  if (ops_per_clock <= 0.0) {
    reject_option("precision", config.get_string("precision", "fp64"),
                  "is not supported on " + node.system_name);
  }
}

arch::WorkloadKind parse_kind(const Config& config) {
  const std::string k = config.get_string("kind", "mixed");
  if (k == "fp64-fma") return arch::WorkloadKind::Fp64Fma;
  if (k == "fp32-fma") return arch::WorkloadKind::Fp32Fma;
  if (k == "stream") return arch::WorkloadKind::Stream;
  if (k == "fft") return arch::WorkloadKind::Fft;
  if (k == "mixed") return arch::WorkloadKind::Mixed;
  reject_option(
      "kind", k,
      "is not a workload kind (fp64-fma, fp32-fma, stream, fft, mixed)");
}

int usage() {
  std::printf(
      "usage: pvcbench_cli <command> [key=value...]\n"
      "  systems                         list the modelled systems\n"
      "  peak   system= precision= scope=   FMA-chain peak flops\n"
      "  stream system= scope=              triad bandwidth\n"
      "  gemm   system= precision= scope=   GEMM rate\n"
      "  fft    system= dims=1|2 scope=      batched C2C FFT rate\n"
      "  xfer   system= src= dst= mb=        device-to-device transfer\n"
      "         (src=-1 for host-to-device)\n"
      "  kernel system= flops= bytes= precision= kind=  price a kernel\n");
  return 2;
}

int run(int argc, char** argv) {
  const std::string command = argv[1];
  const auto config = Config::from_args(argc - 1, argv + 1);
  if (command == "systems") {
    pvcbench::require_known_keys(config, {});
    for (const auto& node : arch::all_systems()) {
      std::printf("%-12s %d x %-34s (%2d ranks)\n", node.system_name.c_str(),
                  node.card_count, node.card.name.c_str(),
                  node.total_subdevices());
    }
    std::printf("%-12s 4 x %-34s ( 8 ranks)\n", "Frontier",
                "AMD Instinct MI250X");
    return 0;
  }

  if (command == "peak") {
    pvcbench::require_known_keys(config, {"system", "precision", "scope"});
    const auto node = pvcbench::system_from_config(config, "aurora");
    const auto scope = parse_scope(config);
    const auto p = parse_precision(config);
    if (p != arch::Precision::FP64 && p != arch::Precision::FP32) {
      reject_option("precision", config.get_string("precision", "fp64"),
                    "is not an FMA-chain precision (fp64, fp32)");
    }
    std::printf("%s %s FMA peak (%s): %s\n", node.system_name.c_str(),
                arch::precision_name(p).c_str(),
                arch::scope_name(scope).c_str(),
                format_flops(micro::measure_peak_flops(node, p, scope))
                    .c_str());
    return 0;
  }
  if (command == "stream") {
    pvcbench::require_known_keys(config, {"system", "scope"});
    const auto node = pvcbench::system_from_config(config, "aurora");
    const auto scope = parse_scope(config);
    std::printf("%s triad bandwidth (%s): %s\n", node.system_name.c_str(),
                arch::scope_name(scope).c_str(),
                format_bandwidth(micro::measure_stream_bandwidth(node, scope))
                    .c_str());
    return 0;
  }
  if (command == "gemm") {
    pvcbench::require_known_keys(config, {"system", "precision", "scope"});
    const auto node = pvcbench::system_from_config(config, "aurora");
    const auto scope = parse_scope(config);
    const auto p = parse_precision(config);
    require_rate(config, node, node.card.subdevice.gemm_peak(p, 1.0));
    std::printf("%s %s rate (%s): %s\n", node.system_name.c_str(),
                arch::gemm_name(p).c_str(), arch::scope_name(scope).c_str(),
                format_flops(micro::measure_gemm(node, p, scope),
                             arch::is_integer(p) ? "Iop/s" : "Flop/s")
                    .c_str());
    return 0;
  }
  if (command == "fft") {
    pvcbench::require_known_keys(config, {"system", "dims", "scope"});
    const auto node = pvcbench::system_from_config(config, "aurora");
    const auto scope = parse_scope(config);
    const long dims = config.get_int("dims", 1);
    if (dims != 1 && dims != 2) {
      reject_option("dims", std::to_string(dims), "is neither 1 nor 2");
    }
    const bool two_d = dims == 2;
    std::printf("%s FFT C2C %dD rate (%s): %s\n", node.system_name.c_str(),
                two_d ? 2 : 1, arch::scope_name(scope).c_str(),
                format_flops(micro::measure_fft(node, two_d, scope)).c_str());
    return 0;
  }
  if (command == "xfer") {
    pvcbench::require_known_keys(config, {"system", "src", "dst", "mb"});
    const auto node = pvcbench::system_from_config(config, "aurora");
    const long devices = node.total_subdevices();
    const long src_option = config.get_int("src", 0);
    const long dst_option = config.get_int("dst", 1);
    const std::string range = " (0.." + std::to_string(devices - 1) +
                              " on " + node.system_name + ")";
    if (src_option < -1 || src_option >= devices) {
      reject_option("src", std::to_string(src_option),
                    "is neither the host (-1) nor a device" + range);
    }
    if (dst_option < 0 || dst_option >= devices) {
      reject_option("dst", std::to_string(dst_option),
                    "is not a device" + range);
    }
    const int src = static_cast<int>(src_option);
    const int dst = static_cast<int>(dst_option);
    const double bytes = config.get_double("mb", 500.0) * MB;
    rt::NodeSim sim(node);
    double done = -1.0;
    if (src < 0) {
      sim.transfer_h2d(dst, bytes, [&](sim::Time t) { done = t; });
    } else {
      sim.transfer_d2d(src, dst, bytes, [&](sim::Time t) { done = t; });
    }
    sim.run();
    const std::string src_name =
        src < 0 ? "host" : "dev" + std::to_string(src);
    std::printf("%s transfer %s -> dev%d, %s: %s (%s)\n",
                node.system_name.c_str(), src_name.c_str(), dst,
                format_bytes_si(bytes).c_str(), format_duration(done).c_str(),
                format_bandwidth(bytes / done).c_str());
    return 0;
  }
  if (command == "kernel") {
    pvcbench::require_known_keys(
        config, {"system", "flops", "bytes", "precision", "kind", "scope"});
    const auto node = pvcbench::system_from_config(config, "aurora");
    const auto scope = parse_scope(config);
    rt::KernelDesc k;
    k.flops = config.get_double("flops", 0.0);
    k.bytes = config.get_double("bytes", 0.0);
    k.precision = parse_precision(config);
    k.kind = parse_kind(config);
    // The kernel runs on the vector pipeline, whose rate prices its flops.
    if (k.flops > 0.0) {
      require_rate(config, node,
                   node.card.subdevice.vector_rates.at(k.precision));
    }
    const double t = rt::kernel_duration(node, k, arch::activity(node, scope));
    std::printf("%s kernel (%.3g flops, %.3g bytes): %s",
                node.system_name.c_str(), k.flops, k.bytes,
                format_duration(t).c_str());
    if (k.flops > 0.0) {
      std::printf("  (%s)", format_flops(k.flops / t).c_str());
    }
    std::printf("\n");
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  return pvcbench::guarded_main("pvcbench_cli", argc, argv, run);
}
