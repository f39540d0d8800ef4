#pragma once
// The benchmark's workloads: which registered benches each runs (its
// ops), the options generated for them from the workload seed, and the
// simulated machines its set-up constructs.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_entry.hpp"

namespace perfbench {

/// One op: an in-process call of a registered bench at its defaults plus
/// the generated options in `args` (only system=, sim_ranks= and chaos=;
/// the runner adds threads= and csv=).
struct Op {
  std::string id;  ///< stable name, also the oracle corpus file stem
  const pvcbench::BenchEntry* entry = nullptr;
  std::vector<std::string> args;
  bool takes_threads = true;  ///< the bench accepts threads=
  bool seeded = false;        ///< args depend on the workload seed
  bool cluster = false;       ///< cluster DES bench (serial oracle: shards=0)
};

struct Workload {
  std::string name;
  std::vector<Op> ops;
  /// Constructs the workload's simulated machines once (one set-up
  /// sample); set-up time is the median over repeated calls.
  std::function<void()> build_machines;
};

/// The seed whose seeded-op oracles are recorded in the corpus.
inline constexpr std::uint64_t kDefaultSeed = 0;

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; throws std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Value of `key=` in an op's args, or "" when absent.
[[nodiscard]] std::string op_arg(const Op& op, const std::string& key);

/// Generates the workloads for `seeds` seeds and checks every chaos=
/// spec: it parses with fault::FaultPlan::parse and names only nodes and
/// NICs that exist at every size its op instantiates.  Returns the
/// number of specs checked; throws on the first bad one.
std::size_t self_test_fault_specs(std::uint64_t seeds);

}  // namespace perfbench
