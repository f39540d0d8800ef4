// Option validation of the bench binaries, driven in-process through the
// bench registry (bench/bench_entry.hpp): malformed or retired options
// must fail with a typed error that names the option, never run with a
// silently different meaning.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_entry.hpp"
#include "core/error.hpp"

namespace {

/// Runs `bench` with `args` and returns the pvc::Error it throws; fails
/// the test when the run completes instead.
pvc::Error run_expecting_error(const char* bench,
                               const std::vector<std::string>& args) {
  const pvcbench::BenchEntry* entry = pvcbench::find_bench(bench);
  if (entry == nullptr) {
    ADD_FAILURE() << bench << " is not registered";
  } else {
    try {
      (void)pvcbench::run_bench_entry(*entry, args);
      ADD_FAILURE() << bench << " accepted the options";
    } catch (const pvc::Error& e) {
      return e;
    }
  }
  return pvc::Error("no error", std::source_location::current());
}

TEST(BenchOptions, NegativeSimRanksIsATypedError) {
  // A negative DES cap would price every point with the model, silently
  // turning the discrete-event runs off.
  for (const char* bench : {"scaling_multinode", "resilience_sweep"}) {
    const pvc::Error e = run_expecting_error(bench, {"sim_ranks=-5"});
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << bench;
    EXPECT_NE(std::string(e.what()).find("sim_ranks"), std::string::npos)
        << e.what();
  }
}

TEST(BenchOptions, RetiredShardOptionsAreUnknown) {
  // The cluster benches have one engine, so no option selects it.
  // Harnesses that still pass `shards=` key their fallback to plain
  // `threads=1` on this exact text.
  for (const char* bench : {"scaling_multinode", "resilience_sweep"}) {
    EXPECT_NE(std::string(run_expecting_error(bench, {"shards=0"}).what())
                  .find("unknown option 'shards'"),
              std::string::npos)
        << bench;
    EXPECT_NE(
        std::string(run_expecting_error(bench, {"shard_mode=auto"}).what())
            .find("unknown option 'shard_mode'"),
        std::string::npos)
        << bench;
  }
}

}  // namespace
