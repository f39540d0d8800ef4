#pragma once
// In-process bench entry registry: runs any table/figure bench by name
// inside the calling process (tests/test_bench_options.cpp, perfbench/).
//
// Every table/figure bench keeps its own `run(int argc, char** argv)`
// (with its Config::from_args parse and require_known_keys list — the
// doc-consistency tests depend on that staying per-bench), but instead
// of hand-writing `int main`, it closes with `PVCBENCH_MAIN(name)`.
// The macro emits two things:
//  * a named forwarder `pvcbench::entries::run_<name>` that the
//    registry in bench_entry.cpp can reference from another translation
//    unit (the bench's own run() lives in an anonymous namespace);
//  * the standard guarded `main`, suppressed when the source is
//    compiled with -DPVCBENCH_NO_MAIN into the pvc_bench_suite library
//    that tests and perfbench/ link.
//
// The registry is a hand-maintained table rather than static-init
// self-registration: a static library would silently drop unreferenced
// registrar objects at link time, and a bench that vanishes from the
// registry is exactly the failure mode we want to be loud.

#include <string>
#include <vector>

#include "bench_common.hpp"

namespace pvcbench {

/// One registered bench: its binary name and the entry point (same
/// signature as the per-binary run()).
struct BenchEntry {
  const char* name;
  int (*run)(int argc, char** argv);
};

/// Every table/figure bench, in README table order.
[[nodiscard]] const std::vector<BenchEntry>& bench_entries();

/// Looks up an entry by name; nullptr when unknown.
[[nodiscard]] const BenchEntry* find_bench(const std::string& name);

/// Runs an entry with a synthesized argv (`entry.name` becomes argv[0],
/// `args` the option tail).  Unlike the standalone binary there is no
/// exception guard: pvc::Error propagates so the caller sees the typed
/// error instead of a bare exit code.
[[nodiscard]] int run_bench_entry(const BenchEntry& entry,
                                  const std::vector<std::string>& args);

namespace entries {}  // named forwarders land here (PVCBENCH_MAIN)

}  // namespace pvcbench

// NOLINTBEGIN(bugprone-macro-parentheses)
#ifdef PVCBENCH_NO_MAIN
#define PVCBENCH_MAIN(name)                                              \
  namespace pvcbench::entries {                                          \
  int run_##name(int argc, char** argv) { return run(argc, argv); }      \
  }                                                                      \
  static_assert(true, "")
#else
#define PVCBENCH_MAIN(name)                                              \
  namespace pvcbench::entries {                                          \
  int run_##name(int argc, char** argv) { return run(argc, argv); }      \
  }                                                                      \
  int main(int argc, char** argv) {                                      \
    return pvcbench::guarded_main(#name, argc, argv,                     \
                                  pvcbench::entries::run_##name);        \
  }                                                                      \
  static_assert(true, "")
#endif
// NOLINTEND(bugprone-macro-parentheses)
