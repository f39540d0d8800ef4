#pragma once
// Sweep-service requests and their content-hashed cache identity
// (docs/SERVING.md).
//
// A request names one bench binary and the key=value options to run it
// with.  Because every bench is byte-reproducible at any thread
// count, the response is a pure function of
//
//     (bench name, sorted option map, seed, build type)
//
// and two requests with the same canonical form may legally share one
// cached response.  canonical_form() renders exactly that tuple one
// `key=value` line at a time (options sorted ascending, so JSON member
// order never matters) and content_hash() folds it through two
// independent FNV-1a streams into a 32-hex-digit key.  The build type
// is part of the identity because Release and Debug binaries of a
// floating-point model are not bit-comparable.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pvc::serve {

/// One parsed sweep request.
struct SweepRequest {
  std::string bench;                           ///< bench entry name
  std::map<std::string, std::string> options;  ///< key=value, sorted by map
  std::uint64_t seed = 0;                      ///< cache-identity seed salt
};

/// Build type baked into this library ("Release", "RelWithDebInfo",
/// ...); part of every cache key.
[[nodiscard]] const std::string& serve_build_type();

/// Parses the request JSON: {"bench":"<name>"[,"config":{...}]
/// [,"seed":<uint>]}.  Config values may be strings, numbers (kept as
/// their source lexeme) or booleans.  Unknown top-level members and the
/// reserved option keys (`csv`, `metrics` — the service injects its own
/// capture) are rejected with ErrorCode::InvalidArgument.
[[nodiscard]] SweepRequest parse_request(const std::string& json);

/// The canonical text the cache key is derived from:
///   bench=<name>\nbuild=<type>\nseed=<seed>\n<k>=<v>\n...  (sorted)
[[nodiscard]] std::string canonical_form(const SweepRequest& request);

/// 128-bit content hash of canonical_form(), rendered as 32 lowercase
/// hex digits.  Stable across processes and runs.
[[nodiscard]] std::string content_hash(const SweepRequest& request);

/// The argv tail handed to the bench entry: every option as `k=v` in
/// sorted order plus the injected `csv=-` capture sentinel
/// (serve/capture.hpp).
[[nodiscard]] std::vector<std::string> bench_args(const SweepRequest& request);

}  // namespace pvc::serve
