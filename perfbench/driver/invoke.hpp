#pragma once
// Running one op in-process and reading back its csv= bytes, and the
// serial oracle those bytes are checked against.

#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct OpResult {
  bool ok = false;       ///< returned 0 without throwing and wrote a CSV
  double seconds = 0.0;  ///< wall time of the bench call alone
  std::string csv;       ///< the csv= file's bytes
  std::string error;     ///< what went wrong when !ok
  std::uint64_t span = 0;  ///< "bench.entry" span id when traced
};

/// Calls `op` with `extra` options appended to its args and csv=<csv_path>.
/// With a recorder, the call is wrapped in a "bench.entry" span.
[[nodiscard]] OpResult invoke(const Op& op,
                              const std::vector<std::string>& extra,
                              const std::string& csv_path,
                              SpanRecorder* recorder = nullptr,
                              int op_index = -1);

/// The serial oracle's CSV for `op`: threads=1, plus shards=0 on the
/// cluster benches for as long as they accept that option.  Throws when
/// the op fails.
[[nodiscard]] std::string serial_oracle(const Op& op,
                                        const std::string& csv_path);

/// Corpus file of `op` under `dir`.
[[nodiscard]] std::string corpus_path(const std::string& dir, const Op& op);

[[nodiscard]] std::optional<std::string> read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);

}  // namespace perfbench
