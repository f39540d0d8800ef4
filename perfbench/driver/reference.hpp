#pragma once
// paper_err_pct: how far the ops' model cells sit from their published
// references, parsed from the ops' CSV bytes.

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct ReferenceError {
  double mean_abs_pct = 0.0;  ///< mean |model/reference - 1| x 100
  std::size_t cells = 0;      ///< cells compared
};

/// `csvs[i]` is op i's CSV.  References: src/micro/paper_reference
/// Tables II, III and VI, the paper's §IV-B6 Figure-1 latency ratios,
/// and, for resilience_sweep (no published measurement), Daly's
/// closed-form time-to-solution against the bench's Monte-Carlo column.
[[nodiscard]] ReferenceError reference_error(
    const std::vector<Op>& ops, const std::vector<std::string>& csvs);

}  // namespace perfbench
