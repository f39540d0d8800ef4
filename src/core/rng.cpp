#include "core/rng.hpp"

#include "core/error.hpp"

namespace pvc {

void sattolo_cycle(Rng& rng, std::uint32_t* indices, std::size_t n) {
  ensure(indices != nullptr && n >= 1, "sattolo_cycle: need at least one slot");
  for (std::size_t i = 0; i < n; ++i) {
    indices[i] = static_cast<std::uint32_t>(i);
  }
  // Sattolo: swap with a strictly-earlier element, guaranteeing one cycle.
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = rng.uniform_index(i);
    const std::uint32_t tmp = indices[i];
    indices[i] = indices[j];
    indices[j] = tmp;
  }
}

}  // namespace pvc
