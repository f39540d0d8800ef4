#pragma once
// Stream triad: a[i] = b[i] + scalar * c[i]  (two loads, one store).
//
// The paper's device-memory-bandwidth microbenchmark (§IV-A2), described
// by its byte traffic: micro::measure_stream_bandwidth prices these
// bytes on a modelled subdevice.  triad() runs the same loop on the host;
// only tests call it.

#include <cstddef>
#include <span>

namespace pvc::kernels {

/// Executes the triad; all spans must be equal-sized.
void triad(std::span<double> a, std::span<const double> b,
           std::span<const double> c, double scalar);
void triad(std::span<float> a, std::span<const float> b,
           std::span<const float> c, float scalar);

/// Bytes moved by one triad pass over arrays of `n` elements of
/// `element_bytes` each: two loads plus one store per element.
[[nodiscard]] constexpr double triad_bytes(std::size_t n,
                                           std::size_t element_bytes) {
  return 3.0 * static_cast<double>(n) * static_cast<double>(element_bytes);
}

/// The paper's triad working set: 192 MiB (LLC per stack) x 4 (STREAM
/// factor) per array of doubles => 805 MB per array.
[[nodiscard]] constexpr std::size_t paper_triad_elements() {
  return (192ull * 1024 * 1024 * 4) / 8;
}

}  // namespace pvc::kernels
