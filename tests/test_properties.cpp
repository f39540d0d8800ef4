// Property-based sweeps: exhaustive and randomized invariants across the
// numeric substrate and the simulator.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "blas/gemm.hpp"
#include "core/rng.hpp"
#include "fft/fft.hpp"
#include "kernels/narrow_float.hpp"
#include "sim/cache_model.hpp"
#include "sim/engine.hpp"
#include "sim/flow_network.hpp"

namespace pvc {
namespace {

// --- half precision: exhaustive over all 65536 encodings ----------------------

TEST(HalfExhaustive, DecodeEncodeIsIdentityForAllPatterns) {
  // Property: to_float then from_float reproduces every half bit pattern
  // (NaNs may canonicalize, so compare NaN-ness instead of bits there).
  int mismatches = 0;
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    kernels::half_t h;
    h.bits = static_cast<std::uint16_t>(bits);
    const float f = h.to_float();
    const kernels::half_t back = kernels::half_t::from_float(f);
    if (std::isnan(f)) {
      const bool back_is_nan = ((back.bits >> 10) & 0x1f) == 0x1f &&
                               (back.bits & 0x3ff) != 0;
      if (!back_is_nan) {
        ++mismatches;
      }
    } else if (back.bits != h.bits) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(HalfExhaustive, EncodingIsMonotoneOnFiniteRange) {
  // Property: larger floats never encode to smaller halves (away from
  // NaN), checked over a dense sample of the finite range.
  float prev_value = -65504.0f;
  kernels::half_t prev = kernels::half_t::from_float(prev_value);
  for (int step = 1; step <= 4000; ++step) {
    const float v = -65504.0f + 2.0f * 65504.0f *
                                    (static_cast<float>(step) / 4000.0f);
    const kernels::half_t h = kernels::half_t::from_float(v);
    EXPECT_GE(h.to_float(), prev.to_float()) << "at " << v;
    prev = h;
  }
}

TEST(Tf32Property, RoundTripIdempotent) {
  Rng rng(77);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1e6, 1e6));
    const float once = kernels::round_trip<kernels::tf32_t>(v);
    const float twice = kernels::round_trip<kernels::tf32_t>(once);
    EXPECT_EQ(once, twice);  // quantization is a projection
  }
}

TEST(Bf16Property, RoundTripIdempotentAndBounded) {
  Rng rng(78);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1e4, 1e4));
    const float once = kernels::round_trip<kernels::bfloat16_t>(v);
    EXPECT_EQ(once, kernels::round_trip<kernels::bfloat16_t>(once));
    if (v != 0.0f) {
      EXPECT_LT(std::fabs(once - v) / std::fabs(v), 0.005f);  // ~8 bits
    }
  }
}

// --- cache geometry sweep -------------------------------------------------------

struct CacheGeometry {
  std::uint64_t size;
  std::uint64_t assoc;
};

class CacheGeometrySweep : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometrySweep, CapacityBoundaryBehaviour) {
  const auto [size, assoc] = GetParam();
  sim::CacheHierarchy cache({sim::CacheLevelSpec{"L", size, 64, assoc, 10.0}},
                            100.0);
  const std::uint64_t lines = size / 64;
  // Fill exactly to capacity with a cyclic scan: second pass must hit.
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < lines; ++l) {
      cache.access(l * 64);
    }
  }
  EXPECT_EQ(cache.level_stats(0).hits, lines);
  // Doubling the footprint with cyclic LRU scans thrashes every set.
  cache.reset();
  for (std::uint64_t pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < 2 * lines; ++l) {
      cache.access(l * 64);
    }
  }
  EXPECT_EQ(cache.level_stats(0).hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometrySweep,
                         ::testing::Values(CacheGeometry{4096, 1},
                                           CacheGeometry{4096, 4},
                                           CacheGeometry{16384, 2},
                                           CacheGeometry{16384, 16},
                                           CacheGeometry{65536, 8}));

TEST(CacheProperty, LatencyAlwaysOneOfTheLevelValues) {
  sim::CacheHierarchy cache(
      {
          sim::CacheLevelSpec{"L1", 8192, 64, 2, 11.0},
          sim::CacheLevelSpec{"L2", 65536, 64, 8, 97.0},
      },
      901.0);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const double latency = cache.access(rng.uniform_index(1 << 22));
    EXPECT_TRUE(latency == 11.0 || latency == 97.0 || latency == 901.0)
        << latency;
  }
}

// --- flow network conservation ----------------------------------------------------

TEST(FlowProperty, BytesDeliveredEqualsBytesRequested) {
  // Property: across random topologies, each flow completes after
  // exactly its requested volume — completion time x average rate
  // integrates to the byte count (checked via per-flow completion).
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    sim::Engine engine;
    sim::FlowNetwork net(engine);
    const int n_links = 1 + static_cast<int>(rng.uniform_index(4));
    std::vector<sim::LinkId> links;
    for (int l = 0; l < n_links; ++l) {
      links.push_back(
          net.add_link(sim::LinkClass::Other, 50.0 + rng.uniform(0.0, 200.0)));
    }
    // Single-link sanity flow with exact expectation, plus noise flows.
    const double cap = net.link(links[0]).capacity_bps;
    const int noise_flows = static_cast<int>(rng.uniform_index(5));
    for (int f = 0; f < noise_flows; ++f) {
      net.start_flow(std::array{links[rng.uniform_index(
                         static_cast<std::uint64_t>(n_links))]},
                     rng.uniform(10.0, 1000.0), rng.uniform(0.0, 1.0), {});
    }
    double solo_done = -1.0;
    const double bytes = 100.0 + rng.uniform(0.0, 400.0);
    // A flow on a private link sees no contention: exact time = bytes/cap.
    const auto solo = net.add_link(sim::LinkClass::Other, cap);
    net.start_flow(std::array{solo}, bytes, 0.0,
                   [&](sim::Time t) { solo_done = t; });
    engine.run();
    EXPECT_NEAR(solo_done, bytes / cap, 1e-9) << "trial " << trial;
  }
}

TEST(EngineProperty, MonotoneTimeUnderRandomScheduling) {
  Rng rng(13);
  sim::Engine engine;
  std::vector<double> fire_times;
  std::function<void(int)> spawn = [&](int depth) {
    fire_times.push_back(engine.now());
    if (depth > 0) {
      const int children = 1 + static_cast<int>(rng.uniform_index(2));
      for (int c = 0; c < children; ++c) {
        engine.schedule_after(rng.uniform(0.0, 2.0),
                              [&, depth] { spawn(depth - 1); });
      }
    }
  };
  engine.schedule_at(0.5, [&] { spawn(6); });
  engine.run();
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
  }
  EXPECT_GT(fire_times.size(), 10u);
}

// --- GEMM algebraic properties ------------------------------------------------------

TEST(GemmProperty, IdentityIsNeutral) {
  Rng rng(41);
  const std::size_t n = 40;
  std::vector<double> a(n * n), eye(n * n, 0.0), c(n * n);
  for (auto& v : a) {
    v = rng.uniform(-2.0, 2.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    eye[i * n + i] = 1.0;
  }
  blas::gemm(n, n, n, 1.0, std::span<const double>(a),
             std::span<const double>(eye), 0.0, std::span<double>(c));
  for (std::size_t i = 0; i < n * n; ++i) {
    EXPECT_NEAR(c[i], a[i], 1e-12);
  }
}

TEST(GemmProperty, DistributesOverAddition) {
  // A*(B1 + B2) == A*B1 + A*B2 to roundoff.
  Rng rng(42);
  const std::size_t n = 24;
  std::vector<double> a(n * n), b1(n * n), b2(n * n), bsum(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b1[i] = rng.uniform(-1.0, 1.0);
    b2[i] = rng.uniform(-1.0, 1.0);
    bsum[i] = b1[i] + b2[i];
  }
  std::vector<double> c1(n * n), c2(n * n), csum(n * n);
  blas::gemm(n, n, n, 1.0, std::span<const double>(a),
             std::span<const double>(b1), 0.0, std::span<double>(c1));
  blas::gemm(n, n, n, 1.0, std::span<const double>(a),
             std::span<const double>(b2), 0.0, std::span<double>(c2));
  blas::gemm(n, n, n, 1.0, std::span<const double>(a),
             std::span<const double>(bsum), 0.0, std::span<double>(csum));
  for (std::size_t i = 0; i < n * n; ++i) {
    EXPECT_NEAR(csum[i], c1[i] + c2[i], 1e-10);
  }
}

// --- FFT shift/modulation property ----------------------------------------------------

TEST(FftProperty, TimeShiftBecomesPhaseRamp) {
  // x[(t - s) mod N] <-> X[k] * exp(-2 pi i k s / N).
  const std::size_t n = 64;
  Rng rng(51);
  std::vector<fft::cplx> x(n);
  for (auto& v : x) {
    v = fft::cplx(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  }
  const std::size_t shift = 5;
  std::vector<fft::cplx> shifted(n);
  for (std::size_t t = 0; t < n; ++t) {
    shifted[(t + shift) % n] = x[t];
  }
  const auto fx = fft::fft_forward(x);
  const auto fshift = fft::fft_forward(shifted);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = -2.0 * 3.14159265358979323846 *
                         static_cast<double>(k * shift) /
                         static_cast<double>(n);
    const fft::cplx expected =
        fx[k] * fft::cplx(std::cos(angle), std::sin(angle));
    EXPECT_NEAR(std::abs(fshift[k] - expected), 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace pvc
