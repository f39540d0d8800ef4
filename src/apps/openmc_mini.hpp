#pragma once
// OpenMC-style Monte Carlo neutral-particle transport (paper §VI-A1).
//
// The transport loop samples flight distances from the total
// cross-section, chooses capture / scatter / fission and tallies flux;
// its random-stride table lookups and tally atomics are what make the
// real code memory-latency bound.
//
// FOM model: thousands of particles per second at node scale
// (Table VI), built from each GPU's achieved bandwidth and HBM latency
// plus a software-maturity factor (ROCm's OpenMP offload lags, §VI-B1).

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::apps {

/// Software maturity of the OpenMP-offload transport kernel per system
/// (PVC shows "excellent performance", ROCm trails, §VI-B1).
[[nodiscard]] double openmc_software_efficiency(const arch::NodeSpec& node);

/// Particles/s one subdevice sustains on the SMR depleted-fuel problem:
/// latency/bandwidth mixture scaled by software efficiency.
[[nodiscard]] double openmc_rate_per_subdevice(const arch::NodeSpec& node);

/// Table VI row: k-particles/s, node scale (the paper reports OpenMC at
/// full node only, and not on Dawn).
[[nodiscard]] miniapps::FomTriple openmc_fom(const arch::NodeSpec& node);

}  // namespace pvc::apps
