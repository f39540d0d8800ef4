#pragma once
// CRK-HACC-style N-body gravity (paper §VI-A2).
//
// Functional core: a direct-sum short-range gravity kernel with Plummer
// softening integrated by kick-drift-kick leapfrog — the FP32
// force-kernel structure that dominates HACC's GPU time.  Small systems
// run for real in tests (momentum conservation, two-body orbits, energy
// drift bounds).
//
// FOM model: N_p * N_steps / time.  A step costs GPU force time (FP32
// rate x per-system achieved fraction) plus host-side tree/communication
// work bound by CPU DDR bandwidth — the two terms the paper names
// ("CPU memory BW bound, GPU FP32 flop-rate bound", Table V).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "core/rng.hpp"
#include "miniapps/fom.hpp"

namespace pvc::apps {

/// Particle ensemble in struct-of-arrays layout (FP32 state, FP64
/// diagnostics).
struct ParticleSystem {
  std::vector<float> x, y, z;
  std::vector<float> vx, vy, vz;
  std::vector<float> mass;

  [[nodiscard]] std::size_t size() const { return x.size(); }
};

/// Uniform random cloud in a cube of side `box` with zero net momentum.
[[nodiscard]] ParticleSystem make_cloud(std::size_t particles, double box,
                                        std::uint64_t seed);

/// Two bodies on a circular mutual orbit (analytic test case).
[[nodiscard]] ParticleSystem make_binary(double separation, double mass);

/// Direct-sum accelerations with Plummer softening `eps`.  One sweep of
/// the symmetric i<j pair triangle (Newton's third law) in FP32, summed
/// in FP64: row i's terms go to four lane accumulators by (j-i-1)&3,
/// folded as (l0+l2)+(l1+l3).
void compute_accelerations(const ParticleSystem& ps, double eps,
                           std::vector<float>& ax, std::vector<float>& ay,
                           std::vector<float>& az);

/// One kick-drift-kick leapfrog step.
void leapfrog_step(ParticleSystem& ps, double dt, double eps);

/// Diagnostics.
[[nodiscard]] double total_kinetic_energy(const ParticleSystem& ps);
[[nodiscard]] double total_potential_energy(const ParticleSystem& ps,
                                            double eps);
[[nodiscard]] double total_momentum_magnitude(const ParticleSystem& ps);

// --- FOM model --------------------------------------------------------------

/// Fraction of FP32 peak the SYCL/CUDA/HIP force kernel sustains.
[[nodiscard]] double hacc_fp32_fraction(const arch::NodeSpec& node);

/// Table VI row: the paper's adiabatic runs (2x480^3 on 12 ranks for
/// Aurora, 2x400^3 on 8 ranks elsewhere; 2 ranks/GPU on H100), node
/// scale only.
[[nodiscard]] miniapps::FomTriple hacc_fom(const arch::NodeSpec& node);

}  // namespace pvc::apps
