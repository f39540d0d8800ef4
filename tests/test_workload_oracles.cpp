// Oracle bit-equivalence suite for the workload-layer hot paths
// (docs/PERFORMANCE.md "Workload layer").
//
// Every optimised kernel keeps its seed implementation as a
// reference_*() oracle; these tests assert the fast paths are
// bit-identical on randomized inputs — same convention as CacheOracle.*
// in test_sim.cpp:
//  * WorkloadOracle.*    — HACC, CloverLeaf, miniQMC, miniBUDE, SPH and
//    spline-batch kernels against their seed loops;
//  * CollectiveOracle.*  — arena-backed collectives against the seed
//    allocate-per-round implementations: completion times, payloads,
//    comm.* metric snapshots, round counts, and tag-FIFO matching.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "apps/hacc_mini.hpp"
#include "apps/sph.hpp"
#include "arch/systems.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "miniapps/cloverleaf.hpp"
#include "miniapps/minibude.hpp"
#include "miniapps/miniqmc.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_sim.hpp"

namespace {

using namespace pvc;

bool bits_eq(double x, double y) { return std::memcmp(&x, &y, 8) == 0; }
bool bits_eq(float x, float y) { return std::memcmp(&x, &y, 4) == 0; }

template <typename T>
bool vec_bits_eq(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// --- WorkloadOracle ---------------------------------------------------------

TEST(WorkloadOracle, HaccForceMatchesReference) {
  for (std::size_t n : {3UL, 8UL, 33UL, 200UL}) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      const auto ps = apps::make_cloud(n, 10.0, seed);
      std::vector<float> fx, fy, fz, rx, ry, rz;
      apps::compute_accelerations(ps, 0.1, fx, fy, fz);
      apps::reference_accelerations(ps, 0.1, rx, ry, rz);
      EXPECT_TRUE(vec_bits_eq(fx, rx)) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(vec_bits_eq(fy, ry)) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(vec_bits_eq(fz, rz)) << "n=" << n << " seed=" << seed;
    }
  }
}

/// Randomized hydro state: positive densities and energies with a
/// sprinkling of zero-density cells (exercising the r > 0 guards),
/// signed velocities, ghost cells included.
miniapps::CloverGrid random_clover_grid(std::size_t nx, std::size_t ny,
                                        unsigned seed) {
  miniapps::CloverGrid grid(nx, ny, 1.0 / static_cast<double>(nx),
                            1.0 / static_cast<double>(ny));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> pos(0.1, 2.0);
  std::uniform_real_distribution<double> vel(-1.0, 1.0);
  std::size_t cell = 0;
  for (std::size_t j = 0; j <= ny + 1; ++j) {
    for (std::size_t i = 0; i <= nx + 1; ++i, ++cell) {
      grid.density(i, j) = (cell % 17 == 0) ? 0.0 : pos(rng);
      grid.energy(i, j) = pos(rng);
      grid.pressure(i, j) = pos(rng);
    }
  }
  for (std::size_t j = 0; j <= ny + 2; ++j) {
    for (std::size_t i = 0; i <= nx + 2; ++i) {
      grid.velocity_x(i, j) = vel(rng);
      grid.velocity_y(i, j) = vel(rng);
    }
  }
  return grid;
}

bool clover_grids_bit_equal(const miniapps::CloverGrid& a,
                            const miniapps::CloverGrid& b) {
  const std::size_t cells = (a.nx() + 2) * (a.ny() + 2);
  const std::size_t nodes = (a.nx() + 3) * (a.ny() + 3);
  return std::memcmp(a.density_data(), b.density_data(), cells * 8) == 0 &&
         std::memcmp(a.energy_data(), b.energy_data(), cells * 8) == 0 &&
         std::memcmp(a.pressure_data(), b.pressure_data(), cells * 8) == 0 &&
         std::memcmp(a.velocity_x_data(), b.velocity_x_data(), nodes * 8) ==
             0 &&
         std::memcmp(a.velocity_y_data(), b.velocity_y_data(), nodes * 8) == 0;
}

TEST(WorkloadOracle, CloverKernelsMatchReferencePerStage) {
  for (std::size_t n : {3UL, 8UL, 17UL, 64UL}) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      auto fast = random_clover_grid(n, n, seed);
      auto ref = random_clover_grid(n, n, seed);
      ASSERT_TRUE(clover_grids_bit_equal(fast, ref));

      EXPECT_TRUE(bits_eq(miniapps::update_pressure(fast),
                          miniapps::reference_update_pressure(ref)));
      EXPECT_TRUE(clover_grids_bit_equal(fast, ref)) << "pressure n=" << n;

      const double dt = miniapps::compute_timestep(fast, 1.4);
      EXPECT_TRUE(bits_eq(dt, miniapps::reference_compute_timestep(ref, 1.4)));

      miniapps::apply_artificial_viscosity(fast);
      miniapps::reference_apply_artificial_viscosity(ref);
      EXPECT_TRUE(clover_grids_bit_equal(fast, ref)) << "viscosity n=" << n;

      miniapps::accelerate(fast, dt);
      miniapps::reference_accelerate(ref, dt);
      EXPECT_TRUE(clover_grids_bit_equal(fast, ref)) << "accelerate n=" << n;

      miniapps::pdv_update(fast, dt);
      miniapps::reference_pdv_update(ref, dt);
      EXPECT_TRUE(clover_grids_bit_equal(fast, ref)) << "pdv n=" << n;

      miniapps::advect(fast, dt);
      miniapps::reference_advect(ref, dt);
      EXPECT_TRUE(clover_grids_bit_equal(fast, ref)) << "advect n=" << n;
    }
  }
}

TEST(WorkloadOracle, CloverMultiStepMatchesReference) {
  for (std::size_t n : {8UL, 48UL}) {
    for (unsigned seed = 1; seed <= 2; ++seed) {
      auto fast = random_clover_grid(n, n, seed);
      auto ref = random_clover_grid(n, n, seed);
      for (int step = 0; step < 6; ++step) {
        const double dtf = miniapps::hydro_step(fast);
        const double dtr = miniapps::reference_hydro_step(ref);
        ASSERT_TRUE(bits_eq(dtf, dtr)) << "step " << step << " n=" << n;
        ASSERT_TRUE(clover_grids_bit_equal(fast, ref))
            << "step " << step << " n=" << n;
      }
    }
  }
}

TEST(WorkloadOracle, QmcEnergiesMatchReference) {
  for (std::size_t ne : {7UL, 16UL, 33UL}) {
    miniapps::QmcSystem sys;
    sys.electrons = ne;
    miniapps::QmcEnsemble ens(sys, 4, 11);
    for (const auto& w : ens.walkers()) {
      EXPECT_TRUE(bits_eq(ens.local_energy(w), ens.reference_local_energy(w)))
          << "ne=" << ne;
    }
    EXPECT_TRUE(bits_eq(ens.vmc_energy(), ens.reference_vmc_energy()))
        << "ne=" << ne;
  }
}

TEST(WorkloadOracle, QmcDiffusionStreamMatchesReference) {
  // The fused diffusion step must replicate the seed's walker state AND
  // RNG stream: positions, log_psi, acceptance counters, step returns.
  for (std::size_t ne : {9UL, 32UL}) {
    miniapps::QmcSystem sys;
    sys.electrons = ne;
    miniapps::QmcEnsemble fast(sys, 6, 23);
    miniapps::QmcEnsemble ref(sys, 6, 23);
    for (int step = 0; step < 5; ++step) {
      const double af = fast.diffusion_step();
      const double ar = ref.reference_diffusion_step();
      ASSERT_TRUE(bits_eq(af, ar)) << "step " << step << " ne=" << ne;
      ASSERT_EQ(fast.walkers().size(), ref.walkers().size());
      for (std::size_t w = 0; w < fast.walkers().size(); ++w) {
        const auto& wf = fast.walkers()[w];
        const auto& wr = ref.walkers()[w];
        ASSERT_TRUE(vec_bits_eq(wf.x, wr.x)) << "step " << step;
        ASSERT_TRUE(vec_bits_eq(wf.y, wr.y)) << "step " << step;
        ASSERT_TRUE(vec_bits_eq(wf.z, wr.z)) << "step " << step;
        ASSERT_TRUE(bits_eq(wf.log_psi, wr.log_psi)) << "step " << step;
        ASSERT_EQ(wf.accepted, wr.accepted) << "step " << step;
        ASSERT_EQ(wf.proposed, wr.proposed) << "step " << step;
      }
    }
  }
}

TEST(WorkloadOracle, BudeScoreMatchesReference) {
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const auto deck = miniapps::make_deck(24, 9, 37, seed);
    std::vector<float> fast(deck.poses.size()), ref(deck.poses.size());
    miniapps::evaluate_poses(deck, fast);
    miniapps::reference_evaluate_poses(deck, ref);
    EXPECT_TRUE(vec_bits_eq(fast, ref)) << "seed=" << seed;
    for (const auto& pose : deck.poses) {
      EXPECT_TRUE(bits_eq(miniapps::pose_energy(deck, pose),
                          miniapps::reference_pose_energy(deck, pose)));
    }
  }
}

TEST(WorkloadOracle, SphDensityAndForcesMatchReference) {
  for (std::size_t n : {2UL, 9UL, 33UL, 257UL}) {
    for (unsigned seed = 1; seed <= 3; ++seed) {
      const auto ps = apps::make_cloud(n, 10.0, seed);
      for (double h : {1.0, 4.0}) {
        const auto fast_rho = apps::sph_density(ps, h);
        const auto ref_rho = apps::reference_sph_density(ps, h);
        EXPECT_TRUE(vec_bits_eq(fast_rho, ref_rho))
            << "n=" << n << " h=" << h;
        const auto ff = apps::sph_pressure_forces(ps, ref_rho, h, 1.0);
        const auto fr =
            apps::reference_sph_pressure_forces(ps, ref_rho, h, 1.0);
        EXPECT_TRUE(vec_bits_eq(ff.ax, fr.ax)) << "n=" << n << " h=" << h;
        EXPECT_TRUE(vec_bits_eq(ff.ay, fr.ay)) << "n=" << n << " h=" << h;
        EXPECT_TRUE(vec_bits_eq(ff.az, fr.az)) << "n=" << n << " h=" << h;
      }
    }
  }
}

TEST(WorkloadOracle, SplineBatchMatchesScalarEvaluation) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> sample(-2.0, 2.0);
  std::uniform_real_distribution<double> radius(-1.0, 8.0);
  for (std::size_t ns : {4UL, 16UL, 64UL}) {
    std::vector<double> samples(ns);
    for (auto& s : samples) s = sample(rng);
    miniapps::CubicSpline spline(samples, 6.0);
    for (std::size_t count : {1UL, 8UL, 31UL, 500UL}) {
      std::vector<double> r(count), value(count), deriv(count);
      for (auto& v : r) v = radius(rng);
      if (count >= 8) {
        // Edge radii: both zeros, the cutoff, beyond it, and just inside.
        r[0] = 0.0;
        r[1] = -0.0;
        r[2] = 6.0;
        r[3] = 6.0001;
        r[4] = 5.9999999;
      }
      spline.value_batch(r, value);
      spline.derivative_batch(r, deriv);
      for (std::size_t k = 0; k < count; ++k) {
        EXPECT_TRUE(bits_eq(value[k], spline.value(r[k])))
            << "ns=" << ns << " r=" << r[k];
        EXPECT_TRUE(bits_eq(deriv[k], spline.derivative(r[k])))
            << "ns=" << ns << " r=" << r[k];
      }
    }
  }
}

// --- CollectiveOracle -------------------------------------------------------

/// comm_metrics() caches metric handles keyed on the active registry's
/// address, so a registry must never share an address with a dead one.
/// Tests therefore collect into intentionally leaked registries.
obs::Registry& fresh_registry() { return *new obs::Registry; }

/// Runs `op` on a fresh 12-rank explicit-scaling communicator under an
/// isolated metric registry; returns the op result and the metrics JSON.
template <typename Op>
auto run_isolated(Op&& op, std::string* metrics_json) {
  auto& reg = fresh_registry();
  obs::ScopedRegistry scope(reg);
  rt::NodeSim sim(arch::aurora());
  auto comm = comm::Communicator::explicit_scaling(sim);
  auto result = op(comm);
  *metrics_json = obs::to_json(reg.snapshot());
  return result;
}

std::vector<std::vector<double>> random_rank_data(int ranks, std::size_t n,
                                                  unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  std::vector<std::vector<double>> data(static_cast<std::size_t>(ranks));
  for (auto& row : data) {
    row.resize(n);
    for (auto& v : row) v = dist(rng);
  }
  return data;
}

TEST(CollectiveOracle, TimedCollectivesBitIdenticalToReference) {
  struct Case {
    const char* name;
    sim::Time (*fast)(comm::Communicator&);
    sim::Time (*ref)(comm::Communicator&);
  };
  const Case cases[] = {
      {"barrier", [](comm::Communicator& c) { return comm::barrier(c); },
       [](comm::Communicator& c) { return comm::reference_barrier(c); }},
      {"halo",
       [](comm::Communicator& c) { return comm::halo_exchange_ring(c, 96.0); },
       [](comm::Communicator& c) {
         return comm::reference_halo_exchange_ring(c, 96.0);
       }},
      {"gather",
       [](comm::Communicator& c) { return comm::gather_to_root(c, 96.0); },
       [](comm::Communicator& c) {
         return comm::reference_gather_to_root(c, 96.0);
       }},
      {"broadcast",
       [](comm::Communicator& c) {
         return comm::broadcast_from_root(c, 96.0);
       },
       [](comm::Communicator& c) {
         return comm::reference_broadcast_from_root(c, 96.0);
       }},
      {"alltoall",
       [](comm::Communicator& c) { return comm::alltoall(c, 96.0); },
       [](comm::Communicator& c) {
         return comm::reference_alltoall(c, 96.0);
       }},
  };
  for (const auto& c : cases) {
    std::string fast_metrics, ref_metrics;
    // Three back-to-back calls: the first fills the scratch arena, the
    // rest reuse it — all must stay on the reference schedule.
    const auto run3 = [](auto fn) {
      return [fn](comm::Communicator& comm) {
        std::vector<double> times;
        for (int i = 0; i < 3; ++i) times.push_back(fn(comm));
        return times;
      };
    };
    const auto fast_times = run_isolated(run3(c.fast), &fast_metrics);
    const auto ref_times = run_isolated(run3(c.ref), &ref_metrics);
    EXPECT_TRUE(vec_bits_eq(fast_times, ref_times)) << c.name;
    EXPECT_EQ(fast_metrics, ref_metrics) << c.name;
  }
}

TEST(CollectiveOracle, AllreduceBitIdenticalToReference) {
  for (std::size_t n : {1UL, 5UL, 48UL, 1000UL}) {
    std::string fast_metrics, ref_metrics;
    auto fast_data = random_rank_data(12, n, 77);
    auto ref_data = fast_data;
    const auto tf = run_isolated(
        [&](comm::Communicator& c) { return comm::allreduce_sum(c, fast_data); },
        &fast_metrics);
    const auto tr = run_isolated(
        [&](comm::Communicator& c) {
          return comm::reference_allreduce_sum(c, ref_data);
        },
        &ref_metrics);
    EXPECT_TRUE(bits_eq(tf, tr)) << "n=" << n;
    for (std::size_t r = 0; r < fast_data.size(); ++r) {
      EXPECT_TRUE(vec_bits_eq(fast_data[r], ref_data[r]))
          << "n=" << n << " rank=" << r;
    }
    EXPECT_EQ(fast_metrics, ref_metrics) << "n=" << n;
  }
}

TEST(CollectiveOracle, ReduceBitIdenticalToReference) {
  for (std::size_t n : {1UL, 48UL, 1000UL}) {
    std::string fast_metrics, ref_metrics;
    auto fast_data = random_rank_data(12, n, 78);
    auto ref_data = fast_data;
    const auto tf = run_isolated(
        [&](comm::Communicator& c) {
          return comm::reduce_sum_to_root(c, fast_data);
        },
        &fast_metrics);
    const auto tr = run_isolated(
        [&](comm::Communicator& c) {
          return comm::reference_reduce_sum_to_root(c, ref_data);
        },
        &ref_metrics);
    EXPECT_TRUE(bits_eq(tf, tr)) << "n=" << n;
    EXPECT_TRUE(vec_bits_eq(fast_data[0], ref_data[0])) << "n=" << n;
    EXPECT_EQ(fast_metrics, ref_metrics) << "n=" << n;
  }
}

TEST(CollectiveOracle, SumCollectivesMatchSerialReductionOracle) {
  // Integer-valued payloads add exactly in FP64, so whatever association
  // the ring/tree uses, the result must equal the serial rank-order fold.
  const std::size_t n = 64;
  const auto fill = [&] {
    std::vector<std::vector<double>> data(12);
    for (std::size_t r = 0; r < data.size(); ++r) {
      data[r].resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        data[r][i] = static_cast<double>((r + 1) * 7 + i * 3);
      }
    }
    return data;
  };
  std::vector<double> expected(n, 0.0);
  {
    const auto data = fill();
    for (const auto& row : data) {
      for (std::size_t i = 0; i < n; ++i) expected[i] += row[i];
    }
  }
  std::string ignored;
  auto ar_data = fill();
  run_isolated(
      [&](comm::Communicator& c) { return comm::allreduce_sum(c, ar_data); },
      &ignored);
  for (std::size_t r = 0; r < ar_data.size(); ++r) {
    EXPECT_EQ(ar_data[r], expected) << "allreduce rank " << r;
  }
  auto rd_data = fill();
  run_isolated(
      [&](comm::Communicator& c) {
        return comm::reduce_sum_to_root(c, rd_data);
      },
      &ignored);
  EXPECT_EQ(rd_data[0], expected) << "reduce root";
}

TEST(CollectiveOracle, RoundCountsMatchSchedule) {
  // Expected schedules at P = 12: dissemination barrier ceil(log2 P) = 4
  // rounds; ring allreduce 2(P-1) = 22; halo/gather single round;
  // binomial broadcast/reduce 4; pairwise alltoall P-1 = 11.
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "built with -DPVC_METRICS=OFF; this test reads the "
                    "rounds and messages from the comm.* metrics only";
  }
  struct Case {
    const char* name;
    double rounds;
    double messages;
    void (*fast)(comm::Communicator&);
    void (*ref)(comm::Communicator&);
  };
  const Case cases[] = {
      {"barrier", 4, 48, [](comm::Communicator& c) { comm::barrier(c); },
       [](comm::Communicator& c) { comm::reference_barrier(c); }},
      {"allreduce", 22, 264,
       [](comm::Communicator& c) {
         std::vector<std::vector<double>> d(12, std::vector<double>(16, 1.0));
         comm::allreduce_sum(c, d);
       },
       [](comm::Communicator& c) {
         std::vector<std::vector<double>> d(12, std::vector<double>(16, 1.0));
         comm::reference_allreduce_sum(c, d);
       }},
      {"halo", 1, 24,
       [](comm::Communicator& c) { comm::halo_exchange_ring(c, 64.0); },
       [](comm::Communicator& c) {
         comm::reference_halo_exchange_ring(c, 64.0);
       }},
      {"gather", 1, 11,
       [](comm::Communicator& c) { comm::gather_to_root(c, 64.0); },
       [](comm::Communicator& c) { comm::reference_gather_to_root(c, 64.0); }},
      {"broadcast", 4, 11,
       [](comm::Communicator& c) { comm::broadcast_from_root(c, 64.0); },
       [](comm::Communicator& c) {
         comm::reference_broadcast_from_root(c, 64.0);
       }},
      {"alltoall", 11, 110,
       [](comm::Communicator& c) { comm::alltoall(c, 64.0); },
       [](comm::Communicator& c) { comm::reference_alltoall(c, 64.0); }},
      {"reduce", 4, 11,
       [](comm::Communicator& c) {
         std::vector<std::vector<double>> d(12, std::vector<double>(16, 1.0));
         comm::reduce_sum_to_root(c, d);
       },
       [](comm::Communicator& c) {
         std::vector<std::vector<double>> d(12, std::vector<double>(16, 1.0));
         comm::reference_reduce_sum_to_root(c, d);
       }},
  };
  for (const auto& c : cases) {
    for (const bool use_ref : {false, true}) {
      auto& reg = fresh_registry();
      {
        obs::ScopedRegistry scope(reg);
        rt::NodeSim sim(arch::aurora());
        auto comm = comm::Communicator::explicit_scaling(sim);
        (use_ref ? c.ref : c.fast)(comm);
      }
      const auto snap = reg.snapshot();
      EXPECT_EQ(snap.value("comm.collectives"), 1.0) << c.name;
      EXPECT_EQ(snap.value("comm.collective_rounds"), c.rounds)
          << c.name << (use_ref ? " (reference)" : " (fast)");
      EXPECT_EQ(snap.value("comm.messages"), c.messages)
          << c.name << (use_ref ? " (reference)" : " (fast)");
    }
  }
}

TEST(CollectiveOracle, SameTagMessagesMatchInFifoOrder) {
  // The pooled request/match structures must preserve the seed's FIFO
  // matching of identical (src, dst, tag) envelopes.
  rt::NodeSim sim(arch::aurora());
  auto comm = comm::Communicator::explicit_scaling(sim);
  std::vector<double> first{1.0, 2.0, 3.0};
  std::vector<double> second{4.0, 5.0, 6.0};
  std::vector<double> dst1(3, 0.0), dst2(3, 0.0);
  auto s1 = comm.isend(0, 1, 7, 24.0, first);
  auto s2 = comm.isend(0, 1, 7, 24.0, second);
  auto r1 = comm.irecv(1, 0, 7, 24.0, dst1);
  auto r2 = comm.irecv(1, 0, 7, 24.0, dst2);
  comm.wait(s1);
  comm.wait(s2);
  comm.wait(r1);
  comm.wait(r2);
  EXPECT_EQ(dst1, first);
  EXPECT_EQ(dst2, second);
}

}  // namespace
