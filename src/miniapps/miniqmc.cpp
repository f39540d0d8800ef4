#include "miniapps/miniqmc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "comm/binding.hpp"
#include "core/error.hpp"
#include "core/units.hpp"

namespace pvc::miniapps {

CubicSpline::CubicSpline(std::vector<double> samples, double cutoff)
    : coeffs_(std::move(samples)), cutoff_(cutoff) {
  ensure(coeffs_.size() >= 4, "CubicSpline: need at least four samples");
  ensure(cutoff > 0.0, "CubicSpline: cutoff must be positive");
  inv_h_ = static_cast<double>(coeffs_.size() - 1) / cutoff_;
}

double CubicSpline::value(double r) const {
  // Catmull-Rom cubic interpolation of the uniform samples; clamped at
  // the table ends.
  const double t_full = std::clamp(r, 0.0, cutoff_) * inv_h_;
  const auto i = static_cast<std::size_t>(t_full);
  const std::size_t n = coeffs_.size();
  const std::size_t i1 = std::min(i, n - 2);
  const double t = t_full - static_cast<double>(i1);
  const double p0 = coeffs_[i1 > 0 ? i1 - 1 : 0];
  const double p1 = coeffs_[i1];
  const double p2 = coeffs_[i1 + 1];
  const double p3 = coeffs_[std::min(i1 + 2, n - 1)];
  const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
  const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
  const double c = -0.5 * p0 + 0.5 * p2;
  return ((a * t + b) * t + c) * t + p1;
}

double CubicSpline::derivative(double r) const {
  const double t_full = std::clamp(r, 0.0, cutoff_) * inv_h_;
  const auto i = static_cast<std::size_t>(t_full);
  const std::size_t n = coeffs_.size();
  const std::size_t i1 = std::min(i, n - 2);
  const double t = t_full - static_cast<double>(i1);
  const double p0 = coeffs_[i1 > 0 ? i1 - 1 : 0];
  const double p1 = coeffs_[i1];
  const double p2 = coeffs_[i1 + 1];
  const double p3 = coeffs_[std::min(i1 + 2, n - 1)];
  const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
  const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
  const double c = -0.5 * p0 + 0.5 * p2;
  return ((3.0 * a * t + 2.0 * b) * t + c) * inv_h_;
}

QmcEnsemble::QmcEnsemble(const QmcSystem& system, std::size_t walkers,
                         std::uint64_t seed)
    : system_(system), rng_(seed) {
  ensure(system.electrons >= 2, "QmcEnsemble: need at least two electrons");
  ensure(walkers >= 1, "QmcEnsemble: need at least one walker");
  walkers_.resize(walkers);
  for (auto& w : walkers_) {
    w.x.resize(system.electrons);
    w.y.resize(system.electrons);
    w.z.resize(system.electrons);
    for (std::size_t e = 0; e < system.electrons; ++e) {
      w.x[e] = static_cast<float>(rng_.uniform(0.0, system.box));
      w.y[e] = static_cast<float>(rng_.uniform(0.0, system.box));
      w.z[e] = static_cast<float>(rng_.uniform(0.0, system.box));
    }
    w.log_psi = log_psi(w);
  }
}

double QmcEnsemble::distance(const Walker& w, std::size_t i,
                             std::size_t j) const {
  const auto mi = [this](double d) {
    // Minimum image in a cubic periodic cell.
    d -= system_.box * std::round(d / system_.box);
    return d;
  };
  const double dx = mi(static_cast<double>(w.x[i]) - w.x[j]);
  const double dy = mi(static_cast<double>(w.y[i]) - w.y[j]);
  const double dz = mi(static_cast<double>(w.z[i]) - w.z[j]);
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

double QmcEnsemble::log_psi(const Walker& w) const {
  // Two-body Pade-Jastrow: u(r) = b / (1 + b*r); log psi = -sum u.
  // u decays with separation, so |psi|^2 suppresses electron
  // coalescence — the physical correlation hole.
  double sum = 0.0;
  for (std::size_t i = 0; i < system_.electrons; ++i) {
    for (std::size_t j = i + 1; j < system_.electrons; ++j) {
      const double r = distance(w, i, j);
      sum += system_.jastrow_b / (1.0 + system_.jastrow_b * r);
    }
  }
  return -sum;
}

namespace {
/// Pade-Jastrow u(r) = b / (1 + b r) derivatives.
double pade_du(double r, double b) {
  const double d = 1.0 + b * r;
  return -b * b / (d * d);
}
double pade_d2u(double r, double b) {
  const double d = 1.0 + b * r;
  return 2.0 * b * b * b / (d * d * d);
}
}  // namespace

QmcEnsemble::Gradient QmcEnsemble::grad_log_psi(const Walker& w,
                                                std::size_t e) const {
  Gradient g;
  const auto mi = [this](double d) {
    d -= system_.box * std::round(d / system_.box);
    return d;
  };
  for (std::size_t j = 0; j < system_.electrons; ++j) {
    if (j == e) {
      continue;
    }
    const double dx = mi(static_cast<double>(w.x[e]) - w.x[j]);
    const double dy = mi(static_cast<double>(w.y[e]) - w.y[j]);
    const double dz = mi(static_cast<double>(w.z[e]) - w.z[j]);
    const double r = std::sqrt(dx * dx + dy * dy + dz * dz) + 1e-300;
    const double du = pade_du(r, system_.jastrow_b);
    // ln psi = -sum u  =>  grad_e = -u'(r) * r_hat.
    g.x -= du * dx / r;
    g.y -= du * dy / r;
    g.z -= du * dz / r;
  }
  return g;
}

double QmcEnsemble::laplacian_log_psi(const Walker& w, std::size_t e) const {
  double lap = 0.0;
  for (std::size_t j = 0; j < system_.electrons; ++j) {
    if (j == e) {
      continue;
    }
    const double r = distance(w, e, j) + 1e-300;
    lap -= pade_d2u(r, system_.jastrow_b) +
           2.0 * pade_du(r, system_.jastrow_b) / r;
  }
  return lap;
}

double QmcEnsemble::local_energy(const Walker& w) const {
  double kinetic = 0.0;
  for (std::size_t e = 0; e < system_.electrons; ++e) {
    const Gradient g = grad_log_psi(w, e);
    kinetic += -0.5 * (laplacian_log_psi(w, e) +
                       g.x * g.x + g.y * g.y + g.z * g.z);
  }
  double potential = 0.0;
  for (std::size_t i = 0; i < system_.electrons; ++i) {
    for (std::size_t j = i + 1; j < system_.electrons; ++j) {
      potential += 1.0 / (distance(w, i, j) + 1e-300);
    }
  }
  return kinetic + potential;
}

double QmcEnsemble::vmc_energy() const {
  double sum = 0.0;
  for (const auto& w : walkers_) {
    sum += local_energy(w);
  }
  return sum / static_cast<double>(walkers_.size());
}

double QmcEnsemble::diffusion_step() {
  const double sigma = std::sqrt(system_.timestep);
  std::uint64_t accepted = 0, proposed = 0;
  for (auto& w : walkers_) {
    for (std::size_t e = 0; e < system_.electrons; ++e) {
      // Partial log-psi touching electron e only (distance-table style).
      const auto partial = [&](const Walker& walker) {
        double sum = 0.0;
        for (std::size_t j = 0; j < system_.electrons; ++j) {
          if (j == e) {
            continue;
          }
          const double r = distance(walker, e, j);
          sum += system_.jastrow_b / (1.0 + system_.jastrow_b * r);
        }
        return -sum;
      };
      const double before = partial(w);
      const float ox = w.x[e], oy = w.y[e], oz = w.z[e];
      w.x[e] += static_cast<float>(sigma * rng_.normal());
      w.y[e] += static_cast<float>(sigma * rng_.normal());
      w.z[e] += static_cast<float>(sigma * rng_.normal());
      const double after = partial(w);
      ++proposed;
      ++w.proposed;
      const double log_ratio = 2.0 * (after - before);
      if (log_ratio >= 0.0 || rng_.uniform() < std::exp(log_ratio)) {
        ++accepted;
        ++w.accepted;
        w.log_psi += after - before;
      } else {
        w.x[e] = ox;
        w.y[e] = oy;
        w.z[e] = oz;
      }
    }
  }
  return static_cast<double>(accepted) / static_cast<double>(proposed);
}

double QmcEnsemble::mean_acceptance() const {
  std::uint64_t accepted = 0, proposed = 0;
  for (const auto& w : walkers_) {
    accepted += w.accepted;
    proposed += w.proposed;
  }
  return proposed == 0 ? 0.0
                       : static_cast<double>(accepted) /
                             static_cast<double>(proposed);
}

// --- FOM model --------------------------------------------------------------

namespace {
/// FOM value of one Aurora stack at the reference block time of 1.0
/// (normalization constant of the cost model).
constexpr double kQmcFomScale = 3.16;
}  // namespace

QmcCost miniqmc_cost(const arch::NodeSpec& node) {
  QmcCost c;
  // Calibrated against Table VI (see DESIGN.md §1): the GPU share is
  // small, the CPU share dominates — which is exactly why the paper's
  // compute/bandwidth microbenchmarks fail to predict this mini-app.
  if (node.system_name == "Aurora") {
    c = {0.139, 0.688, 24.0, 0.173, 0.0};
  } else if (node.system_name == "Dawn") {
    // Sapphire-Rapids cores are ~1.24x Aurora's Ice-Lake cores.
    c = {0.122, 0.554, 24.0, 0.173, 0.0};
  } else if (node.system_name == "JLSE-H100") {
    // One rank drives a whole H100, wanting proportionally more threads.
    c = {0.086, 0.554, 36.0, 0.173, 0.0};
  } else if (node.system_name == "JLSE-MI250") {
    // Order-of-magnitude software inefficiency (§V-B3) plus per-rank
    // launch serialization in the runtime.
    c = {2.72, 0.554, 12.0, 0.173, 2.67};
  } else {
    c = {0.15, 0.6, 24.0, 0.2, 0.0};
  }
  return c;
}

double miniqmc_block_time(const arch::NodeSpec& node, int ranks) {
  ensure(ranks >= 1 && ranks <= node.total_subdevices(),
         "miniqmc_block_time: bad rank count");
  const QmcCost c = miniqmc_cost(node);

  // CPU congestion: ranks fill cards in order; the most loaded socket
  // determines the stretch.
  const int spc = node.card.subdevice_count;
  const int cards_used = (ranks + spc - 1) / spc;
  const int cards_socket0 =
      std::max(1, node.card_count / node.cpu.sockets);
  const int ranks_socket0 = std::min(ranks, cards_socket0 * spc);
  const double usable_per_socket =
      static_cast<double>(node.cpu.cores_per_socket - 1);
  const double rank_cores =
      usable_per_socket / static_cast<double>(ranks_socket0);
  const double cpu_time =
      c.cpu_s * std::max(1.0, c.cpu_threads_needed / rank_cores);

  // PCIe sharing: stacks of one card share its link; the host aggregate
  // caps the total.
  const int ranks_per_card = std::min(ranks, spc);
  const double card_share =
      node.card.pcie.h2d_bps / static_cast<double>(ranks_per_card);
  const double host_share =
      node.host_io.h2d_total_bps / static_cast<double>(ranks);
  const double share = std::min(card_share, host_share);
  const double xfer_time = c.xfer_s_at_55gbps * (55.0 * GBps) / share;

  const double serial_time =
      c.serialization_s_per_rank * static_cast<double>(ranks);
  static_cast<void>(cards_used);
  return c.gpu_s + cpu_time + xfer_time + serial_time;
}

FomTriple miniqmc_fom(const arch::NodeSpec& node) {
  FomTriple fom;
  const auto fom_at = [&](int ranks) {
    return kQmcFomScale * static_cast<double>(ranks) /
           miniqmc_block_time(node, ranks);
  };
  if (has_stacks(node)) {
    fom.one_stack = fom_at(1);
    fom.one_gpu = fom_at(2);
  } else {
    fom.one_gpu = fom_at(1);
  }
  fom.node = fom_at(node.total_subdevices());
  return fom;
}

}  // namespace pvc::miniapps
