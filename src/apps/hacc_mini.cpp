#include "apps/hacc_mini.hpp"

#include <cmath>

#include "arch/peaks.hpp"
#include "core/error.hpp"
#include "core/units.hpp"

namespace pvc::apps {

ParticleSystem make_cloud(std::size_t particles, double box,
                          std::uint64_t seed) {
  ensure(particles >= 2, "make_cloud: need at least two particles");
  Rng rng(seed);
  ParticleSystem ps;
  ps.x.resize(particles);
  ps.y.resize(particles);
  ps.z.resize(particles);
  ps.vx.assign(particles, 0.0f);
  ps.vy.assign(particles, 0.0f);
  ps.vz.assign(particles, 0.0f);
  ps.mass.assign(particles, 1.0f);
  for (std::size_t i = 0; i < particles; ++i) {
    ps.x[i] = static_cast<float>(rng.uniform(0.0, box));
    ps.y[i] = static_cast<float>(rng.uniform(0.0, box));
    ps.z[i] = static_cast<float>(rng.uniform(0.0, box));
    ps.vx[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
    ps.vy[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
    ps.vz[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
  }
  // Remove net momentum so the centre of mass stays put.
  double px = 0.0, py = 0.0, pz = 0.0;
  for (std::size_t i = 0; i < particles; ++i) {
    px += ps.vx[i];
    py += ps.vy[i];
    pz += ps.vz[i];
  }
  const auto n = static_cast<double>(particles);
  for (std::size_t i = 0; i < particles; ++i) {
    ps.vx[i] -= static_cast<float>(px / n);
    ps.vy[i] -= static_cast<float>(py / n);
    ps.vz[i] -= static_cast<float>(pz / n);
  }
  return ps;
}

ParticleSystem make_binary(double separation, double mass) {
  ensure(separation > 0.0 && mass > 0.0, "make_binary: bad parameters");
  ParticleSystem ps;
  ps.x = {static_cast<float>(-separation / 2), static_cast<float>(separation / 2)};
  ps.y = {0.0f, 0.0f};
  ps.z = {0.0f, 0.0f};
  // Circular orbit: each body orbits the COM at r = separation/2 with
  // v^2 = G * m_other * r / separation^2 (G = 1).
  const double v = std::sqrt(mass / (2.0 * separation));
  ps.vx = {0.0f, 0.0f};
  ps.vy = {static_cast<float>(-v), static_cast<float>(v)};
  ps.vz = {0.0f, 0.0f};
  ps.mass = {static_cast<float>(mass), static_cast<float>(mass)};
  return ps;
}

void compute_accelerations(const ParticleSystem& ps, double eps,
                           std::vector<float>& ax, std::vector<float>& ay,
                           std::vector<float>& az) {
  const std::size_t n = ps.size();
  ax.assign(n, 0.0f);
  ay.assign(n, 0.0f);
  az.assign(n, 0.0f);
  const float eps2 = static_cast<float>(eps * eps);
  std::vector<double> accx(n, 0.0), accy(n, 0.0), accz(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double lx[4] = {0.0, 0.0, 0.0, 0.0};
    double ly[4] = {0.0, 0.0, 0.0, 0.0};
    double lz[4] = {0.0, 0.0, 0.0, 0.0};
    const float xi = ps.x[i], yi = ps.y[i], zi = ps.z[i];
    const float mi = ps.mass[i];
    for (std::size_t j = i + 1; j < n; ++j) {
      const float dx = ps.x[j] - xi;
      const float dy = ps.y[j] - yi;
      const float dz = ps.z[j] - zi;
      const float r2 = dx * dx + dy * dy + dz * dz + eps2;
      const float inv_r = 1.0f / std::sqrt(r2);
      const float inv_r3 = inv_r * inv_r * inv_r;
      const float sj = ps.mass[j] * inv_r3;
      const float si = mi * inv_r3;
      const std::size_t k = (j - i - 1) & 3;
      lx[k] += static_cast<double>(sj * dx);
      ly[k] += static_cast<double>(sj * dy);
      lz[k] += static_cast<double>(sj * dz);
      accx[j] -= static_cast<double>(si * dx);
      accy[j] -= static_cast<double>(si * dy);
      accz[j] -= static_cast<double>(si * dz);
    }
    accx[i] += (lx[0] + lx[2]) + (lx[1] + lx[3]);
    accy[i] += (ly[0] + ly[2]) + (ly[1] + ly[3]);
    accz[i] += (lz[0] + lz[2]) + (lz[1] + lz[3]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ax[i] = static_cast<float>(accx[i]);
    ay[i] = static_cast<float>(accy[i]);
    az[i] = static_cast<float>(accz[i]);
  }
}

void leapfrog_step(ParticleSystem& ps, double dt, double eps) {
  const std::size_t n = ps.size();
  std::vector<float> ax, ay, az;
  compute_accelerations(ps, eps, ax, ay, az);
  const float half_dt = static_cast<float>(0.5 * dt);
  const float fdt = static_cast<float>(dt);
  for (std::size_t i = 0; i < n; ++i) {  // kick
    ps.vx[i] += half_dt * ax[i];
    ps.vy[i] += half_dt * ay[i];
    ps.vz[i] += half_dt * az[i];
  }
  for (std::size_t i = 0; i < n; ++i) {  // drift
    ps.x[i] += fdt * ps.vx[i];
    ps.y[i] += fdt * ps.vy[i];
    ps.z[i] += fdt * ps.vz[i];
  }
  compute_accelerations(ps, eps, ax, ay, az);
  for (std::size_t i = 0; i < n; ++i) {  // kick
    ps.vx[i] += half_dt * ax[i];
    ps.vy[i] += half_dt * ay[i];
    ps.vz[i] += half_dt * az[i];
  }
}

double total_kinetic_energy(const ParticleSystem& ps) {
  double e = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double v2 = static_cast<double>(ps.vx[i]) * ps.vx[i] +
                      static_cast<double>(ps.vy[i]) * ps.vy[i] +
                      static_cast<double>(ps.vz[i]) * ps.vz[i];
    e += 0.5 * ps.mass[i] * v2;
  }
  return e;
}

double total_potential_energy(const ParticleSystem& ps, double eps) {
  double e = 0.0;
  const double eps2 = eps * eps;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t j = i + 1; j < ps.size(); ++j) {
      const double dx = static_cast<double>(ps.x[j]) - ps.x[i];
      const double dy = static_cast<double>(ps.y[j]) - ps.y[i];
      const double dz = static_cast<double>(ps.z[j]) - ps.z[i];
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz + eps2);
      e -= static_cast<double>(ps.mass[i]) * ps.mass[j] / r;
    }
  }
  return e;
}

double total_momentum_magnitude(const ParticleSystem& ps) {
  double px = 0.0, py = 0.0, pz = 0.0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    px += static_cast<double>(ps.mass[i]) * ps.vx[i];
    py += static_cast<double>(ps.mass[i]) * ps.vy[i];
    pz += static_cast<double>(ps.mass[i]) * ps.vz[i];
  }
  return std::sqrt(px * px + py * py + pz * pz);
}

double hacc_fp32_fraction(const arch::NodeSpec& node) {
  // Calibrated from Table VI via the two-term GPU+CPU model (DESIGN.md
  // §1).  The mature HIP kernel is the most efficient; the PVC SYCL port
  // sits near 50%, consistent with the miniBUDE finding that PVC
  // sustains a high fraction of FP32 peak.
  if (node.system_name == "Aurora") {
    return 0.500;
  }
  if (node.system_name == "Dawn") {
    return 0.549;
  }
  if (node.system_name == "JLSE-H100") {
    return 0.440;
  }
  if (node.system_name == "JLSE-MI250") {
    return 0.625;
  }
  return 0.5;
}

miniapps::FomTriple hacc_fom(const arch::NodeSpec& node) {
  // T/step ~ c_g / G + c_c / D with G the achieved node FP32 rate and D
  // the host DDR bandwidth; particle count cancels out of the FOM ratio
  // (both T and FOM scale with N_p).  Constants put the CPU share at 30%
  // on Aurora and normalize its FOM to the paper's 13.81.
  constexpr double kGpuCoeff = 95.2;   // TFlop/s units
  constexpr double kCpuCoeff = 184.2;  // GB/s units
  constexpr double kFomScale = 13.81;

  const double g_tflops =
      arch::fma_peak(node, arch::Precision::FP32, arch::Scope::FullNode) *
      hacc_fp32_fraction(node) / TFlops;
  const double d_gbps = node.cpu.ddr_bandwidth_bps / GBps;
  const double denom = kGpuCoeff / g_tflops + kCpuCoeff / d_gbps;

  miniapps::FomTriple fom;
  fom.node = kFomScale / denom;
  return fom;
}

}  // namespace pvc::apps
