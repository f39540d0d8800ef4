#include "apps/sph.hpp"

#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace pvc::apps {

namespace {
/// 3-D M4 normalization: 1 / (pi h^3).
double sigma3(double h) { return 1.0 / (std::numbers::pi * h * h * h); }
}  // namespace

double sph_kernel(double r, double h) {
  ensure(h > 0.0, "sph_kernel: smoothing length must be positive");
  ensure(r >= 0.0, "sph_kernel: negative radius");
  const double q = r / h;
  if (q >= 2.0) {
    return 0.0;
  }
  if (q < 1.0) {
    return sigma3(h) * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  }
  const double t = 2.0 - q;
  return sigma3(h) * 0.25 * t * t * t;
}

double sph_kernel_derivative(double r, double h) {
  ensure(h > 0.0, "sph_kernel_derivative: smoothing length must be positive");
  const double q = r / h;
  if (q >= 2.0) {
    return 0.0;
  }
  if (q < 1.0) {
    return sigma3(h) / h * (-3.0 * q + 2.25 * q * q);
  }
  const double t = 2.0 - q;
  return -sigma3(h) / h * 0.75 * t * t;
}

std::vector<double> sph_density(const ParticleSystem& ps, double h) {
  ensure(h > 0.0, "sph_density: smoothing length must be positive");
  const std::size_t n = ps.size();
  std::vector<double> rho(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = static_cast<double>(ps.x[j]) - ps.x[i];
      const double dy = static_cast<double>(ps.y[j]) - ps.y[i];
      const double dz = static_cast<double>(ps.z[j]) - ps.z[i];
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      sum += static_cast<double>(ps.mass[j]) * sph_kernel(r, h);
    }
    rho[i] = sum;
  }
  return rho;
}

SphForces sph_pressure_forces(const ParticleSystem& ps,
                              const std::vector<double>& density, double h,
                              double u, double gamma) {
  const std::size_t n = ps.size();
  ensure(density.size() == n, "sph_pressure_forces: density size mismatch");
  ensure(u >= 0.0 && gamma > 1.0, "sph_pressure_forces: bad EOS parameters");
  ensure(h > 0.0, "sph_pressure_forces: smoothing length must be positive");

  std::vector<double> pressure(n);
  for (std::size_t i = 0; i < n; ++i) {
    ensure(density[i] > 0.0, "sph_pressure_forces: non-positive density");
    pressure[i] = (gamma - 1.0) * density[i] * u;
  }

  SphForces forces;
  forces.ax.assign(n, 0.0);
  forces.ay.assign(n, 0.0);
  forces.az.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double pi_term = pressure[i] / (density[i] * density[i]);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) {
        continue;
      }
      const double dx = static_cast<double>(ps.x[j]) - ps.x[i];
      const double dy = static_cast<double>(ps.y[j]) - ps.y[i];
      const double dz = static_cast<double>(ps.z[j]) - ps.z[i];
      const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
      if (r >= 2.0 * h || r == 0.0) {
        continue;
      }
      const double pj_term = pressure[j] / (density[j] * density[j]);
      const double dw = sph_kernel_derivative(r, h);
      const double scale =
          -static_cast<double>(ps.mass[j]) * (pi_term + pj_term) * dw / r;
      // dW/dr < 0 inside the support: the force pushes particles apart.
      forces.ax[i] += scale * (-dx);
      forces.ay[i] += scale * (-dy);
      forces.az[i] += scale * (-dz);
    }
  }
  return forces;
}

}  // namespace pvc::apps
