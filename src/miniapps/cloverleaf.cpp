#include "miniapps/cloverleaf.hpp"

#include <algorithm>
#include <cmath>

#include "arch/peaks.hpp"
#include "comm/collectives.hpp"
#include "comm/communicator.hpp"
#include "core/error.hpp"
#include "core/units.hpp"
#include "runtime/node_sim.hpp"

namespace pvc::miniapps {

CloverGrid::CloverGrid(std::size_t nx, std::size_t ny, double dx, double dy)
    : nx_(nx), ny_(ny), dx_(dx), dy_(dy) {
  ensure(nx >= 2 && ny >= 2, "CloverGrid: grid too small");
  ensure(dx > 0.0 && dy > 0.0, "CloverGrid: non-positive spacing");
  const std::size_t cells = (nx + 2) * (ny + 2);
  const std::size_t nodes = (nx + 3) * (ny + 3);
  density_.assign(cells, 1.0);
  energy_.assign(cells, 1.0);
  pressure_.assign(cells, 0.0);
  vel_x_.assign(nodes, 0.0);
  vel_y_.assign(nodes, 0.0);
}

std::size_t CloverGrid::cell_index(std::size_t i, std::size_t j) const {
  PVC_ASSERT(i < nx_ + 2 && j < ny_ + 2);
  return j * (nx_ + 2) + i;
}

std::size_t CloverGrid::node_index(std::size_t i, std::size_t j) const {
  PVC_ASSERT(i < nx_ + 3 && j < ny_ + 3);
  return j * (nx_ + 3) + i;
}

double& CloverGrid::density(std::size_t i, std::size_t j) {
  return density_[cell_index(i, j)];
}
double& CloverGrid::energy(std::size_t i, std::size_t j) {
  return energy_[cell_index(i, j)];
}
double& CloverGrid::pressure(std::size_t i, std::size_t j) {
  return pressure_[cell_index(i, j)];
}
double& CloverGrid::velocity_x(std::size_t i, std::size_t j) {
  return vel_x_[node_index(i, j)];
}
double& CloverGrid::velocity_y(std::size_t i, std::size_t j) {
  return vel_y_[node_index(i, j)];
}
double CloverGrid::density(std::size_t i, std::size_t j) const {
  return density_[cell_index(i, j)];
}
double CloverGrid::energy(std::size_t i, std::size_t j) const {
  return energy_[cell_index(i, j)];
}
double CloverGrid::pressure(std::size_t i, std::size_t j) const {
  return pressure_[cell_index(i, j)];
}
double CloverGrid::velocity_x(std::size_t i, std::size_t j) const {
  return vel_x_[node_index(i, j)];
}
double CloverGrid::velocity_y(std::size_t i, std::size_t j) const {
  return vel_y_[node_index(i, j)];
}

double CloverGrid::total_mass() const {
  double mass = 0.0;
  for (std::size_t j = 1; j <= ny_; ++j) {
    for (std::size_t i = 1; i <= nx_; ++i) {
      mass += density(i, j) * dx_ * dy_;
    }
  }
  return mass;
}

double CloverGrid::total_energy() const {
  double total = 0.0;
  for (std::size_t j = 1; j <= ny_; ++j) {
    for (std::size_t i = 1; i <= nx_; ++i) {
      const double rho = density(i, j);
      // Cell kinetic energy from the average of its four corner nodes.
      const double u = 0.25 * (velocity_x(i, j) + velocity_x(i + 1, j) +
                               velocity_x(i, j + 1) + velocity_x(i + 1, j + 1));
      const double v = 0.25 * (velocity_y(i, j) + velocity_y(i + 1, j) +
                               velocity_y(i, j + 1) + velocity_y(i + 1, j + 1));
      total += rho * (energy(i, j) + 0.5 * (u * u + v * v)) * dx_ * dy_;
    }
  }
  return total;
}

void CloverGrid::apply_reflective_boundaries() {
  for (std::size_t j = 0; j < ny_ + 2; ++j) {
    density(0, j) = density(1, j);
    density(nx_ + 1, j) = density(nx_, j);
    energy(0, j) = energy(1, j);
    energy(nx_ + 1, j) = energy(nx_, j);
    pressure(0, j) = pressure(1, j);
    pressure(nx_ + 1, j) = pressure(nx_, j);
  }
  for (std::size_t i = 0; i < nx_ + 2; ++i) {
    density(i, 0) = density(i, 1);
    density(i, ny_ + 1) = density(i, ny_);
    energy(i, 0) = energy(i, 1);
    energy(i, ny_ + 1) = energy(i, ny_);
    pressure(i, 0) = pressure(i, 1);
    pressure(i, ny_ + 1) = pressure(i, ny_);
  }
  // Reflective walls: zero normal velocity on the domain boundary nodes.
  for (std::size_t j = 0; j < ny_ + 3; ++j) {
    velocity_x(1, j) = 0.0;
    velocity_x(nx_ + 1, j) = 0.0;
  }
  for (std::size_t i = 0; i < nx_ + 3; ++i) {
    velocity_y(i, 1) = 0.0;
    velocity_y(i, ny_ + 1) = 0.0;
  }
}

// --- Kernels ---------------------------------------------------------------

double update_pressure(CloverGrid& grid, double gamma) {
  double max_c = 0.0;
  for (std::size_t j = 0; j < grid.ny() + 2; ++j) {
    for (std::size_t i = 0; i < grid.nx() + 2; ++i) {
      const double rho = grid.density(i, j);
      const double e = std::max(0.0, grid.energy(i, j));
      const double p = (gamma - 1.0) * rho * e;
      grid.pressure(i, j) = p;
      if (rho > 0.0) {
        max_c = std::max(max_c, std::sqrt(gamma * p / rho));
      }
    }
  }
  return max_c;
}

double compute_timestep(const CloverGrid& grid, double gamma, double cfl) {
  double dt = 1e30;
  for (std::size_t j = 1; j <= grid.ny(); ++j) {
    for (std::size_t i = 1; i <= grid.nx(); ++i) {
      const double e = std::max(0.0, grid.energy(i, j));
      const double c = std::sqrt(gamma * (gamma - 1.0) * e) + 1e-12;
      const double u = std::fabs(grid.velocity_x(i, j));
      const double v = std::fabs(grid.velocity_y(i, j));
      dt = std::min(dt, cfl * grid.dx() / (c + u + 1e-12));
      dt = std::min(dt, cfl * grid.dy() / (c + v + 1e-12));
    }
  }
  return dt;
}

void apply_artificial_viscosity(CloverGrid& grid, double c_q) {
  for (std::size_t j = 1; j <= grid.ny(); ++j) {
    for (std::size_t i = 1; i <= grid.nx(); ++i) {
      const double du = 0.5 * ((grid.velocity_x(i + 1, j) +
                                grid.velocity_x(i + 1, j + 1)) -
                               (grid.velocity_x(i, j) +
                                grid.velocity_x(i, j + 1)));
      const double dv = 0.5 * ((grid.velocity_y(i, j + 1) +
                                grid.velocity_y(i + 1, j + 1)) -
                               (grid.velocity_y(i, j) +
                                grid.velocity_y(i + 1, j)));
      const double div = du / grid.dx() + dv / grid.dy();
      if (div < 0.0) {  // compression only
        const double dl = std::min(grid.dx(), grid.dy());
        const double q = c_q * grid.density(i, j) * (dl * div) * (dl * div);
        grid.pressure(i, j) += q;
      }
    }
  }
}

void accelerate(CloverGrid& grid, double dt) {
  for (std::size_t j = 2; j <= grid.ny(); ++j) {
    for (std::size_t i = 2; i <= grid.nx(); ++i) {
      const double rho_avg =
          0.25 * (grid.density(i - 1, j - 1) + grid.density(i, j - 1) +
                  grid.density(i - 1, j) + grid.density(i, j));
      if (rho_avg <= 0.0) {
        continue;
      }
      const double dpx =
          0.5 * ((grid.pressure(i, j - 1) - grid.pressure(i - 1, j - 1)) +
                 (grid.pressure(i, j) - grid.pressure(i - 1, j)));
      const double dpy =
          0.5 * ((grid.pressure(i - 1, j) - grid.pressure(i - 1, j - 1)) +
                 (grid.pressure(i, j) - grid.pressure(i, j - 1)));
      grid.velocity_x(i, j) -= dt * dpx / (grid.dx() * rho_avg);
      grid.velocity_y(i, j) -= dt * dpy / (grid.dy() * rho_avg);
    }
  }
}

void pdv_update(CloverGrid& grid, double dt) {
  for (std::size_t j = 1; j <= grid.ny(); ++j) {
    for (std::size_t i = 1; i <= grid.nx(); ++i) {
      const double du = 0.5 * ((grid.velocity_x(i + 1, j) +
                                grid.velocity_x(i + 1, j + 1)) -
                               (grid.velocity_x(i, j) +
                                grid.velocity_x(i, j + 1)));
      const double dv = 0.5 * ((grid.velocity_y(i, j + 1) +
                                grid.velocity_y(i + 1, j + 1)) -
                               (grid.velocity_y(i, j) +
                                grid.velocity_y(i + 1, j)));
      const double div = du / grid.dx() + dv / grid.dy();
      const double rho = grid.density(i, j);
      if (rho <= 0.0) {
        continue;
      }
      grid.energy(i, j) =
          std::max(0.0, grid.energy(i, j) -
                            dt * grid.pressure(i, j) * div / rho);
    }
  }
}

void advect(CloverGrid& grid, double dt) {
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();

  // X sweep: donor-cell mass and energy fluxes at vertical faces.
  std::vector<double> mass_flux((nx + 1) * ny, 0.0);
  std::vector<double> energy_flux((nx + 1) * ny, 0.0);
  for (std::size_t j = 1; j <= ny; ++j) {
    for (std::size_t i = 1; i <= nx + 1; ++i) {
      const double u_face =
          0.5 * (grid.velocity_x(i, j) + grid.velocity_x(i, j + 1));
      const std::size_t donor = u_face >= 0.0 ? i - 1 : i;
      const double rho_d = grid.density(donor, j);
      const double e_d = grid.energy(donor, j);
      const double flux = u_face * dt / grid.dx() * rho_d;
      mass_flux[(j - 1) * (nx + 1) + (i - 1)] = flux;
      energy_flux[(j - 1) * (nx + 1) + (i - 1)] = flux * e_d;
    }
  }
  for (std::size_t j = 1; j <= ny; ++j) {
    for (std::size_t i = 1; i <= nx; ++i) {
      const double m_in = mass_flux[(j - 1) * (nx + 1) + (i - 1)];
      const double m_out = mass_flux[(j - 1) * (nx + 1) + i];
      const double e_in = energy_flux[(j - 1) * (nx + 1) + (i - 1)];
      const double e_out = energy_flux[(j - 1) * (nx + 1) + i];
      const double rho_old = grid.density(i, j);
      const double rho_new = std::max(1e-12, rho_old + m_in - m_out);
      const double rho_e_new = std::max(
          0.0, rho_old * grid.energy(i, j) + e_in - e_out);
      grid.density(i, j) = rho_new;
      grid.energy(i, j) = rho_e_new / rho_new;
    }
  }

  // Y sweep: donor-cell fluxes at horizontal faces.
  std::vector<double> mass_flux_y(nx * (ny + 1), 0.0);
  std::vector<double> energy_flux_y(nx * (ny + 1), 0.0);
  for (std::size_t j = 1; j <= ny + 1; ++j) {
    for (std::size_t i = 1; i <= nx; ++i) {
      const double v_face =
          0.5 * (grid.velocity_y(i, j) + grid.velocity_y(i + 1, j));
      const std::size_t donor = v_face >= 0.0 ? j - 1 : j;
      const double rho_d = grid.density(i, donor);
      const double e_d = grid.energy(i, donor);
      const double flux = v_face * dt / grid.dy() * rho_d;
      mass_flux_y[(j - 1) * nx + (i - 1)] = flux;
      energy_flux_y[(j - 1) * nx + (i - 1)] = flux * e_d;
    }
  }
  for (std::size_t j = 1; j <= ny; ++j) {
    for (std::size_t i = 1; i <= nx; ++i) {
      const double m_in = mass_flux_y[(j - 1) * nx + (i - 1)];
      const double m_out = mass_flux_y[j * nx + (i - 1)];
      const double e_in = energy_flux_y[(j - 1) * nx + (i - 1)];
      const double e_out = energy_flux_y[j * nx + (i - 1)];
      const double rho_old = grid.density(i, j);
      const double rho_new = std::max(1e-12, rho_old + m_in - m_out);
      const double rho_e_new = std::max(
          0.0, rho_old * grid.energy(i, j) + e_in - e_out);
      grid.density(i, j) = rho_new;
      grid.energy(i, j) = rho_e_new / rho_new;
    }
  }
}

double hydro_step(CloverGrid& grid, double gamma) {
  grid.apply_reflective_boundaries();
  update_pressure(grid, gamma);
  apply_artificial_viscosity(grid);
  const double dt = compute_timestep(grid, gamma);
  accelerate(grid, dt);
  pdv_update(grid, dt);
  update_pressure(grid, gamma);
  advect(grid, dt);
  return dt;
}

void initialize_sod(CloverGrid& grid) {
  for (std::size_t j = 0; j < grid.ny() + 2; ++j) {
    for (std::size_t i = 0; i < grid.nx() + 2; ++i) {
      const bool left = i <= grid.nx() / 2;
      grid.density(i, j) = left ? 1.0 : 0.125;
      grid.energy(i, j) = left ? 2.5 : 2.0;
    }
  }
}

FomTriple cloverleaf_fom(const arch::NodeSpec& node) {
  // Per-rank compute time of the benchmark run: every cell streams
  // kBytesPerCellStep bytes per step at the achieved stream bandwidth.
  const double bw = arch::subdevice_stream_bandwidth(node);
  const double compute_s = kPaperCells * kBytesPerCellStep * kBenchSteps / bw;

  // Halo exchange cost at node scale, priced by the comm layer: four
  // field rows (plus corners) per neighbour per step.
  rt::NodeSim sim(node);
  auto comm = comm::Communicator::explicit_scaling(sim);
  const double halo_bytes = 15360.0 * 8.0 * 4.0;
  const sim::Time t0 = sim.engine().now();
  const sim::Time t1 = comm::halo_exchange_ring(comm, halo_bytes);
  const double halo_s = (t1 - t0) * kBenchSteps;

  const double per_rank_mcells =
      kPaperCells / compute_s / 1.0e6;  // one rank, no communication
  const int subdevices = node.total_subdevices();
  const double node_mcells = kPaperCells * subdevices /
                             (compute_s + halo_s) / 1.0e6;

  FomTriple fom;
  if (has_stacks(node)) {
    fom.one_stack = per_rank_mcells;
    fom.one_gpu = 2.0 * kPaperCells / (compute_s) / 1.0e6;
  } else {
    fom.one_gpu = per_rank_mcells;
  }
  fom.node = node_mcells;
  return fom;
}

}  // namespace pvc::miniapps
