#pragma once
// CloverLeaf: Lagrangian-Eulerian compressible hydrodynamics (paper
// §V-A2), a memory-bandwidth-bound mini-app.
//
// Functional core: a 2-D staggered-grid solver for the compressible
// Euler equations — ideal-gas EOS, pressure acceleration of node-centred
// velocities, PdV energy update, and first-order donor-cell advection
// sweeps.  Small grids run for real in tests (mass conservation,
// symmetry, shock monotonicity).
//
// FOM model: cells per second.  Each cell step streams a fixed number of
// bytes through HBM, so the per-rank rate is achieved_bandwidth /
// bytes_per_cell_step; the paper's 15360^2 (~47 GB) grid is weak-scaled
// one rank per stack with ring halo exchanges whose cost the comm layer
// prices.

#include <cstddef>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// Cell-centred and node-centred fields of the hydro state.
/// Interior cells are [1, nx] x [1, ny]; one ghost layer all around.
class CloverGrid {
 public:
  CloverGrid(std::size_t nx, std::size_t ny, double dx, double dy);

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }
  [[nodiscard]] double dx() const noexcept { return dx_; }
  [[nodiscard]] double dy() const noexcept { return dy_; }

  // Cell-centred quantities (size (nx+2)*(ny+2)).
  [[nodiscard]] double& density(std::size_t i, std::size_t j);
  [[nodiscard]] double& energy(std::size_t i, std::size_t j);
  [[nodiscard]] double& pressure(std::size_t i, std::size_t j);
  // Node-centred velocities (size (nx+3)*(ny+3)).
  [[nodiscard]] double& velocity_x(std::size_t i, std::size_t j);
  [[nodiscard]] double& velocity_y(std::size_t i, std::size_t j);

  [[nodiscard]] double density(std::size_t i, std::size_t j) const;
  [[nodiscard]] double energy(std::size_t i, std::size_t j) const;
  [[nodiscard]] double pressure(std::size_t i, std::size_t j) const;
  [[nodiscard]] double velocity_x(std::size_t i, std::size_t j) const;
  [[nodiscard]] double velocity_y(std::size_t i, std::size_t j) const;

  /// Total mass over interior cells.
  [[nodiscard]] double total_mass() const;
  /// Total energy (internal + kinetic) over interior cells.
  [[nodiscard]] double total_energy() const;

  /// Reflective boundary fill of the ghost layer.
  void apply_reflective_boundaries();

 private:
  std::size_t cell_index(std::size_t i, std::size_t j) const;
  std::size_t node_index(std::size_t i, std::size_t j) const;

  std::size_t nx_, ny_;
  double dx_, dy_;
  std::vector<double> density_, energy_, pressure_;
  std::vector<double> vel_x_, vel_y_;
};

/// Ideal-gas EOS update: p = (gamma - 1) * rho * e; returns the maximum
/// sound speed (for CFL control).
double update_pressure(CloverGrid& grid, double gamma = 1.4);

/// Stable timestep from the CFL condition.
[[nodiscard]] double compute_timestep(const CloverGrid& grid, double gamma,
                                      double cfl = 0.4);

/// Von Neumann-Richtmyer artificial viscosity: cells under compression
/// get a quadratic q-pressure bump (q = c_q * rho * (dx * div)^2) added
/// to the pressure field, which damps post-shock oscillations exactly
/// like CloverLeaf's viscosity kernel.  Call after update_pressure.
void apply_artificial_viscosity(CloverGrid& grid, double c_q = 2.0);

/// Pressure-gradient acceleration of node velocities over dt.
void accelerate(CloverGrid& grid, double dt);

/// PdV compression/expansion work: updates density and internal energy
/// from the velocity divergence.
void pdv_update(CloverGrid& grid, double dt);

/// Donor-cell advection sweeps (x then y) of mass and energy.
void advect(CloverGrid& grid, double dt);

/// One full hydro step; returns the dt taken.
double hydro_step(CloverGrid& grid, double gamma = 1.4);

/// Initializes the Sod-style shock-tube problem: a dense, energetic
/// region on the left half of the domain.
void initialize_sod(CloverGrid& grid);

// --- FOM model --------------------------------------------------------------

/// Paper problem: 15360^2 cells (~47 GB of state) per rank, weak scaled.
inline constexpr double kPaperCells = 15360.0 * 15360.0;
/// Hydro steps of the benchmark run and HBM bytes one cell streams per
/// step (14 CloverLeaf kernels touching several fields each); calibrated
/// so a 1 TB/s stack produces the paper's ~20.8 Mcells/s FOM.
inline constexpr double kBenchSteps = 87.0;
inline constexpr double kBytesPerCellStep = 552.0;

/// Table VI row: Mcells/s at each scope.  Node scope includes the
/// ring-halo-exchange cost priced by the comm layer.
[[nodiscard]] FomTriple cloverleaf_fom(const arch::NodeSpec& node);

}  // namespace pvc::miniapps
