#pragma once
// miniBUDE: virtual-screening docking kernel (paper §V-A1).
//
// Functional core: evaluates the inter-molecular energy of rigid ligand
// poses against a protein, with a BUDE-style pairwise potential (soft
// steric repulsion + distance-capped electrostatics + desolvation).  The
// kernel is FP32 and embarrassingly parallel over poses — the exact
// structure that makes the real miniBUDE flop-rate bound.
//
// FOM model: Billion interactions per second, where one interaction is a
// (ligand atom, protein atom) pair for one pose.  The model divides the
// achieved FP32 rate (governor frequency x calibrated application
// fraction of peak) by the ~35 flops each interaction costs.  miniBUDE
// is not an MPI app: the paper reports one-Stack numbers only and
// doubles them for one-PVC comparisons (§V-B2).

#include <cstdint>
#include <span>
#include <vector>

#include "arch/gpu_spec.hpp"
#include "core/rng.hpp"
#include "miniapps/fom.hpp"

namespace pvc::miniapps {

/// A 3-D atom with charge and type radius.
struct Atom {
  float x = 0.0f, y = 0.0f, z = 0.0f;
  float radius = 1.5f;
  float charge = 0.0f;
};

/// A rigid-body pose: rotation (ZYX Euler) plus translation.
struct Pose {
  float rx = 0.0f, ry = 0.0f, rz = 0.0f;
  float tx = 0.0f, ty = 0.0f, tz = 0.0f;
};

/// The paper's input deck shape: 2672 ligand atoms, 2672 protein atoms,
/// 983040 poses.
struct BudeDeck {
  std::vector<Atom> protein;
  std::vector<Atom> ligand;
  std::vector<Pose> poses;
};

/// Deterministically generates a deck with `n_protein`/`n_ligand` atoms
/// and `n_poses` poses inside a bounding box.
[[nodiscard]] BudeDeck make_deck(std::size_t n_protein, std::size_t n_ligand,
                                 std::size_t n_poses, std::uint64_t seed);

/// Evaluates the energies of all poses (FP32 math).  `energies` must have
/// one slot per pose.
void evaluate_poses(const BudeDeck& deck, std::span<float> energies);

/// Energy of a single pose against the protein.  Each transformed
/// ligand atom's protein row is summed into four float lanes (lane =
/// protein index & 3), folded as (l0+l2)+(l1+l3).
[[nodiscard]] float pose_energy(const BudeDeck& deck, const Pose& pose);

/// Interactions performed by a full deck evaluation.
[[nodiscard]] double deck_interactions(const BudeDeck& deck);

/// Average flops one interaction costs in the energy kernel (transform
/// amortized over protein atoms): used by the FOM projection.
inline constexpr double kFlopsPerInteraction = 35.0;

/// Fraction of FP32 peak the miniBUDE kernel sustains on each system
/// (paper §V-B2/3: ~45-49% on PVC, ~30% on H100, ~26% on MI250).
[[nodiscard]] double minibude_fp32_fraction(const arch::NodeSpec& node);

/// Table VI row: GInteractions/s on one stack (PVC) or one GPU/GCD.
[[nodiscard]] FomTriple minibude_fom(const arch::NodeSpec& node);

}  // namespace pvc::miniapps
