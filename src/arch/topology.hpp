#pragma once
// Xe-Link node topology and routing (paper §IV-A4).
//
// Every stack belongs to one of two *planes*; stacks in the same plane
// are directly connected by Xe-Link, stacks on the same card by MDFI.
// A transfer between different cards' stacks in *different* planes needs
// two hops: either through the destination card's partner stack or
// through the source card's partner stack.  On Aurora the plane layout is
// (paper notation GPU_ID.STACK_ID):
//   plane 0: 0.0 1.1 2.0 3.0 4.0 5.1
//   plane 1: 0.1 1.0 2.1 3.1 4.1 5.0
// i.e. cards 1 and 5 have their stacks "flipped" relative to the rest.

#include <string>
#include <vector>

namespace pvc::arch {

/// Identifies one Xe-Stack: GPU (card) index and stack index within it.
struct StackId {
  int gpu = 0;
  int stack = 0;

  friend bool operator==(const StackId&, const StackId&) = default;
};

[[nodiscard]] inline std::string to_string(const StackId& s) {
  return std::to_string(s.gpu) + "." + std::to_string(s.stack);
}

/// Classification of the path between two stacks.
enum class RouteKind {
  SameStack,     ///< src == dst
  LocalMdfi,     ///< same card, stack-to-stack interconnect
  XeLinkDirect,  ///< different cards, same plane: one Xe-Link hop
  XeLinkTwoHop   ///< different cards, different planes: two hops
};

/// A resolved route: the sequence of stacks visited (src first, dst
/// last) and its classification.  Two-hop routes list the intermediate
/// stack; `alternate` holds the other driver-selectable path when one
/// exists (paper: 0.0->1.0 can go via 1.1 or via 0.1).
struct Route {
  RouteKind kind = RouteKind::SameStack;
  std::vector<StackId> path;
  std::vector<StackId> alternate;
};

/// All-to-all Xe-Link topology over `gpus` cards of two stacks each.
class XeLinkTopology {
 public:
  /// `flipped_cards[g]` is true when card g's stacks swap planes
  /// (Aurora: cards 1 and 5).  Size must equal `gpus`.
  XeLinkTopology(int gpus, std::vector<bool> flipped_cards);

  /// Builds the paper's Aurora layout (6 cards, cards 1 & 5 flipped).
  [[nodiscard]] static XeLinkTopology aurora();
  /// Builds a structurally analogous 4-card layout for Dawn
  /// (cards 1 and 3 flipped).
  [[nodiscard]] static XeLinkTopology dawn();

  [[nodiscard]] int gpus() const noexcept { return gpus_; }
  [[nodiscard]] int stacks() const noexcept { return gpus_ * 2; }

  /// Plane (0 or 1) that a stack's Xe-Link port lives on.
  [[nodiscard]] int plane_of(StackId s) const;

  /// Members of a plane, in card order.
  [[nodiscard]] std::vector<StackId> plane_members(int plane) const;

  /// Resolves the route from src to dst.
  [[nodiscard]] Route route(StackId src, StackId dst) const;

  /// Flat index (gpu * 2 + stack) used by the comm layer.
  [[nodiscard]] int flat_index(StackId s) const;
  [[nodiscard]] StackId from_flat(int index) const;

 private:
  void check(StackId s) const;

  int gpus_;
  std::vector<bool> flipped_;
};

}  // namespace pvc::arch
