#include "arch/topology.hpp"

#include "core/error.hpp"

namespace pvc::arch {

XeLinkTopology::XeLinkTopology(int gpus, std::vector<bool> flipped_cards)
    : gpus_(gpus), flipped_(std::move(flipped_cards)) {
  ensure(gpus_ >= 1, "XeLinkTopology: need at least one GPU");
  ensure(flipped_.size() == static_cast<std::size_t>(gpus_),
         "XeLinkTopology: flipped_cards size must equal gpu count");
}

XeLinkTopology XeLinkTopology::aurora() {
  // Paper §IV-A4: plane 0 holds 0.0 1.1 2.0 3.0 4.0 5.1.
  return XeLinkTopology(6, {false, true, false, false, false, true});
}

XeLinkTopology XeLinkTopology::dawn() {
  return XeLinkTopology(4, {false, true, false, true});
}

void XeLinkTopology::check(StackId s) const {
  ensure(s.gpu >= 0 && s.gpu < gpus_, "XeLinkTopology: bad gpu index");
  ensure(s.stack == 0 || s.stack == 1, "XeLinkTopology: bad stack index");
}

int XeLinkTopology::plane_of(StackId s) const {
  check(s);
  return flipped_[static_cast<std::size_t>(s.gpu)] ? 1 - s.stack : s.stack;
}

std::vector<StackId> XeLinkTopology::plane_members(int plane) const {
  ensure(plane == 0 || plane == 1, "XeLinkTopology: bad plane");
  std::vector<StackId> members;
  for (int g = 0; g < gpus_; ++g) {
    for (int st = 0; st < 2; ++st) {
      const StackId s{g, st};
      if (plane_of(s) == plane) {
        members.push_back(s);
      }
    }
  }
  return members;
}

Route XeLinkTopology::route(StackId src, StackId dst) const {
  check(src);
  check(dst);
  Route r;
  if (src == dst) {
    r.kind = RouteKind::SameStack;
    r.path = {src};
    return r;
  }
  if (src.gpu == dst.gpu) {
    r.kind = RouteKind::LocalMdfi;
    r.path = {src, dst};
    return r;
  }
  if (plane_of(src) == plane_of(dst)) {
    r.kind = RouteKind::XeLinkDirect;
    r.path = {src, dst};
    return r;
  }
  // Cross-plane, cross-card: two driver-selectable paths (paper §IV-A4):
  // via the destination card's partner stack (Xe-Link then MDFI) or via
  // the source card's partner stack (MDFI then Xe-Link).
  r.kind = RouteKind::XeLinkTwoHop;
  const StackId dst_partner{dst.gpu, 1 - dst.stack};
  const StackId src_partner{src.gpu, 1 - src.stack};
  r.path = {src, dst_partner, dst};
  r.alternate = {src, src_partner, dst};
  return r;
}

int XeLinkTopology::flat_index(StackId s) const {
  check(s);
  return s.gpu * 2 + s.stack;
}

StackId XeLinkTopology::from_flat(int index) const {
  ensure(index >= 0 && index < stacks(), "XeLinkTopology: bad flat index");
  return StackId{index / 2, index % 2};
}

}  // namespace pvc::arch
