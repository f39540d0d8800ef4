#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace pvc::sim {

namespace {

constexpr std::uint64_t kSlotBits = 32;

[[nodiscard]] constexpr std::uint32_t id_slot(EventId id) noexcept {
  return static_cast<std::uint32_t>(id);
}
[[nodiscard]] constexpr std::uint32_t id_generation(EventId id) noexcept {
  return static_cast<std::uint32_t>(id >> kSlotBits);
}
[[nodiscard]] constexpr EventId make_id(std::uint32_t slot,
                                        std::uint32_t generation) noexcept {
  return (static_cast<EventId>(generation) << kSlotBits) | slot;
}

}  // namespace

void Engine::heap_push(Event ev) {
  // Hole-based sift-up: the new element is written only once, at its
  // final position.
  std::size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (before(ev, heap_[parent])) {
      heap_[i] = heap_[parent];
      i = parent;
    } else {
      break;
    }
  }
  heap_[i] = ev;
}

Engine::Event Engine::heap_pop_min() {
  const Event min = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n != 0) {
    // Bottom-up sift (Wegener): walk the root hole down to a leaf along
    // min-children (one comparison per level instead of two), then
    // bubble the displaced last element up from the leaf.  `last` came
    // from the bottom of the heap, so the bubble-up almost always stops
    // immediately — roughly halving comparisons per pop.
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      heap_[i] = heap_[child];
      i = child;
    }
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (before(last, heap_[parent])) {
        heap_[i] = heap_[parent];
        i = parent;
      } else {
        break;
      }
    }
    heap_[i] = last;
  }
  return min;
}

EventId Engine::schedule_at(Time when, std::function<void()> action) {
  ensure(when >= now_, "Engine: cannot schedule in the past");
  ensure(static_cast<bool>(action), "Engine: empty action");
  std::uint32_t idx;
  if (free_slots_.empty()) {
    if ((slot_count_ >> kSlotChunkShift) == slot_chunks_.size()) {
      slot_chunks_.emplace_back().reserve(kSlotChunkSize);
    }
    slot_chunks_.back().emplace_back();  // within capacity: no slot moves
    idx = slot_count_++;
  } else {
    idx = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slot(idx);
  if (++s.generation == 0) {
    ++s.generation;  // skip 0 on wrap so no id is ever the 0 sentinel
  }
  s.action = std::move(action);
  s.live = true;
  ++live_;
  const Event ev{when, next_seq_++, idx, s.generation};
  if (tail_.empty() || !before(ev, tail_.back())) {
    tail_.push_back(ev);  // monotone fast path: O(1), no sift
  } else {
    heap_push(ev);
  }
  return make_id(idx, s.generation);
}

EventId Engine::schedule_after(Time delay, std::function<void()> action) {
  ensure(delay >= 0.0, "Engine: negative delay");
  return schedule_at(now_ + delay, std::move(action));
}

void Engine::cancel(EventId id) {
  // Only the slot's current event can be cancelled: a stale generation
  // (already fired, already cancelled, or never scheduled) is an exact
  // no-op, so double-cancel and cancel-after-fire stay harmless.
  const std::uint32_t idx = id_slot(id);
  if (idx >= slot_count_) {
    return;
  }
  Slot& s = slot(idx);
  if (s.generation == id_generation(id) && s.live) {
    s.live = false;  // the heap entry becomes a ghost, skipped at pop
    s.action = nullptr;  // release the closure's captures eagerly
    --live_;
    free_slots_.push_back(idx);
  }
}

bool Engine::pending(EventId id) const noexcept {
  const std::uint32_t idx = id_slot(id);
  return idx < slot_count_ && slot(idx).generation == id_generation(id) &&
         slot(idx).live;
}

bool Engine::pop_and_run(Time limit) {
  while (!heap_.empty() || !tail_.empty()) {
    // The calendar minimum is the smaller of the two structure fronts.
    const bool from_tail =
        !tail_.empty() &&
        (heap_.empty() || before(tail_.front(), heap_.front()));
    const Event& top = from_tail ? tail_.front() : heap_.front();
    if (top.when > limit) {
      // The minimum lies beyond the limit, so every entry does — live
      // or ghost.  Ghosts past the limit are purged on later pops.
      return false;
    }
    const Event ev = from_tail ? tail_.front() : heap_pop_min();
    if (from_tail) {
      tail_.pop_front();
    }
    Slot& s = slot(ev.slot);
    if (s.generation != ev.generation || !s.live) {
      continue;  // cancelled ghost — one O(1) stamp check, no std::find
    }
    // Move the callback out before freeing the slot: the callback may
    // schedule new events that recycle this very slot.
    std::function<void()> action = std::move(s.action);
    s.action = nullptr;
    s.live = false;
    --live_;
    free_slots_.push_back(ev.slot);
    now_ = ev.when;
    ++executed_;
    action();
    return true;
  }
  return false;
}

bool Engine::step() { return pop_and_run(kHorizon); }

Time Engine::run() {
  while (pop_and_run(kHorizon)) {
  }
  return now_;
}

Time Engine::run_until(Time until) {
  ensure(until >= now_, "Engine: run_until into the past");
  while (pop_and_run(until)) {
  }
  now_ = std::max(now_, until);
  return now_;
}

}  // namespace pvc::sim
