#pragma once
// Discrete-event simulation engine.
//
// pvcbench models a GPU node as a set of resources (compute queues, links,
// memories) whose occupancy evolves in simulated time.  The engine is a
// classic event-calendar: callbacks scheduled at absolute times, executed
// in time order with FIFO tie-breaking, fully deterministic.
//
// Hot-path design (docs/PERFORMANCE.md): the calendar is a hand-rolled
// binary min-heap ordered by (time, seq), and cancellation is
// generation-stamped lazy deletion.  Every event id packs a slot index
// and that slot's generation; cancel() flips the slot's live bit in O(1)
// and the ghost entry is discarded with a single generation comparison
// when it reaches the top of the heap — no hash lookups or linear scans
// anywhere on the schedule/cancel/pop path.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace pvc::sim {

/// Simulated time in seconds.
using Time = double;

/// Handle used to cancel a scheduled event.  Packs (generation << 32) |
/// slot; 0 is never a valid id, so it can serve as a "no event" sentinel.
using EventId = std::uint64_t;

/// Deterministic discrete-event calendar.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` to run at absolute time `when` (>= now()).
  /// Returns an id usable with cancel().
  EventId schedule_at(Time when, std::function<void()> action);

  /// Schedules `action` to run `delay` seconds from now (delay >= 0).
  EventId schedule_after(Time delay, std::function<void()> action);

  /// Cancels a pending event; no-op if already fired or cancelled
  /// (including cancelling from inside a callback at the same
  /// timestamp — the cancelled event will not run).
  void cancel(EventId id);

  /// True while `id` is scheduled and neither fired nor cancelled.
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// Latest time at which run() and step() execute an event.  An event
  /// scheduled past it stays pending and never runs, so inputs that
  /// would schedule one (fault::FaultPlan::parse) reject such times.
  static constexpr Time kHorizon = 1e300;

  /// Runs events until the calendar is empty.  Returns final time.
  Time run();

  /// Runs events with timestamp <= `until`, then advances now() to
  /// `until` (if it is later).  Returns new now().
  Time run_until(Time until);

  /// Executes at most one event with timestamp <= kHorizon.  Returns
  /// whether one ran; false means no live event lies at or before
  /// kHorizon.  Unlike run_until(), the clock is never advanced past the
  /// executed event — comm::Communicator::wait steps the calendar with
  /// this.
  bool step();

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// True if no live events are pending (cancelled ghosts still queued
  /// do not count).
  [[nodiscard]] bool idle() const noexcept { return live_ == 0; }

 private:
  // Heap entries are trivially copyable (24 bytes): the callback itself
  // lives in the slot table, so sift-up/down move plain words instead of
  // std::function objects.
  struct Event {
    Time when = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break for equal timestamps
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };
  // Per-slot record holding the callback and liveness.  `generation` is
  // bumped on every allocation of the slot, so a ghost heap entry
  // carrying an older generation can never be confused with the slot's
  // current event.  (A slot would have to be recycled 2^32 times while
  // one ghost sits in the heap for a stamp to collide — not a realistic
  // calendar.)
  struct Slot {
    std::function<void()> action;
    std::uint32_t generation = 0;
    bool live = false;
  };

  [[nodiscard]] static bool before(const Event& a, const Event& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void heap_push(Event ev);
  Event heap_pop_min();
  bool pop_and_run(Time limit);

  // Slots live in fixed-size chunks so growing the table never moves a
  // Slot (std::function moves during vector reallocation showed up as a
  // quarter of the event loop in profiles).  Each chunk is reserved to
  // kSlotChunkSize up front but constructs a slot only when the calendar
  // first needs it, so a short-lived engine pays for the slots it uses,
  // not for a whole chunk of empty std::function objects.
  static constexpr std::uint32_t kSlotChunkShift = 8;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;
  [[nodiscard]] Slot& slot(std::uint32_t s) noexcept {
    return slot_chunks_[s >> kSlotChunkShift][s & (kSlotChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t s) const noexcept {
    return slot_chunks_[s >> kSlotChunkShift][s & (kSlotChunkSize - 1)];
  }

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // scheduled minus fired minus cancelled
  std::vector<Event> heap_;  // binary min-heap on (when, seq)
  // Monotone fast path: an event scheduled no earlier than the last
  // entry here is appended in O(1) instead of heap-inserted.  The deque
  // stays sorted by construction (appends are monotone, pops take the
  // front), so the calendar minimum is min(tail_.front(), heap_.front())
  // and a sim that schedules in time order never pays a sift at all.
  std::deque<Event> tail_;
  std::vector<std::vector<Slot>> slot_chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace pvc::sim
