#pragma once
// Single-threaded core of the discrete-event scheduler: a calendar timing
// wheel over slab-allocated event slots, with a far-future overflow heap.
// sim::Engine wraps one TimerQueue behind its mutex; everything here
// assumes external serialization.
//
// Layout
//   - Slab: every pending event is one Slot in a chunked slab (fixed-size
//     chunks, never relocated), recycled through a free list. An EventId
//     is (generation << 32) | slot-index, so cancel() is two loads and a
//     compare — no hash table.
//     Generations start at 1 and bump on every free, which keeps ids
//     unique across reuse and keeps id 0 available as a null sentinel.
//   - Wheel: one level of kWheelSize one-tick buckets covering the aligned
//     window [window_base_, window_base_ + kWheelSize) of time offsets
//     from the engine origin. A bucket holds events of exactly one
//     timestamp as a doubly-linked list threaded through compact per-slot
//     link arrays (cache-friendlier than links inside the 96-byte slots),
//     so cancellation unlinks in O(1) and no tombstone is ever drained. An
//     occupancy bitmap finds the next non-empty bucket in a few word ops.
//   - Overflow: events beyond the window sit in a (when, seq) min-heap.
//     When the window drains, the wheel re-bases onto the heap's earliest
//     event and pulls everything that now fits — each far-future event
//     pays one heap round-trip total, the seed cost, while near events
//     (the 26.85M-scans-per-hour regime) never touch the heap at all.
//
// Ordering: execution order is (when, seq), byte-identical to the seed
// binary heap. Within a bucket the list is always seq-sorted without any
// explicit sort: heap pulls arrive in globally sorted order during a
// re-base, and every later direct insert carries a larger seq, so tail
// append preserves the invariant (tests/test_sim_oracle.cpp proves this
// against a reference heap engine over randomized traces).

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/callback_slot.hpp"
#include "util/time_utils.hpp"

namespace at::sim {

using EventId = std::uint64_t;

namespace detail {

class TimerQueue {
 public:
  static constexpr std::size_t kWheelBits = 12;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;  // 4096 ticks

  struct Counters {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t wheel_events = 0;     ///< events placed directly in the wheel
    std::uint64_t overflow_events = 0;  ///< events routed through the far heap
    std::uint64_t rebases = 0;          ///< window re-base operations
    std::size_t max_pending = 0;        ///< high-water mark of live events
  };

  explicit TimerQueue(util::SimTime origin);

  /// Lowest admissible `when` for a new event: the engine clock as the
  /// drain loop sees it. Advances monotonically.
  [[nodiscard]] util::SimTime floor_time() const noexcept {
    return origin_ + static_cast<util::SimTime>(cursor_);
  }

  /// Number of pending (scheduled, not yet executed or cancelled) events.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Insert an event; `when` must be >= floor_time() (caller-checked).
  EventId schedule(util::SimTime when, CallbackSlot&& callback);

  /// O(1) for wheel-resident events (immediate unlink), lazy for overflow
  /// residents (slot dies now, the heap entry evaporates when it surfaces).
  /// Returns false for unknown/already-run/already-cancelled ids.
  bool cancel(EventId id);

  /// Extract the earliest (when, seq) event with when <= until. Advances
  /// the floor to the fired event's time and frees its slot before
  /// returning, so a cancel() of the in-flight event reports false (same
  /// contract as the seed's erase-at-pop).
  bool pop_due(util::SimTime until, CallbackSlot& out, util::SimTime& fired_at,
               EventId& id);

  /// Raise the floor to `t` (no-op if behind); run_until's idle advance.
  void advance_floor(util::SimTime t);

  /// Count pending events with deadline <= until, without popping them.
  /// Cost is bounded by the due population (occupied-bucket walk over the
  /// due window span plus a heap-prefix DFS), not by live() — the BHR uses
  /// it to report active blocks as table size minus due-but-unreaped
  /// expiries, the same contract its lazy min-heap DFS used to provide.
  [[nodiscard]] std::size_t count_due(util::SimTime until) const;

 private:
  enum class SlotState : std::uint8_t { kFree, kWheel, kOverflow, kOverflowDead };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  // The slab grows in fixed chunks that are never relocated: a plain
  // vector<Slot> re-run every CallbackSlot's relocate op on growth, which
  // dominated the far-future benchmark (70% of wall time in realloc).
  static constexpr std::uint32_t kSlabChunkBits = 12;
  static constexpr std::uint32_t kSlabChunkSize = 1u << kSlabChunkBits;

  // Bucket/free-list links live in prev_/next_, parallel compact arrays,
  // NOT in the slot: appending to a bucket writes the old tail's next
  // pointer, a random line in a multi-MB slab at realistic widths (one
  // unhidden LLC miss per schedule). In a 4-byte-per-slot array the same
  // write stays L2-resident.
  struct Slot {
    util::SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
    SlotState state = SlotState::kFree;
    CallbackSlot callback;
  };

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  struct OverflowItem {
    util::SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = kNil;
  };

  [[nodiscard]] std::uint64_t offset_of(util::SimTime when) const noexcept {
    return static_cast<std::uint64_t>(when - origin_);
  }
  [[nodiscard]] static EventId make_id(const Slot& slot, std::uint32_t index) noexcept {
    return (static_cast<EventId>(slot.gen) << 32) | index;
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t index) noexcept {
    return slabs_[index >> kSlabChunkBits][index & (kSlabChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t index) const noexcept {
    return slabs_[index >> kSlabChunkBits][index & (kSlabChunkSize - 1)];
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index);

  void bucket_link(std::uint64_t offset, std::uint32_t index);
  void bucket_unlink(std::uint64_t offset, std::uint32_t index);

  /// First occupied wheel offset >= max(cursor_, window_base_), or false.
  bool first_occupied(std::uint64_t& offset_out) const;

  /// Earliest live overflow deadline; pops (and frees) dead tombstones off
  /// the heap top on the way.
  bool peek_overflow(util::SimTime& when_out);

  /// Re-base the (empty) wheel window onto the earliest live overflow
  /// event and pull every event that fits the new window. Returns false
  /// when the heap had no live events.
  bool rebase_onto_overflow();

  void overflow_push(OverflowItem item);
  OverflowItem overflow_pop_top();
  void overflow_compact();

  util::SimTime origin_;
  std::uint64_t cursor_ = 0;       ///< drain position (offset); the floor
  std::uint64_t window_base_ = 0;  ///< aligned to kWheelSize
  std::size_t live_ = 0;
  std::size_t window_live_ = 0;    ///< live events currently in buckets
  std::size_t overflow_live_ = 0;  ///< live (non-cancelled) heap residents
  std::size_t behind_live_ = 0;    ///< live heap residents behind window_base_
  std::uint64_t next_seq_ = 0;

  std::vector<std::unique_ptr<Slot[]>> slabs_;  ///< kSlabChunkSize each
  std::uint32_t slot_count_ = 0;                ///< slots ever constructed
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint32_t> prev_;  ///< bucket back-link per slot
  std::vector<std::uint32_t> next_;  ///< bucket/free-list forward link per slot
  std::vector<Bucket> buckets_;          // kWheelSize entries
  std::vector<std::uint64_t> occupied_;  // kWheelSize bits
  std::vector<OverflowItem> overflow_;   // min-heap by (when, seq)
  Counters counters_;
};

}  // namespace detail
}  // namespace at::sim
