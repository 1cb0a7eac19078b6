#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>

namespace at::sim::detail {

namespace {

/// Max-order for std::*_heap → the vector front is the (when, seq) minimum.
bool overflow_later(util::SimTime a_when, std::uint64_t a_seq, util::SimTime b_when,
                    std::uint64_t b_seq) noexcept {
  if (a_when != b_when) return a_when > b_when;
  return a_seq > b_seq;
}

}  // namespace

TimerQueue::TimerQueue(util::SimTime origin)
    : origin_(origin), buckets_(kWheelSize), occupied_(kWheelSize / 64, 0) {}

std::uint32_t TimerQueue::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t index = free_head_;
    free_head_ = next_[index];
    next_[index] = kNil;
    return index;
  }
  if ((slot_count_ & (kSlabChunkSize - 1)) == 0) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabChunkSize));
  }
  prev_.push_back(kNil);
  next_.push_back(kNil);
  return slot_count_++;
}

void TimerQueue::free_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  slot.callback.reset();
  slot.state = SlotState::kFree;
  prev_[index] = kNil;
  // Generation bump invalidates every outstanding id for this slot; 0 is
  // skipped so an EventId can never collapse to the null sentinel.
  if (++slot.gen == 0) slot.gen = 1;
  next_[index] = free_head_;
  free_head_ = index;
}

void TimerQueue::bucket_link(std::uint64_t offset, std::uint32_t index) {
  Bucket& bucket = buckets_[offset & (kWheelSize - 1)];
  next_[index] = kNil;
  prev_[index] = bucket.tail;
  if (bucket.tail != kNil) {
    next_[bucket.tail] = index;
  } else {
    bucket.head = index;
  }
  bucket.tail = index;
  const std::uint64_t bit = offset - window_base_;
  occupied_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  ++window_live_;
}

void TimerQueue::bucket_unlink(std::uint64_t offset, std::uint32_t index) {
  Bucket& bucket = buckets_[offset & (kWheelSize - 1)];
  const std::uint32_t prev = prev_[index];
  const std::uint32_t next = next_[index];
  if (prev != kNil) {
    next_[prev] = next;
  } else {
    bucket.head = next;
  }
  if (next != kNil) {
    prev_[next] = prev;
  } else {
    bucket.tail = prev;
  }
  prev_[index] = kNil;
  next_[index] = kNil;
  if (bucket.head == kNil) {
    const std::uint64_t bit = offset - window_base_;
    occupied_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
  }
  --window_live_;
}

bool TimerQueue::first_occupied(std::uint64_t& offset_out) const {
  // Nothing can live behind the drain cursor, so start the scan there.
  const std::uint64_t start = cursor_ > window_base_ ? cursor_ - window_base_ : 0;
  if (start >= kWheelSize) return false;
  std::size_t word_index = start >> 6;
  std::uint64_t word = occupied_[word_index] & (~std::uint64_t{0} << (start & 63));
  for (;;) {
    if (word != 0) {
      offset_out = window_base_ + (word_index << 6) +
                   static_cast<std::uint64_t>(std::countr_zero(word));
      return true;
    }
    if (++word_index == occupied_.size()) return false;
    word = occupied_[word_index];
  }
}

void TimerQueue::overflow_push(OverflowItem item) {
  overflow_.push_back(item);
  std::push_heap(overflow_.begin(), overflow_.end(),
                 [](const OverflowItem& a, const OverflowItem& b) {
                   return overflow_later(a.when, a.seq, b.when, b.seq);
                 });
}

TimerQueue::OverflowItem TimerQueue::overflow_pop_top() {
  std::pop_heap(overflow_.begin(), overflow_.end(),
                [](const OverflowItem& a, const OverflowItem& b) {
                  return overflow_later(a.when, a.seq, b.when, b.seq);
                });
  const OverflowItem item = overflow_.back();
  overflow_.pop_back();
  return item;
}

void TimerQueue::overflow_compact() {
  // Lazy-cancelled residents pile up only in the heap; sweep them out and
  // reclaim their slots once they outnumber the live population.
  std::size_t kept = 0;
  for (const OverflowItem& item : overflow_) {
    if (slot_at(item.slot).state == SlotState::kOverflowDead) {
      free_slot(item.slot);
    } else {
      overflow_[kept++] = item;
    }
  }
  overflow_.resize(kept);
  std::make_heap(overflow_.begin(), overflow_.end(),
                 [](const OverflowItem& a, const OverflowItem& b) {
                   return overflow_later(a.when, a.seq, b.when, b.seq);
                 });
}

bool TimerQueue::peek_overflow(util::SimTime& when_out) {
  if (overflow_.size() == overflow_live_) {
    // No lazy-cancelled items anywhere in the heap: the front is live, so
    // skip the per-peek slot-state load (a random slab touch on a hot path).
    if (overflow_.empty()) return false;
    when_out = overflow_.front().when;
    return true;
  }
  while (!overflow_.empty()) {
    const OverflowItem& top = overflow_.front();
    if (slot_at(top.slot).state != SlotState::kOverflowDead) {
      when_out = top.when;
      return true;
    }
    const std::uint32_t dead = top.slot;
    overflow_pop_top();
    free_slot(dead);
  }
  return false;
}

bool TimerQueue::rebase_onto_overflow() {
  util::SimTime min_when = 0;
  if (!peek_overflow(min_when)) return false;
  // Align the new window so bucket index == offset - base stays a bijection
  // over the covered span; every heap item is >= the minimum, so nothing
  // pulled below can land behind the new base.
  window_base_ = offset_of(min_when) & ~static_cast<std::uint64_t>(kWheelSize - 1);
  ++counters_.rebases;
  const std::uint64_t limit = window_base_ + kWheelSize;
  while (!overflow_.empty()) {
    const OverflowItem& top = overflow_.front();
    if (slot_at(top.slot).state == SlotState::kOverflowDead) {
      const std::uint32_t dead = top.slot;
      overflow_pop_top();
      free_slot(dead);
      continue;
    }
    if (offset_of(top.when) >= limit) break;
    // Heap pops arrive in (when, seq) order, so each bucket receives its
    // events already seq-sorted — the tail append keeps the bucket's
    // drain order identical to the seed heap without any sort.
    const OverflowItem item = overflow_pop_top();
    Slot& slot = slot_at(item.slot);
    slot.state = SlotState::kWheel;
    bucket_link(offset_of(slot.when), item.slot);
    --overflow_live_;
  }
  // Everything below window_base_ + kWheelSize was pulled, so no heap
  // resident sits behind the (new) base anymore.
  behind_live_ = 0;
  return true;
}

EventId TimerQueue::schedule(util::SimTime when, CallbackSlot&& callback) {
  const std::uint64_t offset = offset_of(when);
  const std::uint32_t index = alloc_slot();
  Slot& slot = slot_at(index);
  slot.when = when;
  slot.seq = next_seq_++;
  slot.callback = std::move(callback);
  if (offset >= window_base_ && offset - window_base_ < kWheelSize) {
    slot.state = SlotState::kWheel;
    bucket_link(offset, index);
    ++counters_.wheel_events;
  } else {
    // Beyond the window (or behind a re-based window while the floor
    // lags): park in the far heap; pop_due interleaves it correctly.
    slot.state = SlotState::kOverflow;
    overflow_push({when, slot.seq, index});
    ++overflow_live_;
    if (offset < window_base_) ++behind_live_;
    ++counters_.overflow_events;
  }
  ++live_;
  ++counters_.scheduled;
  if (live_ > counters_.max_pending) counters_.max_pending = live_;
  return make_id(slot, index);
}

bool TimerQueue::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (index >= slot_count_) return false;
  Slot& slot = slot_at(index);
  if (slot.gen != gen || slot.state == SlotState::kFree ||
      slot.state == SlotState::kOverflowDead) {
    return false;
  }
  ++counters_.cancelled;
  --live_;
  if (slot.state == SlotState::kWheel) {
    // Immediate unlink: no tombstone ever reaches the drain loop.
    bucket_unlink(offset_of(slot.when), index);
    free_slot(index);
  } else {
    slot.callback.reset();
    slot.state = SlotState::kOverflowDead;
    --overflow_live_;
    // window_base_ only moves at re-base, which zeroes behind_live_, so
    // this classification matches the one made at schedule() time.
    if (offset_of(slot.when) < window_base_) --behind_live_;
    if (overflow_.size() > 2 * overflow_live_ + 64) overflow_compact();
  }
  return true;
}

bool TimerQueue::pop_due(util::SimTime until, CallbackSlot& out, util::SimTime& fired_at,
                         EventId& id) {
  for (;;) {
    if (live_ == 0) return false;
    if (window_live_ == 0) {
      if (!rebase_onto_overflow()) return false;
      continue;
    }
    std::uint64_t wheel_offset = 0;
    if (!first_occupied(wheel_offset)) {
      // The floor advanced past the whole window (idle run_until); every
      // remaining event is in the far heap.
      if (!rebase_onto_overflow()) return false;
      continue;
    }
    const util::SimTime wheel_when = origin_ + static_cast<util::SimTime>(wheel_offset);
    // Only a heap resident scheduled *behind* the window (re-base ran
    // ahead while the floor lagged) can precede the wheel head; everything
    // else in the heap is >= window_base_ + kWheelSize > wheel_when. The
    // behind-counter makes that test two loads instead of a heap peek.
    if (behind_live_ != 0) {
      util::SimTime heap_when = 0;
      if (peek_overflow(heap_when) && heap_when < wheel_when) {
        // The window and the heap never share a timestamp — the window
        // owns [base, base + size) exclusively — so comparing `when`
        // alone preserves (when, seq).
        if (heap_when > until) return false;
        const OverflowItem item = overflow_pop_top();
        Slot& slot = slot_at(item.slot);
        out = std::move(slot.callback);
        fired_at = slot.when;
        id = make_id(slot, item.slot);
        const std::uint64_t offset = offset_of(slot.when);
        if (offset > cursor_) cursor_ = offset;
        --overflow_live_;
        --behind_live_;
        --live_;
        free_slot(item.slot);
        return true;
      }
    }
    if (wheel_when > until) return false;
    cursor_ = wheel_offset;
    const std::uint32_t index = buckets_[wheel_offset & (kWheelSize - 1)].head;
    Slot& slot = slot_at(index);
    if (next_[index] != kNil) {
      // The bucket successor is the very next pop. At realistic widths its
      // slot was last touched tens of thousands of events ago and sits in
      // L3; starting the fetch now lets the callback the caller is about
      // to run hide the whole miss.
      const char* next_slot = reinterpret_cast<const char*>(&slot_at(next_[index]));
      __builtin_prefetch(next_slot);
      __builtin_prefetch(next_slot + 64);
    }
    out = std::move(slot.callback);
    fired_at = slot.when;
    id = make_id(slot, index);
    bucket_unlink(wheel_offset, index);
    --live_;
    free_slot(index);
    return true;
  }
}

void TimerQueue::advance_floor(util::SimTime t) {
  if (t <= floor_time()) return;
  cursor_ = offset_of(t);
}

std::size_t TimerQueue::count_due(util::SimTime until) const {
  if (live_ == 0 || until < origin_) return 0;
  const std::uint64_t limit = offset_of(until);  // inclusive
  std::size_t due = 0;
  // Wheel residents: walk the occupied bitmap over [cursor_, limit] within
  // the window; each set bit's bucket list is entirely due (a bucket holds
  // exactly one timestamp).
  if (limit >= window_base_) {
    const std::uint64_t start = cursor_ > window_base_ ? cursor_ - window_base_ : 0;
    const std::uint64_t end =
        std::min<std::uint64_t>(limit - window_base_, kWheelSize - 1);
    if (start < kWheelSize && start <= end) {
      for (std::uint64_t w = start >> 6; w <= (end >> 6); ++w) {
        std::uint64_t word = occupied_[w];
        if (w == (start >> 6)) word &= ~std::uint64_t{0} << (start & 63);
        if (w == (end >> 6) && (end & 63) != 63) {
          word &= (std::uint64_t{1} << ((end & 63) + 1)) - 1;
        }
        while (word != 0) {
          const auto bit = static_cast<std::uint64_t>(std::countr_zero(word));
          word &= word - 1;
          const Bucket& bucket = buckets_[((w << 6) + bit) & (kWheelSize - 1)];
          for (std::uint32_t i = bucket.head; i != kNil; i = next_[i]) ++due;
        }
      }
    }
  }
  // Overflow residents: (when, seq) heap order means a node's children are
  // no earlier, so a DFS pruned at `when > until` visits only the due
  // prefix. Lazily-cancelled tombstones stay parked until they surface.
  std::vector<std::size_t> stack;
  if (!overflow_.empty() && overflow_.front().when <= until) stack.push_back(0);
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    if (slot_at(overflow_[i].slot).state == SlotState::kOverflow) ++due;
    for (const std::size_t child : {2 * i + 1, 2 * i + 2}) {
      if (child < overflow_.size() && overflow_[child].when <= until) {
        stack.push_back(child);
      }
    }
  }
  return due;
}

}  // namespace at::sim::detail
