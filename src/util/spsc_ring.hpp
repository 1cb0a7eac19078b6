#pragma once
// Bounded single-producer / single-consumer ring. The detection daemon's
// ingest path: one coordinator thread pushes routed ops, one shard worker
// pops them. Capacity is fixed at construction (rounded up to a power of
// two), so a full ring is the backpressure signal — try_push() returns
// false and the producer decides (reject upward, or pump the merge side
// and retry). Nothing in here blocks or allocates after construction.
//
// Synchronization is the classic two-counter scheme: head_ is written only
// by the producer, tail_ only by the consumer; each side keeps a cached
// copy of the other's counter and refreshes it (acquire) only when the
// cached value says the ring looks full/empty. The release store on
// head_/tail_ publishes the slot contents to the other side. Counters are
// monotonically increasing (masked on slot access), so head_ - tail_ is
// the live size even across wraparound.

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

namespace at::util {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer side. Returns false when the ring is full; `value` is left
  /// untouched in that case, so the caller can retry the same object.
  [[nodiscard]] bool try_push(T&& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ == slots_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ == slots_.size()) return false;
    }
    slots_[head & mask_].emplace(std::move(value));
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: true when at least `n` slots are free. Reads the
  /// consumer's counter only when the cached copy says there is not enough
  /// room, so a check that passes costs no cross-core traffic.
  [[nodiscard]] bool has_free_slots(std::size_t n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (slots_.size() - (head - cached_tail_) >= n) return true;
    cached_tail_ = tail_.load(std::memory_order_acquire);
    return slots_.size() - (head - cached_tail_) >= n;
  }

  /// Producer side: occupancy against the cached consumer counter — an
  /// upper bound, since the consumer may have popped since. refresh_size()
  /// makes it exact at the price of reading the consumer's counter.
  [[nodiscard]] std::size_t cached_size() const {
    return head_.load(std::memory_order_relaxed) - cached_tail_;
  }
  std::size_t refresh_size() {
    cached_tail_ = tail_.load(std::memory_order_acquire);
    return head_.load(std::memory_order_relaxed) - cached_tail_;
  }

  /// Consumer side: oldest entry, or nullptr when empty. The pointer stays
  /// valid until pop().
  [[nodiscard]] T* front() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (cached_head_ == tail) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (cached_head_ == tail) return nullptr;
    }
    return &*slots_[tail & mask_];
  }

  /// Consumer side: destroy the oldest entry and release its slot.
  /// Precondition: front() returned non-null.
  void pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    slots_[tail & mask_].reset();
    tail_.store(tail + 1, std::memory_order_release);
  }

  /// Any thread: instantaneous size (may be stale by the time it returns).
  [[nodiscard]] std::size_t size_approx() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }

 private:
  std::vector<std::optional<T>> slots_;
  std::size_t mask_ = 0;
  /// Producer-written; consumer reads with acquire to see slot contents.
  alignas(64) std::atomic<std::size_t> head_{0};
  /// Consumer-written; producer reads with acquire before reusing a slot.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::size_t cached_tail_ = 0;  ///< producer-local
  alignas(64) std::size_t cached_head_ = 0;  ///< consumer-local
};

}  // namespace at::util
