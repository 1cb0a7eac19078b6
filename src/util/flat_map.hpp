#pragma once
// Open-addressed hash table keyed by 64-bit integers: the per-source and
// per-key state of the traffic plane (Zeek's window and beacon state, the
// scan recorder, the correlator's dedup window, the SSH auditor) and the
// BHR's /24 host-page directory. One flat array of {key, value} slots
// probed linearly from a mix64 home slot, so a lookup touches one or two
// adjacent slots instead of std::unordered_map's bucket -> node -> payload
// chain of dependent cache misses. A slot is the key plus the value (16
// bytes for an 8-byte value); there is no occupancy flag: an empty slot
// holds kEmptyKey, and the value of that one key lives beside the array.
// The table doubles at 3/4 load and erases by backward shift, so it never
// holds tombstones. erase_if, the bulk prune, also shrinks it: once fewer
// than 1/8 of the slots are in use, the survivors move into the smallest
// power of two of at least kMinSlots and twice their count, so a pruned
// flood gives its memory back. erase(key) never shrinks, so alternating
// single inserts and erases cannot thrash.
//
// Pointers and references into the table do not survive an insert
// (operator[] or try_emplace on a new key may rehash), an erase or an
// erase_if. Iteration order is the slot order: deterministic for a given
// sequence of operations (an erase_if that shrinks reorders it), but
// unrelated to key order, so readers that print or rank must sort.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace at::util {

template <typename V>
class FlatMap {
 public:
  /// The key that marks an empty slot; its value is kept outside the slots.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  [[nodiscard]] std::size_t size() const noexcept { return size_ + (has_empty_key_ ? 1 : 0); }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] V* find(std::uint64_t key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const V* find(std::uint64_t key) const noexcept {
    if (key == kEmptyKey) return has_empty_key_ ? &empty_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }

  /// Find-or-insert in one probe: the value stored under `key` (value-
  /// initialized if absent) and whether this call inserted it. Only an
  /// insert that grows the table probes again, in the new array.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    if (key == kEmptyKey) {
      return {&empty_key_value_, !std::exchange(has_empty_key_, true)};
    }
    if (slots_.empty()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmptyKey; i = next(i)) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = free_slot(key);
    }
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// The value stored under `key`, value-initialized on first use.
  V& operator[](std::uint64_t key) { return *try_emplace(key).first; }

  /// Calls f(key, value) once per entry, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) f(slot.key, slot.value);
    }
    if (has_empty_key_) f(kEmptyKey, empty_key_value_);
  }

  /// Erases the entry under `key`; returns whether there was one.
  bool erase(std::uint64_t key) {
    if (key == kEmptyKey) {
      if (!has_empty_key_) return false;
      has_empty_key_ = false;
      empty_key_value_ = V{};
      return true;
    }
    if (slots_.empty()) return false;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == key) {
        erase_at(i);
        return true;
      }
      if (slots_[i].key == kEmptyKey) return false;
    }
  }

  /// Erases every entry for which pred(key, value) holds, calling pred
  /// exactly once per entry, then shrinks a table left under 1/8 full;
  /// returns how many were erased.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t erased = 0;
    if (has_empty_key_ && pred(kEmptyKey, empty_key_value_)) {
      has_empty_key_ = false;
      empty_key_value_ = V{};
      ++erased;
    }
    if (size_ == 0) return erased;
    // Start just past an empty slot. A backward shift never moves an entry
    // across an empty slot, so the entries shifted into position i come
    // from later in this pass, and none is visited twice.
    std::size_t i = 0;
    while (slots_[i].key != kEmptyKey) ++i;
    for (std::size_t visited = 0; visited < slots_.size();) {
      i = next(i);
      while (slots_[i].key != kEmptyKey && pred(slots_[i].key, slots_[i].value)) {
        erase_at(i);
        ++erased;
      }
      ++visited;
    }
    if (size_ * 8 < slots_.size()) {
      const std::size_t shrunk = std::bit_ceil(std::max(kMinSlots, 2 * size_));
      if (shrunk < slots_.size()) rehash(shrunk);
    }
    return erased;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key)) & mask();
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask(); }
  [[nodiscard]] std::size_t free_slot(std::uint64_t key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) i = next(i);
    return i;
  }

  void grow() { rehash(slots_.empty() ? kMinSlots : 2 * slots_.size()); }

  /// Moves every entry into a fresh array of `count` slots (a power of two
  /// with room for them all).
  void rehash(std::size_t count) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(count));
    for (Slot& slot : old) {
      if (slot.key != kEmptyKey) slots_[free_slot(slot.key)] = std::move(slot);
    }
  }

  /// Backward-shift deletion: later entries of the probe run move into the
  /// hole unless their home slot lies cyclically in (hole, j].
  void erase_at(std::size_t hole) {
    --size_;
    for (std::size_t j = next(hole); slots_[j].key != kEmptyKey; j = next(j)) {
      if (((j - home(slots_[j].key)) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  ///< entries in slots_ (excludes kEmptyKey's)
  bool has_empty_key_ = false;
  V empty_key_value_{};
};

}  // namespace at::util
