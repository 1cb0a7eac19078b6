#pragma once
// Lock-free-read LPM block trie: the BHR's line-rate lookup index.
//
// Layout — a compressed level-16/8/8 trie over the IPv4 space:
//   - L1: one flat array of 65,536 atomic slots indexed by the top 16 bits
//     (512 KiB, allocated once; the whole hot working set for realistic
//     scanner distributions).
//   - L2: 256-slot interior nodes (one per populated /16).
//   - L3: 256-entry leaves (one per populated /24) holding a per-host
//     expiry word: 0 = clear, kPermanent = permanent block, anything else
//     the absolute expiry time. A probe is blocked when its word is
//     permanent or still in the future — expired entries go dark for
//     readers immediately and are physically reaped later by the owner's
//     timing-wheel expiry pass.
//
// Slot encoding (uintptr_t, low two tag bits):
//   0                  empty
//   1                  covered: every address below is permanently blocked
//   (expiry << 2) | 2  covered with a TTL (whole-prefix block)
//   ptr (tag 00)       child node/leaf pointer (>= 4-byte aligned)
// Cover tags terminate lookups above the host level — that is the CIDR
// aggregation: a /24 whose 256 hosts are all permanently blocked collapses
// into one L2 cover slot, a fully covered /16 into one L1 slot, mirroring
// how the real BHR blackholes entire scanner nets. The collapse is exact:
// lookups are indistinguishable from the per-host table.
//
// Concurrency — single-structure RCU:
//   - Readers (lookup/lookup_batch) run lock-free under an EpochGuard:
//     pointer slots are acquire-loaded, per-host expiry words are plain
//     atomic values. No read ever blocks on a writer.
//   - Writers serialize on write_mu_. Structural changes never mutate a
//     reachable node into a different shape: expansion builds the new
//     node fully before a release-store publishes it; collapse/removal
//     swings the parent slot then retire()s the old subtree to the epoch
//     domain, which frees it after the grace period.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/cidr.hpp"
#include "util/annotated_mutex.hpp"
#include "util/annotations.hpp"
#include "util/epoch.hpp"
#include "util/time_utils.hpp"

namespace at::bhr {

class LpmTrie {
 public:
  /// Per-host expiry encoding: permanent block sentinel.
  static constexpr std::uint64_t kPermanent = ~std::uint64_t{0};

  /// What a mutation did beyond the obvious — the owner (BlackHoleRouter)
  /// uses this to keep its metadata maps and expiry wheel in sync.
  struct MutationReport {
    /// Aggregation collapses performed (a /24 or /16 became one cover).
    std::vector<net::Cidr> covers_added;

    void clear() { covers_added.clear(); }
  };

  struct TrieStats {
    std::size_t l2_nodes = 0;      ///< populated /16 interior nodes
    std::size_t leaves = 0;        ///< populated /24 leaves
    std::size_t host_entries = 0;  ///< individual /32 words set
    std::size_t covers = 0;        ///< cover slots live at any level
    std::size_t bytes = 0;         ///< approximate resident footprint
  };

  explicit LpmTrie(util::EpochDomain* domain = nullptr);
  ~LpmTrie();
  LpmTrie(const LpmTrie&) = delete;
  LpmTrie& operator=(const LpmTrie&) = delete;

  /// --- read side: lock-free; caller must hold a util::EpochGuard on the
  /// trie's domain for the duration of the call ---
  [[nodiscard]] bool lookup(std::uint32_t ip, util::SimTime now) const AT_HOT;

  /// Batched lookup with software prefetch of next-level slots: resolves
  /// `n` probes level-by-level in chunks so independent trie descents
  /// overlap their cache misses. out[i] = 1 when blocked.
  void lookup_batch(const std::uint32_t* ips, const util::SimTime* times,
                    std::uint8_t* out, std::size_t n) const AT_HOT;

  /// --- write side: internally serialized (any thread may call) ---
  /// Set one host's expiry word (0 clears). Returns true when the stored
  /// word changed. Writing under a cover first expands the cover.
  bool set_host(std::uint32_t ip, std::uint64_t enc,
                MutationReport* report = nullptr) AT_EXCLUDES(write_mu_);

  /// Cover (enc != 0) or clear (enc == 0) an entire prefix, replacing
  /// whatever the range held. Returns true when anything changed.
  bool set_prefix(const net::Cidr& cidr, std::uint64_t enc,
                  MutationReport* report = nullptr) AT_EXCLUDES(write_mu_);

  /// Clear only range contents whose word still equals `enc` — the TTL'd
  /// prefix-expiry reap: hosts re-blocked with a different expiry since
  /// the cover was laid down survive. Returns true when anything cleared.
  bool clear_matching(const net::Cidr& cidr, std::uint64_t enc)
      AT_EXCLUDES(write_mu_);

  [[nodiscard]] TrieStats stats() const AT_EXCLUDES(write_mu_);

  [[nodiscard]] util::EpochDomain& domain() const noexcept { return *domain_; }

 private:
  static constexpr std::size_t kRootSlots = std::size_t{1} << 16;
  static constexpr std::size_t kFan = 256;
  static constexpr std::uintptr_t kEmpty = 0;
  static constexpr std::uintptr_t kPermCover = 1;

  /// Interior node (one per populated /16). Slots are atomic for in-place
  /// publication; the counts are writer-side bookkeeping (readers never
  /// touch them).
  struct Node {
    std::array<std::atomic<std::uintptr_t>, kFan> slot{};
    std::uint16_t nonempty = 0;      ///< slots != kEmpty
    std::uint16_t covered_perm = 0;  ///< slots == kPermCover
  };

  /// Leaf (one per populated /24): per-host expiry words plus writer-side
  /// density counts driving aggregation.
  struct Leaf {
    std::array<std::atomic<std::uint64_t>, kFan> expiry{};
    std::uint16_t blocked = 0;    ///< words != 0
    std::uint16_t permanent = 0;  ///< words == kPermanent
  };

  static bool is_ptr(std::uintptr_t v) noexcept { return v != 0 && (v & 3u) == 0; }
  static bool is_cover(std::uintptr_t v) noexcept { return (v & 3u) != 0; }
  static std::uintptr_t encode_cover(std::uint64_t enc) noexcept {
    return enc == kPermanent ? kPermCover
                             : static_cast<std::uintptr_t>((enc << 2) | 2u);
  }
  static std::uint64_t cover_enc(std::uintptr_t v) noexcept {
    return (v & 3u) == 1u ? kPermanent : static_cast<std::uint64_t>(v >> 2);
  }
  static bool cover_blocked(std::uintptr_t v, util::SimTime now) noexcept {
    return (v & 3u) == 1u || static_cast<util::SimTime>(v >> 2) > now;
  }
  static bool word_blocked(std::uint64_t e, util::SimTime now) noexcept {
    return e == kPermanent || (e != 0 && static_cast<util::SimTime>(e) > now);
  }

  /// Materialize the L2 node for /16 index i1 (expanding a cover into 256
  /// one-level-down covers when needed); never returns null.
  Node* ensure_node(std::uint32_t i1) AT_REQUIRES(write_mu_);
  /// Materialize the leaf for L2 slot i2 (expanding a cover into 256
  /// per-host words when needed); never returns null.
  Leaf* ensure_leaf(Node& node, std::uint32_t i2) AT_REQUIRES(write_mu_);
  /// Update one leaf word + counts; returns the previous word.
  std::uint64_t leaf_set(Leaf& leaf, std::uint32_t i3, std::uint64_t enc)
      AT_REQUIRES(write_mu_);
  void maybe_collapse_leaf(Node& node, std::uint32_t i1, std::uint32_t i2,
                           Leaf* leaf, MutationReport* report)
      AT_REQUIRES(write_mu_);
  void maybe_collapse_node(std::uint32_t i1, Node* node, MutationReport* report)
      AT_REQUIRES(write_mu_);
  /// Drop an empty leaf/node out of its parent slot.
  void prune_leaf(Node& node, std::uint32_t i2, Leaf* leaf) AT_REQUIRES(write_mu_);
  void prune_node(std::uint32_t i1, Node* node) AT_REQUIRES(write_mu_);
  bool set_host_locked(std::uint32_t ip, std::uint64_t enc, MutationReport* report)
      AT_REQUIRES(write_mu_);
  /// Queue a node/leaf to the epoch domain (no counter bookkeeping);
  /// retire_subtree also accounts for and retires every child leaf.
  void retire_leaf(Leaf* leaf);
  void retire_node_only(Node* node);
  void retire_subtree(Node* node) AT_REQUIRES(write_mu_);

  static void delete_node_cb(void* p) noexcept;
  static void delete_leaf_cb(void* p) noexcept;

  util::EpochDomain* domain_ AT_NOT_GUARDED;  ///< immutable after construction
  std::unique_ptr<std::atomic<std::uintptr_t>[]> root_
      AT_NOT_GUARDED;  ///< atomic slots; writer serialization via write_mu_

  mutable util::Mutex write_mu_;
  std::size_t l2_nodes_ AT_GUARDED_BY(write_mu_) = 0;
  std::size_t leaves_ AT_GUARDED_BY(write_mu_) = 0;
  std::size_t host_entries_ AT_GUARDED_BY(write_mu_) = 0;
  std::size_t covers_ AT_GUARDED_BY(write_mu_) = 0;
};

}  // namespace at::bhr
