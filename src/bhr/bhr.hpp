#pragma once
// Black Hole Router (BHR) substrate.
//
// NCSA's BHR records Internet-wide scanning against the /16 (26.85M scans
// in one hour in the paper's Fig 1 sample) and exposes a programmable API
// (ncsa/bhr-client) that the testbed's detectors call to block sources in
// real time. We model both halves: a block table with TTL semantics and an
// audited API, plus a scan recorder that classifies mass scanners by the
// breadth and rate of their probing.
//
// Data-plane architecture (two tiers):
//   - The *metadata tier* is the control-plane truth: who asked, why,
//     until when. It is mutated only through the API verbs and is
//     externally serialized (the daemon applies blocks merge-side, in
//     sequence order). Host blocks live in /24 pages, mirroring the trie's
//     leaves: a util::FlatMap directory from the /24 to its page, and per
//     page a 256-bit presence bitmap plus 32-byte entries in ascending host
//     order (host h's entry sits at the popcount of the bits below h). A
//     fully blackholed /24 costs ~8 KiB. Prefix blocks sit in an ordered
//     map.
//     Reasons and client names are interned once as refcounted 32-bit ids,
//     freed when the last entry or audit record naming them goes. The
//     audit ring holds 24-byte records; ApiCall is built only on read.
//   - The *lookup tier* is an LpmTrie: a level-16/8/8 trie over the IPv4
//     space whose reads are lock-free under epoch-based reclamation.
//     filter()/filter_batch()/is_blocked() touch only the trie, so any
//     number of traffic-plane threads can run them concurrently with a
//     live mutator. Writers keep the two tiers in sync inside each verb.
//   - TTL expiry rides the sim timing wheel (sim::detail::TimerQueue):
//     every TTL'd block schedules one expiry event carrying its target as
//     a trivially-copyable tag payload; re-block/unblock cancel the event
//     in O(1). This replaces the seed's lazy-deleted side min-heap — no
//     stale items, no compaction, and expire() pops exactly the due work.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bhr/lpm_trie.hpp"
#include "net/cidr.hpp"
#include "net/flow.hpp"
#include "sim/timing_wheel.hpp"
#include "util/annotations.hpp"
#include "util/epoch.hpp"
#include "util/flat_map.hpp"
#include "util/table.hpp"
#include "util/time_utils.hpp"

namespace at::bhr {

struct BlockEntry {
  net::Ipv4 source;
  util::SimTime blocked_at = 0;
  util::SimTime expires_at = 0;  ///< 0 = permanent
  std::string reason;
  std::string requested_by;  ///< API client identity (audit trail)
};

/// Prefix-granular block metadata (explicit block_prefix() calls and
/// synthetic entries for CIDR-aggregated scanner nets).
struct PrefixEntry {
  net::Cidr cidr;
  util::SimTime blocked_at = 0;
  util::SimTime expires_at = 0;  ///< 0 = permanent
  std::string reason;
  std::string requested_by;
};

/// API call audit record.
struct ApiCall {
  util::SimTime ts = 0;
  std::string method;  ///< "block" | "unblock" | "block_prefix" | ...
  net::Ipv4 source;    ///< target host, or the prefix base for *_prefix
  std::string client;
  bool ok = false;
  unsigned prefix_len = 32;  ///< 32 for host verbs
};

class BlackHoleRouter {
 public:
  struct Options {
    /// Audit ring capacity; once full, the oldest record is overwritten
    /// and `audit_dropped` counts the loss. A simulated day of API calls
    /// no longer grows memory without bound.
    std::size_t audit_capacity = 65536;
  };

  BlackHoleRouter() : BlackHoleRouter(Options{}) {}
  explicit BlackHoleRouter(Options options);
  BlackHoleRouter(const BlackHoleRouter&) = delete;
  BlackHoleRouter& operator=(const BlackHoleRouter&) = delete;

  /// --- programmable API (mirrors bhr-client verbs); externally
  /// serialized with respect to each other, safe against concurrent
  /// filter()/is_blocked() readers ---
  /// Block `source` for `ttl` seconds (0 = permanent). Re-blocking extends
  /// the expiry and updates the reason. Returns false (no-op) for addresses
  /// inside the protected block — the BHR never blackholes its own network.
  bool block(net::Ipv4 source, util::SimTime now, util::SimTime ttl, std::string reason,
             std::string client);
  bool unblock(net::Ipv4 source, util::SimTime now, std::string client);

  /// Block/unblock a whole prefix. Contained host and prefix entries are
  /// superseded (most recent mutation wins — the trie range is replaced
  /// wholesale). Refused when the prefix overlaps the protected block.
  bool block_prefix(const net::Cidr& cidr, util::SimTime now, util::SimTime ttl,
                    std::string reason, std::string client);
  bool unblock_prefix(const net::Cidr& cidr, util::SimTime now, std::string client);

  [[nodiscard]] bool is_blocked(net::Ipv4 source, util::SimTime now) const;
  [[nodiscard]] std::optional<BlockEntry> query(net::Ipv4 source, util::SimTime now) const;

  /// Reap due TTL'd blocks (hosts and prefixes); returns how many entries
  /// were removed. Pops exactly the due events off the timing wheel — a
  /// tick with nothing to reap costs one occupancy-bitmap probe.
  std::size_t expire(util::SimTime now);

  /// --- traffic-plane hooks: lock-free trie reads, thread-safe ---
  /// Returns true when the flow is dropped. AT_HOT: sits on the per-flow
  /// replay path (millions of flows per run).
  bool filter(const net::Flow& flow) AT_HOT;

  /// Batched filter: out[i] = 1 when flows[i] is dropped (out must be at
  /// least flows.size()). Returns the number dropped. One epoch pin and
  /// one counter update per batch; inside, the trie overlaps the cache
  /// misses of independent descents via software prefetch.
  std::size_t filter_batch(std::span<const net::Flow> flows,
                           std::span<std::uint8_t> out) AT_HOT;

  [[nodiscard]] std::size_t active_blocks(util::SimTime now) const;
  [[nodiscard]] std::uint64_t dropped_flows() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t passed_flows() const noexcept {
    return passed_.load(std::memory_order_relaxed);
  }
  /// Audit records, oldest first (by value: the ring is linearized). At
  /// most Options::audit_capacity records are retained.
  [[nodiscard]] std::vector<ApiCall> audit_log() const;

  /// Counter snapshot (value-returning, named fields, to_table() — the
  /// convention shared with sim::Engine::Stats and alerts::DaemonStats).
  struct Stats {
    std::uint64_t api_calls = 0;       ///< total audited calls (ever)
    std::uint64_t blocks_accepted = 0; ///< block() calls that took effect
    std::uint64_t blocks_refused = 0;  ///< protected-network refusals
    std::uint64_t unblocks = 0;
    std::uint64_t expired = 0;         ///< entries reaped by expire()
    std::uint64_t dropped_flows = 0;
    std::uint64_t passed_flows = 0;
    std::uint64_t active_blocks = 0;   ///< live at the snapshot's `now`
    std::uint64_t prefix_blocks = 0;   ///< live prefix entries (incl. aggregated)
    std::uint64_t audit_dropped = 0;   ///< audit records lost to the ring cap
    std::uint64_t aggregated_covers = 0;  ///< CIDR-aggregation collapses

    [[nodiscard]] util::TextTable to_table() const;
  };
  [[nodiscard]] Stats stats(util::SimTime now) const;

  [[nodiscard]] const LpmTrie& trie() const noexcept { return trie_; }

 private:
  /// Refcounted interning of the provenance strings (block reasons and API
  /// client names): entries and audit records hold 32-bit ids. An id's
  /// string is freed, and the id reused, when its last holder goes —
  /// factor-graph reasons embed the score, so most are unique, and ids
  /// that were never released would leak.
  class Names {
   public:
    /// The id of `text`, with one reference taken for the caller.
    std::uint32_t acquire(std::string&& text);
    void retain(std::uint32_t id) noexcept { ++slots_[id].refs; }
    void release(std::uint32_t id);
    [[nodiscard]] const std::string& text(std::uint32_t id) const noexcept {
      return slots_[id].text;
    }

   private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct Slot {
      std::string text;
      std::uint64_t hash = 0;
      std::uint32_t refs = 0;
      /// Live slot: the next id whose text has the same hash. Free slot:
      /// the next free id.
      std::uint32_t next = kNone;
    };
    util::FlatMap<std::uint32_t> by_hash_;  ///< text hash -> first id with it
    std::vector<Slot> slots_;
    std::uint32_t free_ = kNone;  ///< head of the free-id list
    /// The last two ids acquire() returned, tried before hashing: a block
    /// names a client and a reason, and a fill repeats both.
    std::array<std::uint32_t, 2> recent_{kNone, kNone};
    std::uint32_t recent_next_ = 0;  ///< the recent_ entry to replace next
  };

  /// Metadata of one host or prefix block (32 bytes): the API-visible entry
  /// minus its address, which the page slot or the prefix key gives. `ev`
  /// is the pending expiry event on the wheel (0 = permanent / none),
  /// cancelled in O(1) on re-block/unblock/supersede so no stale event
  /// ever fires.
  struct Meta {
    util::SimTime blocked_at = 0;
    util::SimTime expires_at = 0;  ///< 0 = permanent
    sim::EventId ev = 0;
    std::uint32_t reason = 0;  ///< Names id
    std::uint32_t client = 0;  ///< Names id
  };
  static_assert(sizeof(Meta) == 32);

  /// The blocked hosts of one /24: a presence bit per host and the present
  /// hosts' entries in ascending host order.
  struct HostPage {
    std::array<std::uint64_t, 4> present{};
    std::vector<Meta> entries;

    [[nodiscard]] bool has(std::uint32_t host) const noexcept {
      return ((present[host >> 6] >> (host & 63u)) & 1u) != 0;
    }
    /// Index in `entries` of host `host` (the count of present hosts below).
    [[nodiscard]] std::size_t rank(std::uint32_t host) const noexcept;
  };

  enum class Method : std::uint8_t { kBlock, kUnblock, kBlockPrefix, kUnblockPrefix };

  /// One audit ring record (24 bytes); audit_log() renders it as an ApiCall.
  struct AuditRecord {
    util::SimTime ts = 0;
    std::uint32_t address = 0;  ///< target host, or the prefix base
    std::uint32_t client = 0;   ///< Names id
    std::uint8_t prefix_len = 32;
    Method method = Method::kBlock;
    bool ok = false;
  };
  static_assert(sizeof(AuditRecord) == 24);

  /// prefix_blocks_ key: (base << 6) | prefix_len — ordered, so iteration
  /// (longest-match query, supersede sweeps) is deterministic.
  [[nodiscard]] static std::uint64_t prefix_key(const net::Cidr& cidr) noexcept {
    return (static_cast<std::uint64_t>(cidr.base().value()) << 6) | cidr.prefix_len();
  }
  [[nodiscard]] static net::Cidr prefix_of(std::uint64_t key) {
    return net::Cidr(net::Ipv4(static_cast<std::uint32_t>(key >> 6)),
                     static_cast<unsigned>(key & 63u));
  }

  /// Appends a record; the ring takes over one reference to `client`.
  void audit_push(util::SimTime ts, Method method, std::uint32_t address,
                  unsigned prefix_len, std::uint32_t client, bool ok);
  /// Cancels `meta`'s expiry event and releases its names.
  void forget(const Meta& meta);
  [[nodiscard]] const HostPage* find_page(std::uint32_t ip) const noexcept;
  [[nodiscard]] HostPage* find_page(std::uint32_t ip) noexcept {
    return const_cast<HostPage*>(std::as_const(*this).find_page(ip));
  }
  /// Unlinks the page of /24 `key` (ip >> 8) and frees its entries.
  void drop_page(std::uint64_t key);
  [[nodiscard]] const Meta* find_host(std::uint32_t ip) const noexcept;
  /// The entry of `ip`, inserted zeroed when absent (`fresh` reports which).
  Meta& host_entry(std::uint32_t ip, bool& fresh);
  /// Drops `ip`'s entry (forget + unlink); returns whether there was one.
  bool erase_host(std::uint32_t ip);
  /// Drops every host entry inside `cidr`, in ascending address order.
  void erase_hosts_in(const net::Cidr& cidr);
  /// Sync metadata with trie-side aggregation effects (report_).
  void apply_report(util::SimTime now);
  /// Remove host/prefix metadata contained in `cidr` (their trie state was
  /// just replaced wholesale); `keep_key` names the entry driving the sweep.
  void supersede_contained(const net::Cidr& cidr, std::uint64_t keep_key);

  net::Cidr protected_ = net::blocks::ncsa16();
  Options options_;
  LpmTrie trie_;
  sim::detail::TimerQueue expiry_{0};
  Names names_;
  /// The page directory: ip >> 8 -> index in pages_. Its slots hold an
  /// index, not a 64-byte page, which keeps scattered one-host pages as
  /// cheap to add as the node map's entries were. Emptied pages are
  /// recycled through free_pages_.
  util::FlatMap<std::uint32_t> page_index_;
  std::vector<HostPage> pages_;
  std::vector<std::uint32_t> free_pages_;
  std::size_t host_blocks_ = 0;  ///< entries across pages_
  std::map<std::uint64_t, Meta> prefix_blocks_;
  LpmTrie::MutationReport report_;  ///< per-mutation scratch (reused)

  std::vector<AuditRecord> audit_;  ///< capped ring; audit_head_ = oldest
  std::size_t audit_head_ = 0;
  std::uint64_t api_calls_total_ = 0;
  std::uint64_t audit_dropped_ = 0;

  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> passed_{0};
  std::uint64_t blocks_accepted_ = 0;
  std::uint64_t blocks_refused_ = 0;
  std::uint64_t unblocks_ = 0;
  std::uint64_t expired_total_ = 0;
  std::uint64_t aggregated_covers_ = 0;
};

/// Scan recorder: per-source probing statistics over a window, and the
/// mass-scanner classification used to pick Fig 1's central node.
struct ScannerProfile {
  net::Ipv4 source;
  std::uint64_t probes = 0;
  std::uint64_t distinct_targets = 0;
  util::SimTime first_seen = 0;
  util::SimTime last_seen = 0;
  [[nodiscard]] double rate_per_s() const noexcept {
    const auto span = last_seen - first_seen;
    return span > 0 ? static_cast<double>(probes) / static_cast<double>(span) : 0.0;
  }
};

class ScanRecorder {
 public:
  /// AT_HOT: called once per replayed flow alongside BlackHoleRouter::filter.
  void record(const net::Flow& flow) AT_HOT;

  [[nodiscard]] std::uint64_t total_probes() const noexcept { return total_; }
  [[nodiscard]] std::size_t distinct_sources() const noexcept { return per_source_.size(); }
  /// Profiles sorted by descending probe count; ties break on ascending
  /// source address so equal-count scanners rank deterministically.
  [[nodiscard]] std::vector<ScannerProfile> top_scanners(std::size_t k) const;
  /// Sources probing at least `min_targets` distinct internal hosts.
  [[nodiscard]] std::vector<ScannerProfile> mass_scanners(std::uint64_t min_targets) const;

  /// Sources whose distinct targets outgrew the sparse tier and now use
  /// the full /16 bitmap (diagnostics for the tiered representation).
  [[nodiscard]] std::size_t promoted_sources() const;

 private:
  /// Exact distinct-target tracking in three tiers, keyed by the low 16
  /// bits of the target address. The Zipf tail of the 26.85M-probe Fig-1
  /// regime is dominated by sources that touch a handful of hosts, and
  /// most of the rest touch tens to hundreds, so no source pays for the
  /// full /16 bitmap before it would use as much memory on a sparse set:
  ///   - inline: the first kInlineTargets distinct hosts, in the state;
  ///   - sparse: an open-addressed set of hosts on the heap, kept at most
  ///     half full, doubling up to kMaxSparseSlots slots (8 KiB), so it
  ///     holds up to 2,048 hosts;
  ///   - bitmap: the 2,049th distinct host promotes the source to a
  ///     65,536-bit bitmap of kBitmapWords 16-bit words (also 8 KiB).
  struct State {
    static constexpr std::size_t kInlineTargets = 16;
    static constexpr std::size_t kMaxSparseSlots = 4096;
    static constexpr std::size_t kBitmapWords = 65536 / 16;

    /// Adds `host` to the distinct targets, counting it in
    /// profile.distinct_targets if it is new.
    void add_target(std::uint16_t host);
    [[nodiscard]] bool contains(std::uint16_t host) const;
    /// Stores a host known to be new in the current tier's layout.
    void store(std::uint16_t host);
    /// Re-lays the current targets into a sparse set of `slots` slots, or
    /// into the bitmap once `slots` exceeds kMaxSparseSlots.
    void relayout(std::size_t slots);

    ScannerProfile profile;
    std::array<std::uint16_t, kInlineTargets> inline_targets{};
    /// A sparse slot holding 0 is empty, so host 0 is this flag there.
    bool sparse_has_host0 = false;
    bool promoted = false;
    /// Empty in the inline tier; the sparse set's slots, or the bitmap.
    std::vector<std::uint16_t> targets;
  };
  util::FlatMap<State> per_source_;
  std::uint64_t total_ = 0;
};

}  // namespace at::bhr
