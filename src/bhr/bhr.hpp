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
//   - The *metadata tier* — blocks_/prefix_blocks_ plus the audit ring —
//     is the control-plane truth: who asked, why, until when. It is
//     mutated only through the API verbs and is externally serialized
//     (the daemon applies blocks merge-side, in sequence order).
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
#include <unordered_map>
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
    /// LpmTrie aggregation density (see LpmTrie): 1.0 = exact (default),
    /// < 1.0 blackholes whole scanner nets once that fraction of a /24 is
    /// permanently blocked, > 1.0 disables aggregation.
    double aggregation_density = 1.0;
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
    std::uint64_t aggregated_covers = 0;    ///< CIDR-aggregation collapses
    std::uint64_t aggregated_absorbed = 0;  ///< TTL'd hosts swallowed by covers

    [[nodiscard]] util::TextTable to_table() const;
  };
  [[nodiscard]] Stats stats(util::SimTime now) const;

  [[nodiscard]] const net::Cidr& protected_block() const noexcept { return protected_; }
  [[nodiscard]] const LpmTrie& trie() const noexcept { return trie_; }

 private:
  // One map entry per API-visible host block; `ev` is the pending expiry
  // event on the wheel (0 = permanent / none), cancelled in O(1) on
  // re-block/unblock/supersede so no stale event ever fires.
  struct Stored {
    BlockEntry entry;
    sim::EventId ev = 0;
  };
  struct PrefixStored {
    PrefixEntry entry;
    sim::EventId ev = 0;
  };

  /// prefix_blocks_ key: (base << 6) | prefix_len — ordered, so iteration
  /// (longest-match query, supersede sweeps) is deterministic.
  [[nodiscard]] static std::uint64_t prefix_key(const net::Cidr& cidr) noexcept {
    return (static_cast<std::uint64_t>(cidr.base().value()) << 6) | cidr.prefix_len();
  }

  void audit_push(ApiCall call);
  /// Sync metadata with trie-side aggregation effects (report_).
  void apply_report(util::SimTime now);
  /// Remove host/prefix metadata contained in `cidr` (their trie state was
  /// just replaced wholesale); `keep_key` names the entry driving the sweep.
  void supersede_contained(const net::Cidr& cidr, std::uint64_t keep_key);

  net::Cidr protected_ = net::blocks::ncsa16();
  Options options_;
  LpmTrie trie_;
  sim::detail::TimerQueue expiry_{0};
  std::unordered_map<std::uint32_t, Stored> blocks_;
  std::map<std::uint64_t, PrefixStored> prefix_blocks_;
  LpmTrie::MutationReport report_;  ///< per-mutation scratch (reused)

  std::vector<ApiCall> audit_;  ///< capped ring; audit_head_ = oldest
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
  std::uint64_t aggregated_absorbed_ = 0;
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
