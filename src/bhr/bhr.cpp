#include "bhr/bhr.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace at::bhr {

namespace {

// Wheel-event tag payloads. These are never *invoked* — expire() reads
// them back through CallbackSlot::target<F>() when the event pops, so the
// callable body is an empty shell that only satisfies the slot interface.
struct ExpiryTag {
  std::uint32_t ip = 0;
  void operator()(sim::Engine&) const noexcept {}
};

struct PrefixExpiryTag {
  std::uint32_t base = 0;
  std::uint8_t len = 32;
  std::uint64_t enc = 0;  ///< cover encoding laid down at block time
  void operator()(sim::Engine&) const noexcept {}
};

constexpr std::uint64_t encode_expiry(util::SimTime expires_at) noexcept {
  return expires_at == 0 ? LpmTrie::kPermanent
                         : static_cast<std::uint64_t>(expires_at);
}

}  // namespace

BlackHoleRouter::BlackHoleRouter(Options options)
    : options_(options), trie_(options.aggregation_density) {}

void BlackHoleRouter::audit_push(ApiCall call) {
  ++api_calls_total_;
  if (audit_.size() < options_.audit_capacity) {
    audit_.push_back(std::move(call));
    return;
  }
  ++audit_dropped_;
  if (options_.audit_capacity == 0) return;
  audit_[audit_head_] = std::move(call);
  audit_head_ = (audit_head_ + 1) % options_.audit_capacity;
}

std::vector<ApiCall> BlackHoleRouter::audit_log() const {
  std::vector<ApiCall> out;
  out.reserve(audit_.size());
  for (std::size_t i = 0; i < audit_.size(); ++i) {
    out.push_back(audit_[(audit_head_ + i) % audit_.size()]);
  }
  return out;
}

void BlackHoleRouter::apply_report(util::SimTime now) {
  // Below-1.0 aggregation density swallows TTL'd hosts into a permanent
  // cover: their individual metadata (and pending expiry events) vanish —
  // the cover now governs them.
  for (const auto& [ip, enc] : report_.absorbed) {
    const auto it = blocks_.find(ip);
    if (it != blocks_.end()) {
      if (it->second.ev != 0) expiry_.cancel(it->second.ev);
      blocks_.erase(it);
    }
    ++aggregated_absorbed_;
  }
  // Each collapse gets synthetic prefix metadata so query() can still
  // explain why a covered host is black-holed. try_emplace: an explicit
  // operator-made prefix entry is never overwritten.
  for (const net::Cidr& cidr : report_.covers_added) {
    ++aggregated_covers_;
    PrefixStored ps;
    ps.entry.cidr = cidr;
    ps.entry.blocked_at = now;
    ps.entry.expires_at = 0;
    ps.entry.reason = "cidr-aggregated";
    ps.entry.requested_by = "bhr:aggregator";
    prefix_blocks_.try_emplace(prefix_key(cidr), std::move(ps));
  }
  report_.clear();
}

void BlackHoleRouter::supersede_contained(const net::Cidr& cidr,
                                          std::uint64_t keep_key) {
  // Collect-then-sort before cancelling: the wheel's free list would
  // otherwise depend on unordered_map iteration order.
  std::vector<std::uint32_t> ips;
  for (const auto& [ip, stored] : blocks_) {
    if (cidr.contains(net::Ipv4(ip))) ips.push_back(ip);
  }
  std::sort(ips.begin(), ips.end());
  for (const std::uint32_t ip : ips) {
    const auto it = blocks_.find(ip);
    if (it->second.ev != 0) expiry_.cancel(it->second.ev);
    blocks_.erase(it);
  }
  for (auto it = prefix_blocks_.begin(); it != prefix_blocks_.end();) {
    if (it->first != keep_key && cidr.contains(it->second.entry.cidr)) {
      if (it->second.ev != 0) expiry_.cancel(it->second.ev);
      it = prefix_blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

bool BlackHoleRouter::block(net::Ipv4 source, util::SimTime now, util::SimTime ttl,
                            std::string reason, std::string client) {
  const bool internal = protected_.contains(source);
  audit_push({now, "block", source, client, !internal, 32});
  if (internal) {
    ++blocks_refused_;
    return false;  // never blackhole the protected network
  }
  ++blocks_accepted_;
  Stored& stored = blocks_[source.value()];
  if (stored.ev != 0) {
    expiry_.cancel(stored.ev);
    stored.ev = 0;
  }
  BlockEntry& entry = stored.entry;
  entry.source = source;
  entry.blocked_at = now;
  entry.expires_at = ttl > 0 ? now + ttl : 0;
  entry.reason = std::move(reason);
  entry.requested_by = std::move(client);
  trie_.set_host(source.value(), encode_expiry(entry.expires_at), &report_);
  if (entry.expires_at != 0) {
    stored.ev = expiry_.schedule(
        std::max(entry.expires_at, expiry_.floor_time()),
        sim::detail::CallbackSlot(ExpiryTag{source.value()}));
  }
  apply_report(now);
  return true;
}

bool BlackHoleRouter::unblock(net::Ipv4 source, util::SimTime now, std::string client) {
  bool existed = false;
  if (const auto it = blocks_.find(source.value()); it != blocks_.end()) {
    if (it->second.ev != 0) expiry_.cancel(it->second.ev);
    blocks_.erase(it);
    existed = true;
  }
  // Punches through covers too: unblocking a host inside a blocked prefix
  // opens exactly that host (most recent mutation wins).
  const bool cleared = trie_.set_host(source.value(), 0);
  const bool ok = existed || cleared;
  audit_push({now, "unblock", source, std::move(client), ok, 32});
  if (ok) ++unblocks_;
  return ok;
}

bool BlackHoleRouter::block_prefix(const net::Cidr& cidr, util::SimTime now,
                                   util::SimTime ttl, std::string reason,
                                   std::string client) {
  const bool refused = protected_.overlaps(cidr);
  audit_push({now, "block_prefix", cidr.base(), client, !refused, cidr.prefix_len()});
  if (refused) {
    ++blocks_refused_;
    return false;
  }
  ++blocks_accepted_;
  const std::uint64_t key = prefix_key(cidr);
  PrefixStored& ps = prefix_blocks_[key];
  if (ps.ev != 0) {
    expiry_.cancel(ps.ev);
    ps.ev = 0;
  }
  PrefixEntry& entry = ps.entry;
  entry.cidr = cidr;
  entry.blocked_at = now;
  entry.expires_at = ttl > 0 ? now + ttl : 0;
  entry.reason = std::move(reason);
  entry.requested_by = std::move(client);
  const std::uint64_t enc = encode_expiry(entry.expires_at);
  trie_.set_prefix(cidr, enc, &report_);
  if (entry.expires_at != 0) {
    ps.ev = expiry_.schedule(
        std::max(entry.expires_at, expiry_.floor_time()),
        sim::detail::CallbackSlot(PrefixExpiryTag{
            cidr.base().value(), static_cast<std::uint8_t>(cidr.prefix_len()), enc}));
  }
  supersede_contained(cidr, key);
  apply_report(now);
  return true;
}

bool BlackHoleRouter::unblock_prefix(const net::Cidr& cidr, util::SimTime now,
                                     std::string client) {
  const std::uint64_t key = prefix_key(cidr);
  bool existed = false;
  if (const auto it = prefix_blocks_.find(key); it != prefix_blocks_.end()) {
    if (it->second.ev != 0) expiry_.cancel(it->second.ev);
    prefix_blocks_.erase(it);
    existed = true;
  }
  const bool cleared = trie_.set_prefix(cidr, 0);
  supersede_contained(cidr, key);
  const bool ok = existed || cleared;
  audit_push({now, "unblock_prefix", cidr.base(), std::move(client), ok,
              cidr.prefix_len()});
  if (ok) ++unblocks_;
  return ok;
}

bool BlackHoleRouter::is_blocked(net::Ipv4 source, util::SimTime now) const {
  util::EpochGuard guard(trie_.domain());
  return trie_.lookup(source.value(), now);
}

std::optional<BlockEntry> BlackHoleRouter::query(net::Ipv4 source,
                                                 util::SimTime now) const {
  if (!is_blocked(source, now)) return std::nullopt;
  if (const auto it = blocks_.find(source.value()); it != blocks_.end()) {
    const BlockEntry& entry = it->second.entry;
    if (entry.expires_at == 0 || entry.expires_at > now) return entry;
  }
  // Fall back to the longest live covering prefix (explicit or aggregated).
  const PrefixEntry* best = nullptr;
  for (const auto& [key, ps] : prefix_blocks_) {
    const PrefixEntry& candidate = ps.entry;
    if (!candidate.cidr.contains(source)) continue;
    if (candidate.expires_at != 0 && candidate.expires_at <= now) continue;
    if (best == nullptr || candidate.cidr.prefix_len() > best->cidr.prefix_len()) {
      best = &candidate;
    }
  }
  BlockEntry out;
  out.source = source;
  if (best != nullptr) {
    out.blocked_at = best->blocked_at;
    out.expires_at = best->expires_at;
    out.reason = best->reason;
    out.requested_by = best->requested_by;
  } else {
    // Covered in the trie with no surviving metadata (aggregation after
    // metadata churn): still report the honest cause.
    out.reason = "cidr-aggregated";
    out.requested_by = "bhr:aggregator";
  }
  return out;
}

std::size_t BlackHoleRouter::expire(util::SimTime now) {
  std::size_t removed = 0;
  sim::detail::CallbackSlot cb;
  util::SimTime fired_at = 0;
  sim::EventId id = 0;
  while (expiry_.pop_due(now, cb, fired_at, id)) {
    if (const auto* tag = cb.target<ExpiryTag>()) {
      blocks_.erase(tag->ip);
      trie_.set_host(tag->ip, 0);
      ++removed;
    } else if (const auto* ptag = cb.target<PrefixExpiryTag>()) {
      const net::Cidr cidr(net::Ipv4(ptag->base), ptag->len);
      // Only clear what this block laid down: hosts re-blocked inside the
      // prefix since (different expiry word) survive the reap.
      trie_.clear_matching(cidr, ptag->enc);
      prefix_blocks_.erase(prefix_key(cidr));
      ++removed;
    }
  }
  expired_total_ += removed;
  return removed;
}

bool BlackHoleRouter::filter(const net::Flow& flow) {
  util::EpochGuard guard(trie_.domain());
  if (trie_.lookup(flow.src.value(), flow.ts)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  passed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::size_t BlackHoleRouter::filter_batch(std::span<const net::Flow> flows,
                                          std::span<std::uint8_t> out) {
  const std::size_t n = std::min(flows.size(), out.size());
  util::EpochGuard guard(trie_.domain());
  constexpr std::size_t kChunk = 64;
  std::array<std::uint32_t, kChunk> ips;
  std::array<util::SimTime, kChunk> times;
  std::uint64_t dropped = 0;
  for (std::size_t at = 0; at < n; at += kChunk) {
    const std::size_t m = std::min(kChunk, n - at);
    // Keep the sequential flow stream one chunk ahead of the random trie
    // loads — the hardware prefetcher deprioritizes the stream once the
    // demand misses go random.
    const bool prefetch_next = at + kChunk + m <= n;
    for (std::size_t i = 0; i < m; ++i) {
      if (prefetch_next) __builtin_prefetch(flows.data() + at + i + kChunk);
      ips[i] = flows[at + i].src.value();
      times[i] = flows[at + i].ts;
    }
    trie_.lookup_batch(ips.data(), times.data(), out.data() + at, m);
    for (std::size_t i = 0; i < m; ++i) dropped += out[at + i];
  }
  dropped_.fetch_add(dropped, std::memory_order_relaxed);
  passed_.fetch_add(static_cast<std::uint64_t>(n) - dropped,
                    std::memory_order_relaxed);
  return static_cast<std::size_t>(dropped);
}

std::size_t BlackHoleRouter::active_blocks(util::SimTime now) const {
  // Every TTL'd entry owns exactly one wheel event, so the due population
  // is the expired-but-unreaped count. Subtract the prefix share to keep
  // the seed's contract: active per-host blocks.
  std::size_t prefix_due = 0;
  for (const auto& [key, ps] : prefix_blocks_) {
    if (ps.entry.expires_at != 0 && ps.entry.expires_at <= now) ++prefix_due;
  }
  return blocks_.size() - (expiry_.count_due(now) - prefix_due);
}

BlackHoleRouter::Stats BlackHoleRouter::stats(util::SimTime now) const {
  Stats out;
  out.api_calls = api_calls_total_;
  out.blocks_accepted = blocks_accepted_;
  out.blocks_refused = blocks_refused_;
  out.unblocks = unblocks_;
  out.expired = expired_total_;
  out.dropped_flows = dropped_flows();
  out.passed_flows = passed_flows();
  out.active_blocks = active_blocks(now);
  out.prefix_blocks = prefix_blocks_.size();
  out.audit_dropped = audit_dropped_;
  out.aggregated_covers = aggregated_covers_;
  out.aggregated_absorbed = aggregated_absorbed_;
  return out;
}

util::TextTable BlackHoleRouter::Stats::to_table() const {
  util::TextTable table({"counter", "value"});
  const auto row = [&table](const char* name, std::uint64_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("api_calls", api_calls);
  row("blocks_accepted", blocks_accepted);
  row("blocks_refused", blocks_refused);
  row("unblocks", unblocks);
  row("expired", expired);
  row("dropped_flows", dropped_flows);
  row("passed_flows", passed_flows);
  row("active_blocks", active_blocks);
  row("prefix_blocks", prefix_blocks);
  row("audit_dropped", audit_dropped);
  row("aggregated_covers", aggregated_covers);
  row("aggregated_absorbed", aggregated_absorbed);
  return table;
}

void ScanRecorder::record(const net::Flow& flow) {
  ++total_;
  State& state = per_source_[flow.src.value()];
  if (state.profile.probes == 0) {
    state.profile.source = flow.src;
    state.profile.first_seen = flow.ts;
  }
  ++state.profile.probes;
  state.profile.last_seen = std::max(state.profile.last_seen, flow.ts);
  state.add_target(static_cast<std::uint16_t>(flow.dst.value() & 0xffffu));
}

void ScanRecorder::State::add_target(std::uint16_t host) {
  if (contains(host)) return;
  const std::uint64_t distinct = profile.distinct_targets;
  if (targets.empty()) {
    if (distinct < kInlineTargets) {
      inline_targets[distinct] = host;
      ++profile.distinct_targets;
      return;
    }
    relayout(4 * kInlineTargets);  // 17th host: the sparse set opens
  } else if (!promoted && 2 * (distinct + 1) > targets.size()) {
    relayout(2 * targets.size());  // past half load: double, or promote
  }
  store(host);
  ++profile.distinct_targets;
}

bool ScanRecorder::State::contains(std::uint16_t host) const {
  if (promoted) return ((targets[host >> 4] >> (host & 15u)) & 1u) != 0;
  if (targets.empty()) {
    const auto* end = inline_targets.data() + profile.distinct_targets;
    return std::find(inline_targets.data(), end, host) != end;
  }
  if (host == 0) return sparse_has_host0;
  const std::size_t mask = targets.size() - 1;
  for (std::size_t i = util::mix64(host) & mask;; i = (i + 1) & mask) {
    if (targets[i] == host) return true;
    if (targets[i] == 0) return false;
  }
}

void ScanRecorder::State::store(std::uint16_t host) {
  if (promoted) {
    targets[host >> 4] = static_cast<std::uint16_t>(targets[host >> 4] | (1u << (host & 15u)));
    return;
  }
  if (host == 0) {
    sparse_has_host0 = true;
    return;
  }
  const std::size_t mask = targets.size() - 1;
  std::size_t i = util::mix64(host) & mask;
  while (targets[i] != 0) i = (i + 1) & mask;
  targets[i] = host;
}

void ScanRecorder::State::relayout(std::size_t slots) {
  const std::vector<std::uint16_t> sparse = std::exchange(targets, {});
  const bool from_inline = sparse.empty();
  promoted = slots > kMaxSparseSlots;
  targets.assign(promoted ? kBitmapWords : slots, 0);
  if (from_inline) {
    for (const std::uint16_t host : inline_targets) store(host);
    return;
  }
  for (const std::uint16_t host : sparse) {
    if (host != 0) store(host);
  }
  if (sparse_has_host0) store(0);
}

std::vector<ScannerProfile> ScanRecorder::top_scanners(std::size_t k) const {
  std::vector<ScannerProfile> profiles;
  profiles.reserve(per_source_.size());
  per_source_.for_each(
      [&profiles](std::uint64_t, const State& state) { profiles.push_back(state.profile); });
  std::sort(profiles.begin(), profiles.end(),
            [](const ScannerProfile& a, const ScannerProfile& b) {
              if (a.probes != b.probes) return a.probes > b.probes;
              return a.source < b.source;
            });
  if (profiles.size() > k) profiles.resize(k);
  return profiles;
}

std::vector<ScannerProfile> ScanRecorder::mass_scanners(std::uint64_t min_targets) const {
  std::vector<ScannerProfile> out;
  per_source_.for_each([&out, min_targets](std::uint64_t, const State& state) {
    if (state.profile.distinct_targets >= min_targets) out.push_back(state.profile);
  });
  // Tie-break on source so equal-count scanners don't surface in the
  // table's slot order.
  std::sort(out.begin(), out.end(), [](const ScannerProfile& a, const ScannerProfile& b) {
    if (a.distinct_targets != b.distinct_targets) {
      return a.distinct_targets > b.distinct_targets;
    }
    return a.source < b.source;
  });
  return out;
}

std::size_t ScanRecorder::promoted_sources() const {
  std::size_t promoted = 0;
  per_source_.for_each([&promoted](std::uint64_t, const State& state) {
    if (state.promoted) ++promoted;
  });
  return promoted;
}

}  // namespace at::bhr
