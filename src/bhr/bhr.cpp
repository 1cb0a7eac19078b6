#include "bhr/bhr.hpp"

#include <algorithm>
#include <bit>
#include <functional>
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

/// ApiCall::method, indexed by BlackHoleRouter::Method.
constexpr std::array<const char*, 4> kMethodNames = {"block", "unblock", "block_prefix",
                                                     "unblock_prefix"};

}  // namespace

std::uint32_t BlackHoleRouter::Names::acquire(std::string&& text) {
  for (const std::uint32_t id : recent_) {
    if (id != kNone && slots_[id].refs != 0 && slots_[id].text == text) {
      ++slots_[id].refs;
      return id;
    }
  }
  const std::uint64_t hash = std::hash<std::string>{}(text);
  std::uint32_t* head = by_hash_.find(hash);
  std::uint32_t id = kNone;
  if (head != nullptr) {
    for (id = *head; id != kNone && slots_[id].text != text;) id = slots_[id].next;
  }
  recent_next_ ^= 1u;
  if (id != kNone) {
    ++slots_[id].refs;
    recent_[recent_next_] = id;
    return id;
  }
  id = free_;
  if (id == kNone) {
    id = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_ = slots_[id].next;
  }
  Slot& slot = slots_[id];
  slot.text = std::move(text);
  slot.hash = hash;
  slot.refs = 1;
  if (head != nullptr) {
    slot.next = *head;
    *head = id;
  } else {
    slot.next = kNone;
    by_hash_[hash] = id;
  }
  recent_[recent_next_] = id;
  return id;
}

void BlackHoleRouter::Names::release(std::uint32_t id) {
  Slot& slot = slots_[id];
  if (--slot.refs != 0) return;
  std::uint32_t& head = *by_hash_.find(slot.hash);
  if (head == id) {
    if (slot.next == kNone) {
      by_hash_.erase(slot.hash);
    } else {
      head = slot.next;
    }
  } else {
    std::uint32_t prev = head;
    while (slots_[prev].next != id) prev = slots_[prev].next;
    slots_[prev].next = slot.next;
  }
  std::string().swap(slot.text);  // a move-assign would keep the capacity
  slot.next = free_;
  free_ = id;
}

std::size_t BlackHoleRouter::HostPage::rank(std::uint32_t host) const noexcept {
  const std::uint32_t word = host >> 6;
  std::size_t below = static_cast<std::size_t>(
      std::popcount(present[word] & ((std::uint64_t{1} << (host & 63u)) - 1)));
  for (std::uint32_t w = 0; w < word; ++w) {
    below += static_cast<std::size_t>(std::popcount(present[w]));
  }
  return below;
}

BlackHoleRouter::BlackHoleRouter(Options options)
    : options_(options) {}

void BlackHoleRouter::audit_push(util::SimTime ts, Method method, std::uint32_t address,
                                 unsigned prefix_len, std::uint32_t client, bool ok) {
  ++api_calls_total_;
  const AuditRecord record{ts, address, client, static_cast<std::uint8_t>(prefix_len),
                           method, ok};
  if (audit_.size() < options_.audit_capacity) {
    audit_.push_back(record);
    return;
  }
  ++audit_dropped_;
  if (options_.audit_capacity == 0) {
    names_.release(client);
    return;
  }
  names_.release(audit_[audit_head_].client);
  audit_[audit_head_] = record;
  audit_head_ = (audit_head_ + 1) % options_.audit_capacity;
}

std::vector<ApiCall> BlackHoleRouter::audit_log() const {
  std::vector<ApiCall> out;
  out.reserve(audit_.size());
  for (std::size_t i = 0; i < audit_.size(); ++i) {
    const AuditRecord& record = audit_[(audit_head_ + i) % audit_.size()];
    out.push_back({record.ts, kMethodNames[static_cast<std::size_t>(record.method)],
                   net::Ipv4(record.address), names_.text(record.client), record.ok,
                   record.prefix_len});
  }
  return out;
}

void BlackHoleRouter::forget(const Meta& meta) {
  if (meta.ev != 0) expiry_.cancel(meta.ev);
  names_.release(meta.reason);
  names_.release(meta.client);
}

const BlackHoleRouter::HostPage* BlackHoleRouter::find_page(std::uint32_t ip) const noexcept {
  const std::uint32_t* index = page_index_.find(ip >> 8);
  return index != nullptr ? &pages_[*index] : nullptr;
}

void BlackHoleRouter::drop_page(std::uint64_t key) {
  const std::uint32_t index = *page_index_.find(key);
  pages_[index] = HostPage{};
  free_pages_.push_back(index);
  page_index_.erase(key);
}

const BlackHoleRouter::Meta* BlackHoleRouter::find_host(std::uint32_t ip) const noexcept {
  const HostPage* page = find_page(ip);
  const std::uint32_t host = ip & 0xffu;
  if (page == nullptr || !page->has(host)) return nullptr;
  return &page->entries[page->rank(host)];
}

BlackHoleRouter::Meta& BlackHoleRouter::host_entry(std::uint32_t ip, bool& fresh) {
  HostPage* found = find_page(ip);
  if (found == nullptr) {
    std::uint32_t index = 0;
    if (free_pages_.empty()) {
      index = static_cast<std::uint32_t>(pages_.size());
      pages_.emplace_back();
    } else {
      index = free_pages_.back();
      free_pages_.pop_back();
    }
    page_index_[ip >> 8] = index;
    found = &pages_[index];
  }
  HostPage& page = *found;
  const std::uint32_t host = ip & 0xffu;
  const std::size_t at = page.rank(host);
  fresh = !page.has(host);
  if (fresh) {
    page.present[host >> 6] |= std::uint64_t{1} << (host & 63u);
    page.entries.insert(page.entries.begin() + static_cast<std::ptrdiff_t>(at), Meta{});
    ++host_blocks_;
  }
  return page.entries[at];
}

bool BlackHoleRouter::erase_host(std::uint32_t ip) {
  HostPage* page = find_page(ip);
  const std::uint32_t host = ip & 0xffu;
  if (page == nullptr || !page->has(host)) return false;
  const auto at = page->entries.begin() + static_cast<std::ptrdiff_t>(page->rank(host));
  forget(*at);
  page->entries.erase(at);
  page->present[host >> 6] &= ~(std::uint64_t{1} << (host & 63u));
  --host_blocks_;
  if (page->entries.empty()) drop_page(ip >> 8);
  return true;
}

void BlackHoleRouter::erase_hosts_in(const net::Cidr& cidr) {
  const std::uint32_t base = cidr.base().value();
  if (cidr.prefix_len() >= 24) {
    HostPage* page = find_page(base);
    if (page == nullptr) return;
    const std::uint32_t first = base & 0xffu;
    const auto last = static_cast<std::uint32_t>(first + cidr.host_count() - 1);
    const std::size_t from = page->rank(first);
    std::size_t to = from;
    for (std::uint32_t host = first; host <= last; ++host) {
      if (!page->has(host)) continue;
      forget(page->entries[to++]);
      page->present[host >> 6] &= ~(std::uint64_t{1} << (host & 63u));
    }
    page->entries.erase(page->entries.begin() + static_cast<std::ptrdiff_t>(from),
                        page->entries.begin() + static_cast<std::ptrdiff_t>(to));
    host_blocks_ -= to - from;
    if (page->entries.empty()) drop_page(base >> 8);
    return;
  }
  // Whole pages: the directory's keys in range, sorted.
  const std::uint64_t first_page = base >> 8;
  const std::uint64_t range_pages = cidr.host_count() >> 8;
  std::vector<std::uint64_t> keys;
  page_index_.for_each([&](std::uint64_t key, std::uint32_t) {
    if (key - first_page < range_pages) keys.push_back(key);
  });
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    const HostPage& page = pages_[*page_index_.find(key)];
    for (const Meta& meta : page.entries) forget(meta);
    host_blocks_ -= page.entries.size();
    drop_page(key);
  }
}

void BlackHoleRouter::apply_report(util::SimTime now) {
  // Each collapse gets synthetic prefix metadata so query() can still
  // explain why a covered host is black-holed. An explicit operator-made
  // prefix entry is never overwritten.
  for (const net::Cidr& cidr : report_.covers_added) {
    ++aggregated_covers_;
    const auto [it, fresh] = prefix_blocks_.try_emplace(prefix_key(cidr));
    if (fresh) {
      it->second = {now, 0, 0, names_.acquire("cidr-aggregated"),
                    names_.acquire("bhr:aggregator")};
    }
  }
  report_.clear();
}

void BlackHoleRouter::supersede_contained(const net::Cidr& cidr,
                                          std::uint64_t keep_key) {
  // Ascending address order: the wheel's free list depends on the order
  // of the cancels.
  erase_hosts_in(cidr);
  for (auto it = prefix_blocks_.begin(); it != prefix_blocks_.end();) {
    if (it->first != keep_key && cidr.contains(prefix_of(it->first))) {
      forget(it->second);
      it = prefix_blocks_.erase(it);
    } else {
      ++it;
    }
  }
}

bool BlackHoleRouter::block(net::Ipv4 source, util::SimTime now, util::SimTime ttl,
                            std::string reason, std::string client) {
  const bool internal = protected_.contains(source);
  const std::uint32_t client_id = names_.acquire(std::move(client));
  if (!internal) names_.retain(client_id);  // the entry's reference
  audit_push(now, Method::kBlock, source.value(), 32, client_id, !internal);
  if (internal) {
    ++blocks_refused_;
    return false;  // never blackhole the protected network
  }
  ++blocks_accepted_;
  const Meta meta{now, ttl > 0 ? now + ttl : 0, 0, names_.acquire(std::move(reason)),
                  client_id};
  bool fresh = false;
  Meta& stored = host_entry(source.value(), fresh);
  if (!fresh) forget(stored);
  stored = meta;
  trie_.set_host(source.value(), encode_expiry(meta.expires_at), &report_);
  if (meta.expires_at != 0) {
    stored.ev = expiry_.schedule(
        std::max(meta.expires_at, expiry_.floor_time()),
        sim::detail::CallbackSlot(ExpiryTag{source.value()}));
  }
  apply_report(now);
  return true;
}

bool BlackHoleRouter::unblock(net::Ipv4 source, util::SimTime now, std::string client) {
  const bool existed = erase_host(source.value());
  // Punches through covers too: unblocking a host inside a blocked prefix
  // opens exactly that host (most recent mutation wins).
  const bool cleared = trie_.set_host(source.value(), 0);
  const bool ok = existed || cleared;
  audit_push(now, Method::kUnblock, source.value(), 32, names_.acquire(std::move(client)),
             ok);
  if (ok) ++unblocks_;
  return ok;
}

bool BlackHoleRouter::block_prefix(const net::Cidr& cidr, util::SimTime now,
                                   util::SimTime ttl, std::string reason,
                                   std::string client) {
  const bool refused = protected_.overlaps(cidr);
  const std::uint32_t client_id = names_.acquire(std::move(client));
  if (!refused) names_.retain(client_id);  // the entry's reference
  audit_push(now, Method::kBlockPrefix, cidr.base().value(), cidr.prefix_len(), client_id,
             !refused);
  if (refused) {
    ++blocks_refused_;
    return false;
  }
  ++blocks_accepted_;
  const std::uint64_t key = prefix_key(cidr);
  const auto [it, fresh] = prefix_blocks_.try_emplace(key);
  Meta& stored = it->second;
  if (!fresh) forget(stored);
  stored = {now, ttl > 0 ? now + ttl : 0, 0, names_.acquire(std::move(reason)), client_id};
  const std::uint64_t enc = encode_expiry(stored.expires_at);
  trie_.set_prefix(cidr, enc, &report_);
  if (stored.expires_at != 0) {
    stored.ev = expiry_.schedule(
        std::max(stored.expires_at, expiry_.floor_time()),
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
    forget(it->second);
    prefix_blocks_.erase(it);
    existed = true;
  }
  const bool cleared = trie_.set_prefix(cidr, 0);
  supersede_contained(cidr, key);
  const bool ok = existed || cleared;
  audit_push(now, Method::kUnblockPrefix, cidr.base().value(), cidr.prefix_len(),
             names_.acquire(std::move(client)), ok);
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
  BlockEntry out;
  out.source = source;
  if (const Meta* meta = find_host(source.value());
      meta != nullptr && (meta->expires_at == 0 || meta->expires_at > now)) {
    out.blocked_at = meta->blocked_at;
    out.expires_at = meta->expires_at;
    out.reason = names_.text(meta->reason);
    out.requested_by = names_.text(meta->client);
    return out;
  }
  // Fall back to the longest live covering prefix (explicit or aggregated).
  const Meta* best = nullptr;
  unsigned best_len = 0;
  for (const auto& [key, candidate] : prefix_blocks_) {
    const net::Cidr cidr = prefix_of(key);
    if (!cidr.contains(source)) continue;
    if (candidate.expires_at != 0 && candidate.expires_at <= now) continue;
    if (best == nullptr || cidr.prefix_len() > best_len) {
      best = &candidate;
      best_len = cidr.prefix_len();
    }
  }
  if (best != nullptr) {
    out.blocked_at = best->blocked_at;
    out.expires_at = best->expires_at;
    out.reason = names_.text(best->reason);
    out.requested_by = names_.text(best->client);
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
      // erase_host's cancel of the event that just fired reports false:
      // pop_due freed its slot.
      erase_host(tag->ip);
      trie_.set_host(tag->ip, 0);
      ++removed;
    } else if (const auto* ptag = cb.target<PrefixExpiryTag>()) {
      const net::Cidr cidr(net::Ipv4(ptag->base), ptag->len);
      // Only clear what this block laid down: hosts re-blocked inside the
      // prefix since (different expiry word) survive the reap.
      trie_.clear_matching(cidr, ptag->enc);
      if (const auto it = prefix_blocks_.find(prefix_key(cidr)); it != prefix_blocks_.end()) {
        forget(it->second);
        prefix_blocks_.erase(it);
      }
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
  for (const auto& [key, meta] : prefix_blocks_) {
    if (meta.expires_at != 0 && meta.expires_at <= now) ++prefix_due;
  }
  return host_blocks_ - (expiry_.count_due(now) - prefix_due);
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
