// Differential oracle for the BHR's metadata tier. LegacyRouter below is
// the code of the node-based tier the /24-paged one replaced, copied
// unchanged but for its comments and the traffic-plane filter methods:
// host blocks in an unordered_map of BlockEntry (two std::strings each),
// prefix blocks in a std::map of PrefixEntry, and a ring of ApiCall
// records. It drives the same LpmTrie and timing wheel the router does. Both run the
// same seeded op mixes (block, unblock, block_prefix, unblock_prefix and
// expire; TTL 0 and TTL > 0; re-blocks; refusals; in-order and shuffled
// /24 fills, which collapse into covers) at audit capacities 0, 1, 7 and
// the default. After every op, query() on the probed addresses,
// audit_log(), stats() and active_blocks() must be identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bhr/bhr.hpp"
#include "bhr/lpm_trie.hpp"
#include "sim/timing_wheel.hpp"
#include "util/rng.hpp"

namespace at::bhr {
namespace {

// ----------------------------------------------------- the previous tier

struct ExpiryTag {
  std::uint32_t ip = 0;
  void operator()(sim::Engine&) const noexcept {}
};

struct PrefixExpiryTag {
  std::uint32_t base = 0;
  std::uint8_t len = 32;
  std::uint64_t enc = 0;
  void operator()(sim::Engine&) const noexcept {}
};

constexpr std::uint64_t encode_expiry(util::SimTime expires_at) noexcept {
  return expires_at == 0 ? LpmTrie::kPermanent : static_cast<std::uint64_t>(expires_at);
}

class LegacyRouter {
 public:
  explicit LegacyRouter(BlackHoleRouter::Options options)
      : options_(options) {}

  bool block(net::Ipv4 source, util::SimTime now, util::SimTime ttl, std::string reason,
             std::string client) {
    const bool internal = protected_.contains(source);
    audit_push({now, "block", source, client, !internal, 32});
    if (internal) {
      ++blocks_refused_;
      return false;
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
      stored.ev = expiry_.schedule(std::max(entry.expires_at, expiry_.floor_time()),
                                   sim::detail::CallbackSlot(ExpiryTag{source.value()}));
    }
    apply_report(now);
    return true;
  }

  bool unblock(net::Ipv4 source, util::SimTime now, std::string client) {
    bool existed = false;
    if (const auto it = blocks_.find(source.value()); it != blocks_.end()) {
      if (it->second.ev != 0) expiry_.cancel(it->second.ev);
      blocks_.erase(it);
      existed = true;
    }
    const bool cleared = trie_.set_host(source.value(), 0);
    const bool ok = existed || cleared;
    audit_push({now, "unblock", source, std::move(client), ok, 32});
    if (ok) ++unblocks_;
    return ok;
  }

  bool block_prefix(const net::Cidr& cidr, util::SimTime now, util::SimTime ttl,
                    std::string reason, std::string client) {
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

  bool unblock_prefix(const net::Cidr& cidr, util::SimTime now, std::string client) {
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

  [[nodiscard]] bool is_blocked(net::Ipv4 source, util::SimTime now) const {
    util::EpochGuard guard(trie_.domain());
    return trie_.lookup(source.value(), now);
  }

  [[nodiscard]] std::optional<BlockEntry> query(net::Ipv4 source, util::SimTime now) const {
    if (!is_blocked(source, now)) return std::nullopt;
    if (const auto it = blocks_.find(source.value()); it != blocks_.end()) {
      const BlockEntry& entry = it->second.entry;
      if (entry.expires_at == 0 || entry.expires_at > now) return entry;
    }
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
      out.reason = "cidr-aggregated";
      out.requested_by = "bhr:aggregator";
    }
    return out;
  }

  std::size_t expire(util::SimTime now) {
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
        trie_.clear_matching(cidr, ptag->enc);
        prefix_blocks_.erase(prefix_key(cidr));
        ++removed;
      }
    }
    expired_total_ += removed;
    return removed;
  }

  [[nodiscard]] std::size_t active_blocks(util::SimTime now) const {
    std::size_t prefix_due = 0;
    for (const auto& [key, ps] : prefix_blocks_) {
      if (ps.entry.expires_at != 0 && ps.entry.expires_at <= now) ++prefix_due;
    }
    return blocks_.size() - (expiry_.count_due(now) - prefix_due);
  }

  [[nodiscard]] std::vector<ApiCall> audit_log() const {
    std::vector<ApiCall> out;
    out.reserve(audit_.size());
    for (std::size_t i = 0; i < audit_.size(); ++i) {
      out.push_back(audit_[(audit_head_ + i) % audit_.size()]);
    }
    return out;
  }

  [[nodiscard]] BlackHoleRouter::Stats stats(util::SimTime now) const {
    BlackHoleRouter::Stats out;
    out.api_calls = api_calls_total_;
    out.blocks_accepted = blocks_accepted_;
    out.blocks_refused = blocks_refused_;
    out.unblocks = unblocks_;
    out.expired = expired_total_;
    out.active_blocks = active_blocks(now);
    out.prefix_blocks = prefix_blocks_.size();
    out.audit_dropped = audit_dropped_;
    out.aggregated_covers = aggregated_covers_;
    return out;
  }

 private:
  struct Stored {
    BlockEntry entry;
    sim::EventId ev = 0;
  };
  struct PrefixStored {
    PrefixEntry entry;
    sim::EventId ev = 0;
  };

  [[nodiscard]] static std::uint64_t prefix_key(const net::Cidr& cidr) noexcept {
    return (static_cast<std::uint64_t>(cidr.base().value()) << 6) | cidr.prefix_len();
  }

  void audit_push(ApiCall call) {
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

  void apply_report(util::SimTime now) {
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

  void supersede_contained(const net::Cidr& cidr, std::uint64_t keep_key) {
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

  net::Cidr protected_ = net::blocks::ncsa16();
  BlackHoleRouter::Options options_;
  LpmTrie trie_;
  sim::detail::TimerQueue expiry_{0};
  std::unordered_map<std::uint32_t, Stored> blocks_;
  std::map<std::uint64_t, PrefixStored> prefix_blocks_;
  LpmTrie::MutationReport report_;

  std::vector<ApiCall> audit_;
  std::size_t audit_head_ = 0;
  std::uint64_t api_calls_total_ = 0;
  std::uint64_t audit_dropped_ = 0;

  std::uint64_t blocks_accepted_ = 0;
  std::uint64_t blocks_refused_ = 0;
  std::uint64_t unblocks_ = 0;
  std::uint64_t expired_total_ = 0;
  std::uint64_t aggregated_covers_ = 0;
};

// ------------------------------------------------------------ comparison

::testing::AssertionResult same_entry(const std::optional<BlockEntry>& got,
                                      const std::optional<BlockEntry>& want) {
  if (got.has_value() != want.has_value()) {
    return ::testing::AssertionFailure()
           << "blocked " << got.has_value() << ", legacy " << want.has_value();
  }
  if (!got) return ::testing::AssertionSuccess();
  if (got->source != want->source || got->blocked_at != want->blocked_at ||
      got->expires_at != want->expires_at || got->reason != want->reason ||
      got->requested_by != want->requested_by) {
    return ::testing::AssertionFailure()
           << "{" << got->blocked_at << ", " << got->expires_at << ", " << got->reason << ", "
           << got->requested_by << "} vs legacy {" << want->blocked_at << ", "
           << want->expires_at << ", " << want->reason << ", " << want->requested_by << "}";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_audit(const std::vector<ApiCall>& got,
                                      const std::vector<ApiCall>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << got.size() << " records, legacy " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ApiCall& a = got[i];
    const ApiCall& b = want[i];
    if (a.ts != b.ts || a.method != b.method || a.source != b.source || a.client != b.client ||
        a.ok != b.ok || a.prefix_len != b.prefix_len) {
      return ::testing::AssertionFailure()
             << "record " << i << ": " << a.method << " " << a.source.str() << "/"
             << a.prefix_len << " " << a.client << " vs legacy " << b.method << " "
             << b.source.str() << "/" << b.prefix_len << " " << b.client;
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_stats(const BlackHoleRouter::Stats& a,
                                      const BlackHoleRouter::Stats& b) {
  const std::vector<std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>> fields = {
      {"api_calls", {a.api_calls, b.api_calls}},
      {"blocks_accepted", {a.blocks_accepted, b.blocks_accepted}},
      {"blocks_refused", {a.blocks_refused, b.blocks_refused}},
      {"unblocks", {a.unblocks, b.unblocks}},
      {"expired", {a.expired, b.expired}},
      {"dropped_flows", {a.dropped_flows, b.dropped_flows}},
      {"passed_flows", {a.passed_flows, b.passed_flows}},
      {"active_blocks", {a.active_blocks, b.active_blocks}},
      {"prefix_blocks", {a.prefix_blocks, b.prefix_blocks}},
      {"audit_dropped", {a.audit_dropped, b.audit_dropped}},
      {"aggregated_covers", {a.aggregated_covers, b.aggregated_covers}}};
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      return ::testing::AssertionFailure()
             << name << " " << values.first << ", legacy " << values.second;
    }
  }
  return ::testing::AssertionSuccess();
}

// ------------------------------------------------------------ the op mixes

/// 16 /24s (198.51.96.0/20) that every op lands in, so host, prefix and
/// aggregation effects collide constantly.
constexpr std::uint32_t kUniverse = 0xc6336000u;
constexpr std::uint32_t kUniverseHosts = 1u << 12;

class Differential {
 public:
  Differential(BlackHoleRouter::Options options, std::uint64_t seed)
      : router_(options), legacy_(options), rng_(seed) {}

  /// Runs `ops` random ops plus the /24 fills, checking after every op.
  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFatalFailure(); ++op) {
      now_ += rng_.uniform_int(0, 3);
      const auto roll = rng_.uniform_int(0, 99);
      if (roll < 28) {
        block(random_host());
      } else if (roll < 38 && !touched_.empty()) {
        block(recent());  // re-block: new expiry, reason and client
      } else if (roll < 50) {
        const net::Ipv4 ip = rng_.uniform_int(0, 1) == 0 || touched_.empty() ? random_host()
                                                                              : recent();
        const std::string client = client_name();
        EXPECT_EQ(router_.unblock(ip, now_, client), legacy_.unblock(ip, now_, client));
        note(ip);
      } else if (roll < 58) {
        const net::Cidr cidr = random_prefix();
        const util::SimTime ttl = random_ttl();
        const std::string reason = reason_text();
        const std::string client = client_name();
        EXPECT_EQ(router_.block_prefix(cidr, now_, ttl, reason, client),
                  legacy_.block_prefix(cidr, now_, ttl, reason, client));
        note(cidr.base());
      } else if (roll < 64) {
        const net::Cidr cidr = random_prefix();
        const std::string client = client_name();
        EXPECT_EQ(router_.unblock_prefix(cidr, now_, client),
                  legacy_.unblock_prefix(cidr, now_, client));
      } else if (roll < 74) {
        EXPECT_EQ(router_.expire(now_), legacy_.expire(now_));
      } else if (roll < 78) {
        // Refused: inside (or overlapping) the protected /16.
        const net::Ipv4 inside = net::blocks::ncsa16().host(
            static_cast<std::uint64_t>(rng_.uniform_int(0, 65535)));
        const std::string client = client_name();
        EXPECT_FALSE(router_.block(inside, now_, 10, "oops", client));
        EXPECT_FALSE(legacy_.block(inside, now_, 10, "oops", client));
        const net::Cidr wide(inside, 12);
        EXPECT_FALSE(router_.block_prefix(wide, now_, 0, "oops", "ops"));
        EXPECT_FALSE(legacy_.block_prefix(wide, now_, 0, "oops", "ops"));
      } else if (roll < 84) {
        now_ += rng_.uniform_int(10, 80);  // TTLs lapse in bulk
      } else if (roll < 87) {
        fill(rng_.uniform_int(0, 1) == 0);
        continue;  // fill() checks after each of its blocks
      } else {
        const net::Ipv4 ip = random_host();
        EXPECT_EQ(router_.is_blocked(ip, now_), legacy_.is_blocked(ip, now_));
      }
      check();
    }
  }

  /// Blocks every host of one /24, in address order or shuffled; a fill
  /// is TTL'd a third of the time, so not every fill collapses.
  void fill(bool in_order) {
    const std::uint32_t base =
        kUniverse + (static_cast<std::uint32_t>(rng_.uniform_int(0, 15)) << 8);
    std::vector<std::uint32_t> hosts(256);
    for (std::uint32_t h = 0; h < 256; ++h) hosts[h] = base | h;
    if (!in_order) {
      for (std::size_t i = hosts.size() - 1; i > 0; --i) {
        std::swap(hosts[i], hosts[static_cast<std::size_t>(
                                rng_.uniform_int(0, static_cast<std::int64_t>(i)))]);
      }
    }
    const bool ttl_fill = rng_.uniform_int(0, 2) == 0;
    for (const std::uint32_t ip : hosts) {
      if (::testing::Test::HasFatalFailure()) return;
      const util::SimTime ttl =
          ttl_fill && rng_.uniform_int(0, 3) != 0 ? rng_.uniform_int(5, 300) : 0;
      EXPECT_EQ(router_.block(net::Ipv4(ip), now_, ttl, "scanner net", "ids"),
                legacy_.block(net::Ipv4(ip), now_, ttl, "scanner net", "ids"));
      note(net::Ipv4(ip));
      check();
    }
  }

  void check() {
    for (const util::SimTime t : {now_, now_ + 40}) {
      for (const net::Ipv4 ip : probes()) {
        ASSERT_TRUE(same_entry(router_.query(ip, t), legacy_.query(ip, t)))
            << ip.str() << " at t=" << t;
      }
      ASSERT_EQ(router_.active_blocks(t), legacy_.active_blocks(t)) << "t=" << t;
      ASSERT_TRUE(same_stats(router_.stats(t), legacy_.stats(t))) << "t=" << t;
    }
    ASSERT_TRUE(same_audit(router_.audit_log(), legacy_.audit_log()));
  }

  /// Runs `op` on both tiers, expects the same result, then checks.
  template <typename Op>
  void both(Op&& op) {
    EXPECT_EQ(op(router_), op(legacy_));
    check();
  }
  void probe(net::Ipv4 ip) { note(ip); }

 private:
  void block(net::Ipv4 ip) {
    const util::SimTime ttl = random_ttl();
    const std::string reason = reason_text();
    const std::string client = client_name();
    EXPECT_EQ(router_.block(ip, now_, ttl, reason, client),
              legacy_.block(ip, now_, ttl, reason, client));
    note(ip);
  }

  net::Ipv4 random_host() {
    return net::Ipv4(kUniverse +
                     static_cast<std::uint32_t>(rng_.uniform_int(0, kUniverseHosts - 1)));
  }
  net::Ipv4 recent() {
    return touched_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(touched_.size()) - 1))];
  }
  net::Cidr random_prefix() {
    const auto len = static_cast<unsigned>(rng_.uniform_int(20, 32));
    return net::Cidr(random_host(), len);
  }
  util::SimTime random_ttl() {
    return rng_.uniform_int(0, 2) == 0 ? 0 : rng_.uniform_int(1, 200);
  }
  /// Shared reasons plus near-unique ones, as factor-graph reasons are.
  std::string reason_text() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return "scanner net";
      case 1:
        return "manual";
      default:
        return "factor-graph: P(stage >= in_progress) = 0." +
               std::to_string(rng_.uniform_int(0, 999'999));
    }
  }
  std::string client_name() {
    static const std::vector<std::string> kClients = {
        "ops", "ids", "ssh-auditor", "a client name past the small-string buffer"};
    return kClients[static_cast<std::size_t>(rng_.uniform_int(0, 3))];
  }

  void note(net::Ipv4 ip) {
    touched_.push_back(ip);
    if (touched_.size() > 24) touched_.erase(touched_.begin());
  }

  /// The recently touched addresses, their /24 neighbours and a few random
  /// ones from the universe.
  std::vector<net::Ipv4> probes() {
    std::vector<net::Ipv4> out = touched_;
    for (const net::Ipv4 ip : touched_) out.emplace_back(ip.value() ^ 1u);
    for (int i = 0; i < 8; ++i) out.push_back(random_host());
    return out;
  }

  BlackHoleRouter router_;
  LegacyRouter legacy_;
  util::Rng rng_;
  util::SimTime now_ = 0;
  std::vector<net::Ipv4> touched_;
};

class BhrMetadataDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BhrMetadataDifferential, SeededOpMixesMatchTheNodeBasedTier) {
  BlackHoleRouter::Options options;
  options.audit_capacity = GetParam();
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential diff(options, seed);
    diff.fill(true);
    diff.fill(false);
    diff.run(500);
    if (HasFatalFailure()) return;
  }
}

// `exact`: the trie's one collapse rule, a /24 of 256 permanent hosts.
INSTANTIATE_TEST_SUITE_P(
    DensityAndAuditCapacity, BhrMetadataDifferential,
    ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{65536}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "exact_audit" + std::to_string(info.param);
    });

TEST(BhrMetadataDifferentialScenario, MultiPageSweepsAndProvenanceSwaps) {
  // Hosts at both ends of four /24s of a /20, each re-blocked with a new
  // reason and client; then a /20 block_prefix sweeping whole pages, a /22
  // unblock_prefix inside it, and a /8 unblock_prefix.
  Differential diff(BlackHoleRouter::Options{}, 5);
  const std::uint32_t base = net::Ipv4(203, 0, 16, 0).value();
  for (std::uint32_t page = 0; page < 4; ++page) {
    for (const std::uint32_t host : {0u, 1u, 254u, 255u}) {
      const net::Ipv4 ip(base + (page << 8) + host);
      diff.probe(ip);
      diff.both([&](auto& r) { return r.block(ip, 1, 30, "first", "ids"); });
      diff.both([&](auto& r) {
        return r.block(ip, 2, 0, "second reason, past the small-string buffer", "ops");
      });
    }
  }
  const net::Cidr net20(net::Ipv4(base), 20);
  diff.both([&](auto& r) { return r.block_prefix(net20, 3, 100, "sweep", "ops"); });
  diff.both([&](auto& r) { return r.block(net::Ipv4(base + 0x305), 4, 0, "inside", "ids"); });
  diff.both([&](auto& r) {
    return r.unblock_prefix(net::Cidr(net::Ipv4(base + 0x400), 22), 5, "ops");
  });
  diff.both([&](auto& r) { return r.block(net::Ipv4(base + 0x9ff), 6, 20, "late", "ids"); });
  diff.both([&](auto& r) { return r.expire(30); });
  diff.both([&](auto& r) { return r.unblock_prefix(net::Cidr(net::Ipv4(base), 8), 31, "ops"); });
  diff.both([&](auto& r) { return r.expire(200); });
}

}  // namespace
}  // namespace at::bhr
