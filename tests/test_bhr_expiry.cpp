// Property tests for the BHR's TTL expiry machinery and the tiered scan
// recorder.
//
// Expiry rides the sim timing wheel (one scheduled event per TTL'd block,
// cancelled in O(1) on re-block/unblock — the successor of the seed's
// lazy-deleted min-heap); a naive model (map of expiry times, full scan
// each query) is the oracle. Random traces mix TTL'd blocks, permanent
// blocks, re-blocks that extend or shorten TTLs, unblocks, and
// out-of-order expire() ticks.

#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <vector>

#include "bhr/bhr.hpp"
#include "util/rng.hpp"

namespace at {
namespace {

net::Ipv4 external_ip(std::uint32_t n) {
  // 203.x.y.z — safely outside the protected /16.
  return net::Ipv4(203, static_cast<std::uint8_t>(n >> 16),
                   static_cast<std::uint8_t>(n >> 8), static_cast<std::uint8_t>(n));
}

// Naive reference: ip -> (expires_at, permanent?) with full-scan queries.
class NaiveBlockModel {
 public:
  void block(std::uint32_t ip, util::SimTime now, util::SimTime ttl) {
    table_[ip] = ttl > 0 ? now + ttl : 0;
  }
  bool unblock(std::uint32_t ip) { return table_.erase(ip) > 0; }
  std::size_t expire(util::SimTime now) {
    std::size_t removed = 0;
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second != 0 && it->second <= now) {
        it = table_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }
  [[nodiscard]] std::size_t active(util::SimTime now) const {
    std::size_t count = 0;
    for (const auto& [ip, expiry] : table_) {
      if (expiry == 0 || expiry > now) ++count;
    }
    return count;
  }
  [[nodiscard]] bool is_blocked(std::uint32_t ip, util::SimTime now) const {
    const auto it = table_.find(ip);
    return it != table_.end() && (it->second == 0 || it->second > now);
  }

 private:
  std::map<std::uint32_t, util::SimTime> table_;
};

class BhrExpiryProperty : public ::testing::TestWithParam<int> {};

TEST_P(BhrExpiryProperty, HeapMatchesNaiveModelOnRandomTraces) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 7);
  bhr::BlackHoleRouter router;
  NaiveBlockModel model;
  util::SimTime now = 0;
  constexpr std::uint32_t kPopulation = 300;

  for (int step = 0; step < 4000; ++step) {
    now += rng.uniform_int(0, 30);
    const auto ip = static_cast<std::uint32_t>(rng.uniform_int(0, kPopulation - 1));
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 55) {
      // TTL'd block; frequent re-blocks of the same small population make
      // most heap items stale (the lazy-deletion stress).
      const util::SimTime ttl = rng.uniform_int(1, 200);
      router.block(external_ip(ip), now, ttl, "scan", "test");
      model.block(ip, now, ttl);
    } else if (roll < 62) {
      router.block(external_ip(ip), now, 0, "manual", "test");  // permanent
      model.block(ip, now, 0);
    } else if (roll < 75) {
      EXPECT_EQ(router.unblock(external_ip(ip), now, "test"), model.unblock(ip));
    } else if (roll < 90) {
      EXPECT_EQ(router.expire(now), model.expire(now));
    }
    EXPECT_EQ(router.is_blocked(external_ip(ip), now), model.is_blocked(ip, now));
    if (step % 16 == 0) {
      EXPECT_EQ(router.active_blocks(now), model.active(now)) << "step " << step;
    }
  }
  // Final reconciliation: everything TTL'd eventually expires.
  now += 100000;
  EXPECT_EQ(router.expire(now), model.expire(now));
  EXPECT_EQ(router.active_blocks(now), model.active(now));
}

INSTANTIATE_TEST_SUITE_P(Traces, BhrExpiryProperty, ::testing::Range(0, 8));

TEST(BhrExpiry, ReblockExtendsAndOldHeapItemGoesStale) {
  bhr::BlackHoleRouter router;
  const net::Ipv4 ip = external_ip(1);
  ASSERT_TRUE(router.block(ip, 0, 10, "a", "t"));
  ASSERT_TRUE(router.block(ip, 5, 100, "b", "t"));  // extends to 105
  // The original item surfaces at t=10 but is stale — nothing expires.
  EXPECT_EQ(router.expire(10), 0u);
  EXPECT_TRUE(router.is_blocked(ip, 10));
  EXPECT_EQ(router.active_blocks(10), 1u);
  EXPECT_EQ(router.expire(105), 1u);
  EXPECT_FALSE(router.is_blocked(ip, 105));
}

TEST(BhrExpiry, PermanentBlocksNeverExpire) {
  bhr::BlackHoleRouter router;
  ASSERT_TRUE(router.block(external_ip(1), 0, 0, "perm", "t"));
  ASSERT_TRUE(router.block(external_ip(2), 0, 50, "ttl", "t"));
  EXPECT_EQ(router.expire(1000000), 1u);
  EXPECT_EQ(router.active_blocks(1000000), 1u);
  EXPECT_TRUE(router.is_blocked(external_ip(1), 1000000));
}

// --- hybrid scan recorder ------------------------------------------------

net::Flow probe(std::uint32_t src, std::uint16_t host, util::SimTime ts) {
  net::Flow flow;
  flow.ts = ts;
  flow.src = external_ip(src);
  flow.dst = net::blocks::ncsa16().host(host);
  flow.dst_port = 22;
  flow.state = net::ConnState::kAttempt;
  return flow;
}

TEST(ScanRecorderHybrid, SmallSetCountsExactlyAndDoesNotPromote) {
  bhr::ScanRecorder recorder;
  // 16 distinct targets, each probed twice, in interleaved order.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint16_t h = 100; h < 116; ++h) {
      recorder.record(probe(1, h, pass));
    }
  }
  EXPECT_EQ(recorder.promoted_sources(), 0u);
  const auto top = recorder.top_scanners(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].probes, 32u);
  EXPECT_EQ(top[0].distinct_targets, 16u);
}

TEST(ScanRecorderHybrid, PromotionAt2049thTargetKeepsExactCounts) {
  bhr::ScanRecorder recorder;
  util::Rng rng(99);
  // Reference distinct-set per source.
  std::map<std::uint32_t, std::vector<bool>> seen;
  std::map<std::uint32_t, std::size_t> distinct;
  for (int i = 0; i < 20000; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
    const auto host = static_cast<std::uint16_t>(rng.uniform_int(1, 4000));
    recorder.record(probe(src, host, i));
    auto& bits = seen[src];
    if (bits.empty()) bits.resize(65536, false);
    if (!bits[host]) {
      bits[host] = true;
      ++distinct[src];
    }
  }
  EXPECT_EQ(recorder.promoted_sources(), 5u);  // all five crossed 2,048 targets
  for (const auto& profile : recorder.top_scanners(10)) {
    EXPECT_EQ(profile.distinct_targets, distinct[profile.source.value() & 0xffffffu])
        << profile.source.str();
  }
}

TEST(ScanRecorderHybrid, SparseTierHoldsUpTo2048Targets) {
  bhr::ScanRecorder recorder;
  // 2,048 distinct hosts, host 0 among them, each probed twice: the
  // source stays in the sparse tier through every doubling.
  std::vector<std::uint16_t> hosts;
  for (std::uint32_t h = 0; h < 2048; ++h) hosts.push_back(static_cast<std::uint16_t>(h * 31));
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::uint16_t h : hosts) recorder.record(probe(1, h, pass));
  }
  EXPECT_EQ(recorder.promoted_sources(), 0u);
  EXPECT_EQ(recorder.top_scanners(1)[0].distinct_targets, 2048u);
  // The 2,049th distinct host promotes to the bitmap; counts stay exact.
  recorder.record(probe(1, 65535, 2));
  EXPECT_EQ(recorder.promoted_sources(), 1u);
  for (const std::uint16_t h : hosts) recorder.record(probe(1, h, 3));
  recorder.record(probe(1, 65535, 4));
  const auto top = recorder.top_scanners(1);
  EXPECT_EQ(top[0].distinct_targets, 2049u);
  EXPECT_EQ(top[0].probes, 2u * 2048u + 1u + 2048u + 1u);
}

TEST(ScanRecorderHybrid, OneProbeSourcesStayInline) {
  bhr::ScanRecorder recorder;
  for (std::uint32_t src = 0; src < 5000; ++src) {
    recorder.record(probe(src, static_cast<std::uint16_t>(src & 0xfff), 1));
  }
  EXPECT_EQ(recorder.distinct_sources(), 5000u);
  EXPECT_EQ(recorder.promoted_sources(), 0u);
}

TEST(ScanRecorderHybrid, TopScannersBreaksEqualCountTiesByAscendingSource) {
  bhr::ScanRecorder recorder;
  // Three tiers of equal-probe-count sources, recorded in an order chosen
  // to disagree with the documented tie-break (descending addresses, tiers
  // interleaved) so a ranking that leaks unordered_map iteration order
  // fails. Regression for the determinism contract on top_scanners().
  const std::uint32_t tier3[] = {9, 4, 7};  // 3 probes each
  const std::uint32_t tier2[] = {8, 2, 5};  // 2 probes each
  const std::uint32_t tier1[] = {6, 1, 3};  // 1 probe each
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::uint32_t src : tier3) recorder.record(probe(src, 10, pass));
    if (pass < 2) {
      for (const std::uint32_t src : tier2) recorder.record(probe(src, 10, pass));
    }
    if (pass < 1) {
      for (const std::uint32_t src : tier1) recorder.record(probe(src, 10, pass));
    }
  }
  const auto top = recorder.top_scanners(9);
  ASSERT_EQ(top.size(), 9u);
  const std::uint32_t expected[] = {4, 7, 9, 2, 5, 8, 1, 3, 6};
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(top[i].source, external_ip(expected[i])) << "rank " << i;
    EXPECT_EQ(top[i].probes, 3u - i / 3) << "rank " << i;
  }
  // A shorter k truncates the same total order.
  const auto top4 = recorder.top_scanners(4);
  ASSERT_EQ(top4.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(top4[i].source, external_ip(expected[i]));
}

// Reference copy of the recorder before the sparse tier: node-based
// per-source map, 16 inline targets, then the full /16 bitmap.
class ReferenceScanRecorder {
 public:
  void record(const net::Flow& flow) {
    ++total_;
    State& state = per_source_[flow.src.value()];
    if (state.profile.probes == 0) {
      state.profile.source = flow.src;
      state.profile.first_seen = flow.ts;
    }
    ++state.profile.probes;
    state.profile.last_seen = std::max(state.profile.last_seen, flow.ts);
    const auto host = static_cast<std::uint16_t>(flow.dst.value() & 0xffffu);
    if (!state.promoted) {
      const auto* begin = state.small_targets.data();
      const auto* end = begin + state.small_count;
      if (std::find(begin, end, host) != end) return;
      if (state.small_count < State::kSmallTargets) {
        state.small_targets[state.small_count++] = host;
        ++state.profile.distinct_targets;
        return;
      }
      state.target_bits.assign(1024, 0);
      for (const std::uint16_t seen : state.small_targets) {
        state.target_bits[seen >> 6] |= 1ULL << (seen & 63u);
      }
      state.promoted = true;
    }
    auto& word = state.target_bits[host >> 6];
    const std::uint64_t bit = 1ULL << (host & 63u);
    if ((word & bit) == 0) {
      word |= bit;
      ++state.profile.distinct_targets;
    }
  }

  [[nodiscard]] std::uint64_t total_probes() const { return total_; }
  [[nodiscard]] std::size_t distinct_sources() const { return per_source_.size(); }
  [[nodiscard]] std::vector<bhr::ScannerProfile> top_scanners(std::size_t k) const {
    std::vector<bhr::ScannerProfile> out;
    for (const auto& [key, state] : per_source_) out.push_back(state.profile);
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.probes != b.probes) return a.probes > b.probes;
      return a.source < b.source;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }
  [[nodiscard]] std::vector<bhr::ScannerProfile> mass_scanners(std::uint64_t min_targets) const {
    std::vector<bhr::ScannerProfile> out;
    for (const auto& [key, state] : per_source_) {
      if (state.profile.distinct_targets >= min_targets) out.push_back(state.profile);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.distinct_targets != b.distinct_targets) {
        return a.distinct_targets > b.distinct_targets;
      }
      return a.source < b.source;
    });
    return out;
  }

 private:
  struct State {
    static constexpr std::size_t kSmallTargets = 16;
    bhr::ScannerProfile profile;
    std::array<std::uint16_t, kSmallTargets> small_targets{};
    std::uint8_t small_count = 0;
    bool promoted = false;
    std::vector<std::uint64_t> target_bits;
  };
  std::unordered_map<std::uint32_t, State> per_source_;
  std::uint64_t total_ = 0;
};

void expect_same_profiles(const std::vector<bhr::ScannerProfile>& got,
                          const std::vector<bhr::ScannerProfile>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source, want[i].source) << "rank " << i;
    EXPECT_EQ(got[i].probes, want[i].probes) << "rank " << i;
    EXPECT_EQ(got[i].distinct_targets, want[i].distinct_targets) << "rank " << i;
    EXPECT_EQ(got[i].first_seen, want[i].first_seen) << "rank " << i;
    EXPECT_EQ(got[i].last_seen, want[i].last_seen) << "rank " << i;
  }
}

TEST(ScanRecorderHybrid, TieredTargetsMatchReference) {
  // Sources sized at every tier boundary (1, 16, 17, 2,048, 2,049 distinct
  // hosts, and past them), host 0 and 65,535 in every target list, a Zipf
  // crowd of one-probe and few-probe sources, repeats, and a clock that
  // steps backwards, all interleaved.
  const std::uint64_t sizes[] = {1, 2, 15, 16, 17, 18, 33, 1024, 2047, 2048, 2049, 2050, 5000};
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<net::Flow> flows;
    for (std::size_t s = 0; s < std::size(sizes); ++s) {
      std::vector<std::uint16_t> hosts = {0, 65535};
      std::vector<bool> taken(65536, false);
      taken[0] = taken[65535] = true;
      while (hosts.size() < sizes[s]) {
        const auto h = static_cast<std::uint16_t>(rng());
        if (!taken[h]) {
          taken[h] = true;
          hosts.push_back(h);
        }
      }
      hosts.resize(sizes[s]);
      for (const std::uint16_t h : hosts) {
        const auto repeats = rng.bernoulli(0.3) ? 2 : 1;
        for (int r = 0; r < repeats; ++r) {
          flows.push_back(probe(static_cast<std::uint32_t>(s), h, rng.uniform_int(-50, 5000)));
        }
      }
    }
    for (int i = 0; i < 20000; ++i) {
      const auto src = static_cast<std::uint32_t>(1000 + rng.zipf(8000, 1.1));
      flows.push_back(probe(src, static_cast<std::uint16_t>(rng()), rng.uniform_int(0, 5000)));
    }
    rng.shuffle(flows);

    bhr::ScanRecorder recorder;
    ReferenceScanRecorder reference;
    for (const auto& flow : flows) {
      recorder.record(flow);
      reference.record(flow);
    }
    EXPECT_EQ(recorder.total_probes(), reference.total_probes());
    EXPECT_EQ(recorder.distinct_sources(), reference.distinct_sources());
    expect_same_profiles(recorder.top_scanners(flows.size()),
                         reference.top_scanners(flows.size()));
    expect_same_profiles(recorder.top_scanners(7), reference.top_scanners(7));
    for (const std::uint64_t k : {0u, 1u, 2u, 16u, 17u, 2048u, 2049u, 4000u}) {
      SCOPED_TRACE("mass_scanners " + std::to_string(k));
      expect_same_profiles(recorder.mass_scanners(k), reference.mass_scanners(k));
    }
    // Every tier is reached: the sources sized 2,049, 2,050 and 5,000 (and
    // the head of the Zipf crowd) hold bitmaps, the rest do not.
    EXPECT_GE(recorder.promoted_sources(), 3u);
    EXPECT_EQ(recorder.promoted_sources(), recorder.mass_scanners(2049).size());
  }
}

}  // namespace
}  // namespace at
