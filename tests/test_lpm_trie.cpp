// LpmTrie unit + randomized property tests.
//
// The property oracle is deliberately structure-free: a recorded list of
// mutations, where blocked(ip) replays every mutation containing ip in
// order (last writer wins, clear_matching conditional on the current
// word). Random traces mix host writes, nested/adjacent prefix covers at
// every level the trie distinguishes (L1 ranges, L2 ranges, leaf
// sub-ranges), clears, and TTL reaps; sampled probes concentrate on cover
// boundaries where off-by-one bugs live.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bhr/lpm_trie.hpp"
#include "net/cidr.hpp"
#include "util/epoch.hpp"
#include "util/rng.hpp"

namespace at {
namespace {

using bhr::LpmTrie;

constexpr std::uint64_t kPerm = LpmTrie::kPermanent;

bool word_blocked(std::uint64_t word, util::SimTime now) {
  return word == kPerm || (word != 0 && static_cast<util::SimTime>(word) > now);
}

// --- structure-free oracle -------------------------------------------------

struct Mutation {
  enum class Kind { kSetHost, kSetPrefix, kClearMatching } kind;
  net::Cidr cidr;  ///< /32 for kSetHost
  std::uint64_t enc = 0;
};

class MutationLog {
 public:
  void set_host(std::uint32_t ip, std::uint64_t enc) {
    ops_.push_back({Mutation::Kind::kSetHost, net::Cidr(net::Ipv4(ip), 32), enc});
  }
  void set_prefix(const net::Cidr& cidr, std::uint64_t enc) {
    ops_.push_back({Mutation::Kind::kSetPrefix, cidr, enc});
  }
  void clear_matching(const net::Cidr& cidr, std::uint64_t enc) {
    ops_.push_back({Mutation::Kind::kClearMatching, cidr, enc});
  }

  [[nodiscard]] std::uint64_t word(net::Ipv4 ip) const {
    std::uint64_t w = 0;
    for (const Mutation& op : ops_) {
      if (!op.cidr.contains(ip)) continue;
      switch (op.kind) {
        case Mutation::Kind::kSetHost:
        case Mutation::Kind::kSetPrefix:
          w = op.enc;
          break;
        case Mutation::Kind::kClearMatching:
          if (w == op.enc) w = 0;
          break;
      }
    }
    return w;
  }

  [[nodiscard]] const std::vector<Mutation>& ops() const { return ops_; }

 private:
  std::vector<Mutation> ops_;
};

// --- unit tests ------------------------------------------------------------

TEST(LpmTrie, HostWordsBlockAndExpireAndClear) {
  LpmTrie trie;
  util::EpochGuard guard(trie.domain());
  const std::uint32_t ip = net::Ipv4(203, 0, 113, 7).value();
  EXPECT_FALSE(trie.lookup(ip, 0));
  trie.set_host(ip, 100);  // TTL word: blocked strictly before t=100
  EXPECT_TRUE(trie.lookup(ip, 99));
  EXPECT_FALSE(trie.lookup(ip, 100));
  trie.set_host(ip, kPerm);
  EXPECT_TRUE(trie.lookup(ip, 1'000'000));
  EXPECT_TRUE(trie.set_host(ip, 0));
  EXPECT_FALSE(trie.lookup(ip, 0));
  // Fully cleared: the structure pruned back to empty.
  const auto stats = trie.stats();
  EXPECT_EQ(stats.l2_nodes, 0u);
  EXPECT_EQ(stats.leaves, 0u);
  EXPECT_EQ(stats.host_entries, 0u);
  EXPECT_EQ(stats.covers, 0u);
}

TEST(LpmTrie, CoversAtEveryLevelAndBoundaries) {
  LpmTrie trie;
  util::EpochGuard guard(trie.domain());
  const net::Cidr wide(net::Ipv4(10, 0, 0, 0), 15);    // L1 range: two /16s
  const net::Cidr mid(net::Ipv4(10, 2, 8, 0), 21);     // L2 range: eight /24s
  const net::Cidr narrow(net::Ipv4(10, 3, 3, 64), 26);  // leaf sub-range
  for (const auto& cidr : {wide, mid, narrow}) {
    trie.set_prefix(cidr, kPerm);
    EXPECT_TRUE(trie.lookup(cidr.base().value(), 0)) << cidr.str();
    EXPECT_TRUE(trie.lookup(cidr.last().value(), 0)) << cidr.str();
    EXPECT_FALSE(trie.lookup(cidr.base().value() - 1, 0)) << cidr.str();
    EXPECT_FALSE(trie.lookup(cidr.last().value() + 1, 0)) << cidr.str();
  }
}

TEST(LpmTrie, NestedMutationsMostRecentWins) {
  LpmTrie trie;
  util::EpochGuard guard(trie.domain());
  const net::Cidr net16(net::Ipv4(192, 168, 0, 0), 16);
  const net::Cidr net24(net::Ipv4(192, 168, 5, 0), 24);
  const std::uint32_t host = net::Ipv4(192, 168, 5, 9).value();

  trie.set_prefix(net16, kPerm);
  EXPECT_TRUE(trie.lookup(host, 0));
  // Narrower clear punches a hole through the wider cover.
  trie.set_prefix(net24, 0);
  EXPECT_FALSE(trie.lookup(host, 0));
  EXPECT_TRUE(trie.lookup(net::Ipv4(192, 168, 6, 1).value(), 0));
  // Host-level re-block inside the hole.
  trie.set_host(host, 50);
  EXPECT_TRUE(trie.lookup(host, 49));
  // Wider clear removes everything.
  trie.set_prefix(net16, 0);
  EXPECT_FALSE(trie.lookup(host, 0));
  const auto stats = trie.stats();
  EXPECT_EQ(stats.covers + stats.leaves + stats.l2_nodes + stats.host_entries, 0u);
}

TEST(LpmTrie, ClearMatchingSparesReblockedHosts) {
  LpmTrie trie;
  util::EpochGuard guard(trie.domain());
  const net::Cidr net24(net::Ipv4(198, 51, 100, 0), 24);
  const std::uint32_t survivor = net::Ipv4(198, 51, 100, 40).value();
  trie.set_prefix(net24, 500);     // TTL cover, expires at 500
  trie.set_host(survivor, kPerm);  // later, stronger block on one host
  EXPECT_TRUE(trie.clear_matching(net24, 500));  // the TTL reap at t=500
  EXPECT_TRUE(trie.lookup(survivor, 1000));
  EXPECT_FALSE(trie.lookup(survivor + 1, 0));
  // Reap again: nothing left that matches.
  EXPECT_FALSE(trie.clear_matching(net24, 500));
}

TEST(LpmTrie, ExactAggregationCollapsesFullLeavesAndNodes) {
  LpmTrie trie;
  util::EpochGuard guard(trie.domain());
  LpmTrie::MutationReport report;
  // 255 hosts: no collapse yet.
  for (std::uint32_t i = 0; i < 255; ++i) {
    trie.set_host(net::Ipv4(203, 9, 1, 0).value() + i, kPerm, &report);
  }
  EXPECT_TRUE(report.covers_added.empty());
  EXPECT_EQ(trie.stats().covers, 0u);
  // The 256th permanent host completes the /24: exact collapse.
  trie.set_host(net::Ipv4(203, 9, 1, 255).value(), kPerm, &report);
  ASSERT_EQ(report.covers_added.size(), 1u);
  EXPECT_EQ(report.covers_added[0], net::Cidr(net::Ipv4(203, 9, 1, 0), 24));
  const auto stats = trie.stats();
  EXPECT_EQ(stats.covers, 1u);
  EXPECT_EQ(stats.leaves, 0u);
  EXPECT_EQ(stats.host_entries, 0u);
  EXPECT_TRUE(trie.lookup(net::Ipv4(203, 9, 1, 77).value(), 0));

  // Covering all 256 /24s of the /16 collapses the node too.
  report.clear();
  trie.set_prefix(net::Cidr(net::Ipv4(203, 9, 0, 0), 16), kPerm, &report);
  const auto after = trie.stats();
  EXPECT_EQ(after.covers, 1u);
  EXPECT_EQ(after.l2_nodes, 0u);
}

// --- randomized property: trie vs mutation-log oracle ----------------------

class LpmTrieProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpmTrieProperty, MatchesOracleOnRandomMutationTraces) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  LpmTrie trie;  // the collapse is exact: the oracle knows nothing of aggregation
  MutationLog oracle;
  util::EpochGuard guard(trie.domain());

  // Universe: 203.16.0.0/14 (four /16s) — nested and adjacent prefixes at
  // every level the trie distinguishes.
  const net::Cidr universe(net::Ipv4(203, 16, 0, 0), 14);
  const std::uint32_t ubase = universe.base().value();

  const auto random_cidr = [&](unsigned min_len) {
    const auto len = static_cast<unsigned>(rng.uniform_int(
        static_cast<int>(min_len), 32));
    const std::uint32_t ip =
        ubase + static_cast<std::uint32_t>(
                    rng.uniform_int(0, static_cast<int>(universe.host_count()) - 1));
    return net::Cidr(net::Ipv4(ip), len);
  };
  const auto random_enc = [&]() -> std::uint64_t {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4) return kPerm;
    return static_cast<std::uint64_t>(rng.uniform_int(1, 120));  // TTL word
  };

  std::vector<std::uint64_t> used_encs;
  for (int step = 0; step < 600; ++step) {
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 35) {
      const std::uint32_t ip =
          ubase + static_cast<std::uint32_t>(
                      rng.uniform_int(0, static_cast<int>(universe.host_count()) - 1));
      const std::uint64_t enc = rng.uniform_int(0, 4) == 0 ? 0 : random_enc();
      trie.set_host(ip, enc);
      oracle.set_host(ip, enc);
      if (enc != 0) used_encs.push_back(enc);
    } else if (roll < 80) {
      const net::Cidr cidr = random_cidr(14);
      const std::uint64_t enc = rng.uniform_int(0, 4) == 0 ? 0 : random_enc();
      trie.set_prefix(cidr, enc);
      oracle.set_prefix(cidr, enc);
      if (enc != 0) used_encs.push_back(enc);
    } else if (!used_encs.empty()) {
      const net::Cidr cidr = random_cidr(14);
      const std::uint64_t enc = used_encs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(used_encs.size()) - 1))];
      trie.clear_matching(cidr, enc);
      oracle.clear_matching(cidr, enc);
    }

    if (step % 20 != 0) continue;
    // Probe random hosts plus the boundaries of every recorded mutation.
    std::vector<std::uint32_t> probes;
    for (int i = 0; i < 32; ++i) {
      probes.push_back(ubase + static_cast<std::uint32_t>(rng.uniform_int(
                                   0, static_cast<int>(universe.host_count()) - 1)));
    }
    for (const Mutation& op : oracle.ops()) {
      probes.push_back(op.cidr.base().value());
      probes.push_back(op.cidr.last().value());
      if (op.cidr.base().value() > ubase) probes.push_back(op.cidr.base().value() - 1);
      if (op.cidr.last().value() < universe.last().value()) {
        probes.push_back(op.cidr.last().value() + 1);
      }
    }
    for (const util::SimTime now : {util::SimTime{0}, util::SimTime{60}, util::SimTime{130}}) {
      for (const std::uint32_t probe : probes) {
        const bool expected = word_blocked(oracle.word(net::Ipv4(probe)), now);
        ASSERT_EQ(trie.lookup(probe, now), expected)
            << "step " << step << " ip " << net::Ipv4(probe).str() << " t " << now;
      }
      // Batched lookups agree with scalar lookups bit-for-bit.
      std::vector<util::SimTime> times(probes.size(), now);
      std::vector<std::uint8_t> out(probes.size(), 0xcc);
      trie.lookup_batch(probes.data(), times.data(), out.data(), probes.size());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(out[i] != 0, trie.lookup(probes[i], now)) << "batch idx " << i;
      }
    }
  }

  // Tear-down property: clearing the universe leaves an empty structure.
  trie.set_prefix(universe, 0);
  const auto stats = trie.stats();
  EXPECT_EQ(stats.l2_nodes, 0u);
  EXPECT_EQ(stats.leaves, 0u);
  EXPECT_EQ(stats.host_entries, 0u);
  EXPECT_EQ(stats.covers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Traces, LpmTrieProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace at
