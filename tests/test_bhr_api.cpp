// BlackHoleRouter control-plane API: prefix verbs, the capped audit ring,
// and CIDR aggregation options — the metadata tier staying in sync with
// the LpmTrie lookup tier.

#include <gtest/gtest.h>

#include <cstdint>

#include "bhr/bhr.hpp"

namespace at {
namespace {

using bhr::BlackHoleRouter;

TEST(BhrPrefix, BlockPrefixDropsWholeRangeAndExpires) {
  BlackHoleRouter router;
  const net::Cidr net24(net::Ipv4(203, 0, 113, 0), 24);
  ASSERT_TRUE(router.block_prefix(net24, 10, 100, "scanner net", "ops"));
  EXPECT_TRUE(router.is_blocked(net::Ipv4(203, 0, 113, 0), 10));
  EXPECT_TRUE(router.is_blocked(net::Ipv4(203, 0, 113, 255), 10));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(203, 0, 114, 0), 10));
  EXPECT_EQ(router.stats(10).prefix_blocks, 1u);

  const auto entry = router.query(net::Ipv4(203, 0, 113, 77), 10);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->reason, "scanner net");
  EXPECT_EQ(entry->expires_at, 110);

  EXPECT_EQ(router.expire(110), 1u);
  EXPECT_FALSE(router.is_blocked(net::Ipv4(203, 0, 113, 77), 110));
  EXPECT_EQ(router.stats(110).prefix_blocks, 0u);
}

TEST(BhrPrefix, ProtectedSpaceRefusesPrefixBlocks) {
  BlackHoleRouter router;
  // Overlapping the protected /16 (from either side) is refused.
  EXPECT_FALSE(router.block_prefix(net::Cidr(net::Ipv4(141, 142, 7, 0), 24), 0, 0,
                                   "oops", "ops"));
  EXPECT_FALSE(router.block_prefix(net::Cidr(net::Ipv4(141, 0, 0, 0), 8), 0, 0,
                                   "oops", "ops"));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(141, 142, 7, 7), 0));
  EXPECT_EQ(router.stats(0).blocks_refused, 2u);
  // The refusals are still audited.
  const auto audit = router.audit_log();
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_FALSE(audit[0].ok);
  EXPECT_EQ(audit[1].prefix_len, 8u);
}

TEST(BhrPrefix, PrefixSupersedesContainedHostBlocks) {
  BlackHoleRouter router;
  const net::Ipv4 inside(203, 9, 9, 9);
  ASSERT_TRUE(router.block(inside, 0, 40, "host", "a"));
  const net::Cidr net24(net::Ipv4(203, 9, 9, 0), 24);
  ASSERT_TRUE(router.block_prefix(net24, 5, 0, "net", "b"));
  // The host entry was superseded: queries now resolve to the prefix...
  const auto entry = router.query(inside, 6);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->reason, "net");
  // ...and the host's old TTL no longer reaps anything at t=40.
  EXPECT_EQ(router.expire(1000), 0u);
  EXPECT_TRUE(router.is_blocked(inside, 1000));
}

TEST(BhrPrefix, HostReblockInsideExpiredPrefixSurvivesReap) {
  BlackHoleRouter router;
  const net::Cidr net24(net::Ipv4(203, 4, 4, 0), 24);
  const net::Ipv4 survivor(203, 4, 4, 200);
  ASSERT_TRUE(router.block_prefix(net24, 0, 50, "net", "ops"));
  // A later, stronger host block inside the TTL'd prefix.
  ASSERT_TRUE(router.block(survivor, 10, 0, "repeat offender", "ids"));
  // The prefix reap clears only words still carrying the prefix's expiry.
  EXPECT_EQ(router.expire(50), 1u);
  EXPECT_TRUE(router.is_blocked(survivor, 51));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(203, 4, 4, 7), 51));
  EXPECT_EQ(router.active_blocks(51), 1u);
}

TEST(BhrPrefix, UnblockPrefixClearsRangeAndContainedEntries) {
  BlackHoleRouter router;
  const net::Cidr net20(net::Ipv4(203, 32, 16, 0), 20);
  ASSERT_TRUE(router.block(net::Ipv4(203, 32, 17, 1), 0, 0, "host", "a"));
  ASSERT_TRUE(router.block_prefix(net::Cidr(net::Ipv4(203, 32, 18, 0), 24), 0, 0,
                                  "sub", "a"));
  ASSERT_TRUE(router.unblock_prefix(net20, 5, "ops"));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(203, 32, 17, 1), 5));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(203, 32, 18, 9), 5));
  EXPECT_EQ(router.active_blocks(5), 0u);
  EXPECT_EQ(router.stats(5).prefix_blocks, 0u);
  // Nothing in range anymore: a second unblock is a refused no-op.
  EXPECT_FALSE(router.unblock_prefix(net20, 6, "ops"));
}

TEST(BhrAudit, RingCapsAndCountsDrops) {
  BlackHoleRouter::Options options;
  options.audit_capacity = 4;
  BlackHoleRouter router(options);
  for (std::uint32_t i = 0; i < 10; ++i) {
    router.block(net::Ipv4(203, 1, 1, static_cast<std::uint8_t>(i)), i, 0, "r", "c");
  }
  const auto audit = router.audit_log();
  ASSERT_EQ(audit.size(), 4u);
  // Oldest-first linearization of the surviving tail (calls 6..9).
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(audit[i].ts, static_cast<util::SimTime>(6 + i));
    EXPECT_EQ(audit[i].source, net::Ipv4(203, 1, 1, static_cast<std::uint8_t>(6 + i)));
  }
  const auto stats = router.stats(10);
  EXPECT_EQ(stats.api_calls, 10u);  // total ever, not just retained
  EXPECT_EQ(stats.audit_dropped, 6u);
}

TEST(BhrAggregation, ExactDensityKeepsPerHostMetadata) {
  BlackHoleRouter router;  // the trie collapses a /24 only when all 256 are permanent
  const std::uint32_t base = net::Ipv4(203, 66, 2, 0).value();
  for (std::uint32_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(router.block(net::Ipv4(base + i), 2, 0, "scan", "ids"));
  }
  const auto stats = router.stats(2);
  EXPECT_EQ(stats.aggregated_covers, 1u);  // full /24 collapsed (lossless)
  EXPECT_EQ(stats.prefix_blocks, 1u);      // with a synthesized aggregate entry
  EXPECT_EQ(router.trie().stats().covers, 1u);
  // Per-host audit metadata survives the collapse: query answers with the
  // host's own entry, not the synthetic aggregate.
  const auto entry = router.query(net::Ipv4(base + 17), 2);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->requested_by, "ids");
  EXPECT_EQ(router.active_blocks(2), 256u);
  // Unblocking one host punches through the cover for that host only.
  ASSERT_TRUE(router.unblock(net::Ipv4(base + 17), 3, "ops"));
  EXPECT_FALSE(router.is_blocked(net::Ipv4(base + 17), 3));
  EXPECT_TRUE(router.is_blocked(net::Ipv4(base + 18), 3));
}

}  // namespace
}  // namespace at
