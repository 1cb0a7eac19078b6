// BlackHoleRouter traffic-plane concurrency: filter()/filter_batch()
// readers racing a live mutator thread through the public API verbs.
// Functional assertions are final-consistency checks; the races themselves
// are what the TSan CI stage (tools/ci_check.sh) is after.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bhr/bhr.hpp"
#include "net/flow.hpp"

namespace at {
namespace {

net::Flow probe_from(std::uint32_t src) {
  net::Flow flow;
  flow.ts = 0;
  flow.src = net::Ipv4(src);
  flow.dst = net::Ipv4(141, 142, 0, 1);
  return flow;
}

// Scalar and batched filtering must agree verdict-for-verdict when nothing
// is mutating.
TEST(BhrConcurrent, FilterBatchMatchesScalarFilter) {
  bhr::BlackHoleRouter batched;
  bhr::BlackHoleRouter scalar;
  std::vector<net::Flow> flows;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const std::uint32_t src = net::Ipv4(203, static_cast<std::uint8_t>(i % 7),
                                        static_cast<std::uint8_t>(i % 251),
                                        static_cast<std::uint8_t>(i % 256))
                                  .value();
    if (i % 3 == 0) {
      batched.block(net::Ipv4(src), 0, i % 5 == 0 ? 0 : 100, "scan", "test");
      scalar.block(net::Ipv4(src), 0, i % 5 == 0 ? 0 : 100, "scan", "test");
    }
    flows.push_back(probe_from(src));
  }
  std::vector<std::uint8_t> out(flows.size(), 0xee);
  const std::size_t dropped = batched.filter_batch(flows, out);
  std::size_t scalar_dropped = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const bool drop = scalar.filter(flows[i]);
    scalar_dropped += drop ? 1 : 0;
    ASSERT_EQ(out[i] != 0, drop) << "flow " << i;
  }
  EXPECT_EQ(dropped, scalar_dropped);
  EXPECT_EQ(batched.dropped_flows(), scalar.dropped_flows());
  EXPECT_EQ(batched.passed_flows(), scalar.passed_flows());
}

// Readers hammer filter()/filter_batch() while one mutator cycles hosts
// and prefixes through block/unblock/expire. Verdicts under the race may
// be either side of each transition; what must hold is memory safety
// (TSan/ASan) and exact counter accounting.
TEST(BhrConcurrent, ReadersRaceMutator) {
  bhr::BlackHoleRouter router;
  std::atomic<bool> stop{false};
  constexpr int kReaders = 4;
  constexpr std::uint32_t kHosts = 512;

  std::vector<net::Flow> flows;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    flows.push_back(probe_from(net::Ipv4(198, 18, static_cast<std::uint8_t>(i >> 8),
                                         static_cast<std::uint8_t>(i & 0xff))
                                   .value()));
  }

  std::vector<std::thread> readers;
  std::vector<std::uint64_t> seen_drops(kReaders, 0);
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::uint8_t> out(flows.size());
      std::uint64_t drops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (r % 2 == 0) {
          drops += router.filter_batch(flows, out);
        } else {
          for (const net::Flow& flow : flows) drops += router.filter(flow) ? 1 : 0;
        }
      }
      seen_drops[static_cast<std::size_t>(r)] = drops;
    });
  }

  // Mutator: block/unblock host waves, lay down and reap a TTL'd prefix,
  // advance time and expire. All verbs, many structural transitions
  // (leaf creation, cover expansion, pruning, RCU retirement).
  for (int round = 0; round < 60; ++round) {
    const util::SimTime now = round * 10;
    for (std::uint32_t i = 0; i < kHosts; i += 2) {
      router.block(flows[i].src, now, (i % 8 == 0) ? 0 : 25, "wave", "mutator");
    }
    router.block_prefix(net::Cidr(net::Ipv4(198, 18, 1, 0), 24), now, 15, "net", "mutator");
    router.expire(now + 5);
    for (std::uint32_t i = 0; i < kHosts; i += 4) {
      router.unblock(flows[i].src, now + 6, "mutator");
    }
    router.unblock_prefix(net::Cidr(net::Ipv4(198, 18, 1, 0), 24), now + 7, "mutator");
    router.expire(now + 9);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // Exact accounting: every reader verdict hit exactly one counter.
  std::uint64_t reader_drops = 0;
  for (const std::uint64_t d : seen_drops) reader_drops += d;
  EXPECT_EQ(router.dropped_flows(), reader_drops);

  // Quiesced: remaining blocks answer consistently through both paths.
  const util::SimTime end = 600;
  router.expire(end);
  std::vector<std::uint8_t> out(flows.size());
  std::vector<net::Flow> timed = flows;
  for (net::Flow& flow : timed) flow.ts = end;
  router.filter_batch(timed, out);
  for (std::size_t i = 0; i < timed.size(); ++i) {
    EXPECT_EQ(out[i] != 0, router.is_blocked(timed[i].src, end)) << "host " << i;
  }
}

// Prefix verbs that overwrite a populated /24 slot (a host leaf) or /16 root
// (a node) retire the old cell. retire() may advance the epoch, so the cell
// must be unlinked first: a reader pinned after that advance could
// otherwise still load it, and the next retire's advance would free it
// under the reader. Every round here takes both paths while readers hold
// batch-long pins; TSan reports the free racing a reader's load.
TEST(BhrConcurrent, PrefixOverwriteUnlinksBeforeRetire) {
  bhr::BlackHoleRouter router;
  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;
  const net::Cidr net24(net::Ipv4(198, 18, 1, 0), 24);
  const net::Cidr net16(net::Ipv4(198, 19, 0, 0), 16);

  std::vector<net::Flow> flows;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const auto octet = static_cast<std::uint8_t>(i);
    flows.push_back(probe_from(net::Ipv4(198, 18, 1, octet).value()));
    flows.push_back(probe_from(net::Ipv4(198, 19, octet, 7).value()));
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<std::uint8_t> out(flows.size());
      while (!stop.load(std::memory_order_acquire)) router.filter_batch(flows, out);
    });
  }

  for (int round = 0; round < 2000; ++round) {
    const util::SimTime now = round;
    const auto octet = static_cast<std::uint8_t>(round);
    // A host block builds a leaf inside the /24; the prefix unblock
    // overwrites that slot and retires the leaf.
    router.block(net::Ipv4(198, 18, 1, octet), now, 0, "host", "mutator");
    router.unblock_prefix(net24, now, "mutator");
    // A host block builds a node under the /16; the prefix block replaces
    // the root entry with a cover and retires the node's subtree.
    router.block(net::Ipv4(198, 19, octet, 7), now, 0, "host", "mutator");
    router.block_prefix(net16, now, 0, "net", "mutator");
    router.unblock_prefix(net16, now, "mutator");
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  std::vector<std::uint8_t> out(flows.size());
  router.filter_batch(flows, out);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(out[i] != 0, router.is_blocked(flows[i].src, 0)) << "flow " << i;
  }
}

}  // namespace
}  // namespace at
