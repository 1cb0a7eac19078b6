// Continuous SSH auditing (CAUDIT-style reflexive blocking) and
// multi-seed robustness of the corpus calibration.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/insights.hpp"
#include "replay/background.hpp"
#include "testbed/ssh_auditor.hpp"
#include "testbed/testbed.hpp"
#include "util/rng.hpp"

namespace at {
namespace {

net::Flow ssh_fail(net::Ipv4 src, util::SimTime ts) {
  net::Flow flow;
  flow.ts = ts;
  flow.src = src;
  flow.dst = net::Ipv4(141, 142, 250, 1);
  flow.dst_port = net::ports::kSsh;
  flow.state = net::ConnState::kRejected;
  return flow;
}

/// Bytes in use on the heap, mmapped blocks included (0 where glibc's
/// mallinfo2 is unavailable).
std::size_t heap_in_use() {
#if defined(__GLIBC__)
  const auto info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(SshAuditorTest, BlocksAtThreshold) {
  bhr::BlackHoleRouter router;
  testbed::SshAuditorConfig config;
  config.failure_threshold = 10;
  testbed::SshAuditor auditor(config, router);
  const net::Ipv4 attacker(9, 9, 9, 9);
  bool tripped = false;
  for (std::size_t i = 0; i < 10; ++i) {
    tripped = auditor.on_flow(ssh_fail(attacker, static_cast<util::SimTime>(i)));
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(router.is_blocked(attacker, 10));
  EXPECT_EQ(auditor.blocks_issued(), 1u);
  // The block carries the auditor's identity in the audit trail.
  EXPECT_EQ(router.query(attacker, 10)->requested_by, "ssh-auditor");
}

TEST(SshAuditorTest, WindowResetsSlowAttempts) {
  bhr::BlackHoleRouter router;
  testbed::SshAuditorConfig config;
  config.failure_threshold = 5;
  config.window = 100;
  testbed::SshAuditor auditor(config, router);
  const net::Ipv4 attacker(9, 9, 9, 9);
  // 4 failures, long pause, 4 more: never 5 within a window.
  for (int i = 0; i < 4; ++i) auditor.on_flow(ssh_fail(attacker, i));
  for (int i = 0; i < 4; ++i) auditor.on_flow(ssh_fail(attacker, 1000 + i));
  EXPECT_FALSE(router.is_blocked(attacker, 2000));
}

TEST(SshAuditorTest, IgnoresSuccessesAndOtherPorts) {
  bhr::BlackHoleRouter router;
  testbed::SshAuditor auditor({.failure_threshold = 1}, router);
  net::Flow ok = ssh_fail(net::Ipv4(1, 1, 1, 1), 0);
  ok.state = net::ConnState::kEstablished;
  EXPECT_FALSE(auditor.on_flow(ok));
  net::Flow web = ssh_fail(net::Ipv4(1, 1, 1, 1), 0);
  web.dst_port = 443;
  EXPECT_FALSE(auditor.on_flow(web));
  EXPECT_EQ(auditor.failures_seen(), 0u);
}

TEST(SshAuditorTest, ManySourcesMatchReference) {
  // Per-source windows over 600 external sources, the address-space edges
  // among them, against the rule restated over a node-based map.
  bhr::BlackHoleRouter router;
  testbed::SshAuditorConfig config;
  config.failure_threshold = 6;
  config.window = 50;
  testbed::SshAuditor auditor(config, router);
  struct Window {
    util::SimTime start = 0;
    std::size_t failures = 0;
  };
  std::map<std::uint32_t, Window> reference;
  std::set<std::uint32_t> blocked;
  std::uint64_t want_blocks = 0;

  util::Rng rng(31);
  std::vector<net::Ipv4> sources = {net::Ipv4(0u), net::Ipv4(0xffffffffu),
                                    net::Ipv4(0xfffffffeu)};
  while (sources.size() < 600) {
    const net::Ipv4 ip(static_cast<std::uint32_t>(rng()));
    if (!net::blocks::ncsa16().contains(ip)) sources.push_back(ip);
  }
  util::SimTime ts = 0;
  for (int i = 0; i < 30000; ++i) {
    ts += rng.uniform_int(0, 1);
    net::Flow flow = ssh_fail(sources[rng.zipf(sources.size(), 1.1) - 1], ts);
    if (rng.bernoulli(0.1)) flow.state = net::ConnState::kEstablished;
    bool want = false;
    if (flow.state != net::ConnState::kEstablished) {
      Window& w = reference[flow.src.value()];
      if (w.failures == 0 || ts - w.start > config.window) {
        w.start = ts;
        w.failures = 0;
      }
      if (++w.failures >= config.failure_threshold && blocked.insert(flow.src.value()).second) {
        w.failures = 0;
        want = true;
        ++want_blocks;
      }
    }
    ASSERT_EQ(auditor.on_flow(flow), want) << "flow " << i;
  }
  EXPECT_EQ(auditor.tracked_sources(), reference.size());
  EXPECT_EQ(auditor.blocks_issued(), want_blocks);
  EXPECT_GE(want_blocks, 10u);
  EXPECT_TRUE(router.is_blocked(net::Ipv4(0u), ts));
}

TEST(SshAuditorTest, PrunedWindowsBehaveAsAbsent) {
  // Twin auditors over one seeded stream; one is pruned every 20 s. A
  // pruned source must then act exactly like a never-seen one, so both
  // block the same sources at the same flows.
  bhr::BlackHoleRouter router_a;
  bhr::BlackHoleRouter router_b;
  testbed::SshAuditorConfig config;
  config.failure_threshold = 5;
  config.window = 30;
  testbed::SshAuditor pruned(config, router_a);
  testbed::SshAuditor kept(config, router_b);
  util::Rng rng(17);
  util::SimTime ts = 0;
  std::size_t dropped = 0;
  for (int i = 0; i < 40000; ++i) {
    ts += rng.uniform_int(0, 1);
    const net::Ipv4 src(0xc6120000u + static_cast<std::uint32_t>(rng.zipf(3000, 1.2)));
    const net::Flow flow = ssh_fail(src, ts);
    ASSERT_EQ(pruned.on_flow(flow), kept.on_flow(flow)) << "flow " << i;
    if (i % 40 == 0) dropped += pruned.prune(ts);
  }
  EXPECT_EQ(pruned.blocks_issued(), kept.blocks_issued());
  EXPECT_GE(pruned.blocks_issued(), 10u);
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(pruned.tracked_sources(), kept.tracked_sources());
}

TEST(SshAuditorTest, HostileFloodIsPrunedByMaintenance) {
  // 20,000 distinct sources each fail one SSH login, a few keep failing.
  // Once their windows lapse, testbed maintenance drops the flood, and the
  // auditor's table is back to the sources still inside a window.
  incidents::CorpusConfig corpus_config;
  corpus_config.repetition_scale = 0.02;
  testbed::TestbedConfig config;
  config.ssh_auditor.window = 120;
  testbed::Testbed bed(config, incidents::CorpusGenerator(corpus_config).generate());
  bed.deploy(0);
  constexpr std::uint32_t kFlood = 20'000;
  const auto flood_source = [](std::uint32_t i) { return net::Ipv4(0x0a000000u + i * 13u); };
  for (std::uint32_t i = 0; i < kFlood; ++i) bed.inject_flow(ssh_fail(flood_source(i), i % 60));
  ASSERT_EQ(bed.ssh_auditor().tracked_sources(), kFlood);
  // Three live sources fail again just before the last tick.
  const std::vector<net::Ipv4> live = {net::Ipv4(198, 51, 100, 1), net::Ipv4(198, 51, 100, 2),
                                       net::Ipv4(198, 51, 100, 3)};
  bed.engine().schedule_at(590, [&bed, &live](sim::Engine&) {
    for (const net::Ipv4 ip : live) bed.inject_flow(ssh_fail(ip, 590));
  });
  bed.schedule_maintenance(60, 600);
  bed.engine().run();
  EXPECT_EQ(bed.maintenance_stats().auditor_sources_pruned, kFlood);
  EXPECT_EQ(bed.ssh_auditor().tracked_sources(), live.size());

  // The prune also gives the flood's heap back: the same flood through an
  // auditor of its own, measured where the allocator reports to mallinfo2
  // (not under ASan, say) — the flood then shows as 16+ bytes per source.
  bhr::BlackHoleRouter router;
  const auto heap_before = static_cast<double>(heap_in_use());
  testbed::SshAuditor auditor(config.ssh_auditor, router);
  for (std::uint32_t i = 0; i < kFlood; ++i) auditor.on_flow(ssh_fail(flood_source(i), i % 60));
  const double grown = static_cast<double>(heap_in_use()) - heap_before;
  ASSERT_EQ(auditor.prune(600), kFlood);
  const double kept = static_cast<double>(heap_in_use()) - heap_before;
  if (grown >= 16.0 * kFlood) {
    EXPECT_LT(kept, 4096.0) << "the flood grew the heap " << grown << " bytes";
  }
}

TEST(SshAuditorTest, LiveBruteforceGetsAutoBlackholed) {
  // End-to-end on the testbed: a bruteforce campaign trips the auditor,
  // after which the attacker's remaining flows drop at the BHR.
  incidents::CorpusConfig config;
  config.repetition_scale = 0.02;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  testbed::TestbedConfig bed_config;
  bed_config.ssh_auditor.failure_threshold = 20;
  testbed::Testbed bed(bed_config, corpus);
  bed.deploy(0);

  replay::BruteforceScenario::Config brute_config;
  brute_config.attempts = 100;
  replay::BruteforceScenario brute(brute_config);
  std::vector<replay::Scenario*> scenarios{&brute};
  replay::run_scenarios(bed, scenarios, 0);

  EXPECT_GE(bed.ssh_auditor().blocks_issued(), 1u);
  EXPECT_GT(bed.router().dropped_flows(), 0u);
  // The first 20 attempts got through; the rest were blackholed.
  EXPECT_LT(bed.zeek().flows_seen(), 100u);
}

// --- multi-seed calibration robustness ---

class SeedRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedRobustness, CalibrationHoldsAcrossSeeds) {
  incidents::CorpusConfig config;
  config.seed = GetParam();
  config.repetition_scale = 0.02;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  // Structural invariants are seed-independent.
  EXPECT_EQ(corpus.stats.incidents, 228u);
  EXPECT_EQ(corpus.stats.motif_incidents, 137u);
  EXPECT_EQ(corpus.stats.critical_occurrences, 98u);
  EXPECT_NEAR(static_cast<double>(corpus.stats.raw_alerts), 25.0e6, 0.15e6);
  // The Fig 3a headline must hold for any seed, not just the default.
  const auto insight = analysis::measure_insight1(corpus, 2);
  EXPECT_GE(insight.fraction_pairs_at_or_below_third, 0.95) << "seed " << GetParam();
  // And mining still recovers the catalog.
  const auto mined = analysis::mine_core_sequences(corpus.incidents);
  EXPECT_EQ(mined.sequences.size(), 43u);
  EXPECT_EQ(mined.sequences[0].count, 14u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustness,
                         ::testing::Values(1ull, 7ull, 42ull, 1337ull, 99991ull));

}  // namespace
}  // namespace at
