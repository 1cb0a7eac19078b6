// Cross-implementation oracle tests: wherever the library has a fast path
// and a reference path, the two must agree on randomized inputs.
//   * Barnes-Hut repulsion vs brute-force O(n^2) forces
//   * discrete-event engine vs a sorted-list reference executor
//   * ScanFilter streaming vs an offline window dedup
//   * corpus statistics invariant under repetition scale

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "incidents/annotate.hpp"
#include "incidents/generator.hpp"
#include "sim/engine.hpp"
#include "viz/layout.hpp"

namespace at {
namespace {

// --- Barnes-Hut vs brute force ------------------------------------------
//
// run_layout with theta=0 must degenerate to (near-)exact n-body
// repulsion. We compare one-iteration displacements between theta=0 and a
// hand-rolled brute-force integrator on identical initial placements.

class LayoutOracle : public ::testing::TestWithParam<int> {};

TEST_P(LayoutOracle, ThetaZeroMatchesBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 5);
  // Random small graph.
  viz::Graph graph;
  const std::size_t n = 20;
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(graph.node_for(net::Ipv4(10, 0, static_cast<std::uint8_t>(i >> 8),
                                           static_cast<std::uint8_t>(i & 0xff)),
                                 viz::NodeRole::kLegitimate));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (ids[i] != ids[j]) graph.add_edge(ids[i], ids[j]);
  }

  viz::LayoutOptions options;
  options.iterations = 1;
  options.theta = 0.0;  // quadtree opens every cell -> exact pairwise sums
  options.seed = 77;
  auto bh_graph = graph;
  viz::run_layout(bh_graph, options);

  // Brute-force reference: same seed -> same initial placement; replicate
  // one Fruchterman-Reingold step exactly.
  auto ref_graph = graph;
  {
    const double side = std::sqrt(options.area);
    const double k = std::sqrt(options.area / static_cast<double>(n));
    const double k2 = k * k;
    util::Rng placement(options.seed);
    auto& nodes = ref_graph.nodes();
    for (auto& node : nodes) {
      node.x = placement.uniform(0.0, side);
      node.y = placement.uniform(0.0, side);
    }
    std::vector<double> fx(n, 0.0);
    std::vector<double> fy(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double dx = nodes[i].x - nodes[j].x;
        const double dy = nodes[i].y - nodes[j].y;
        const double d2 = dx * dx + dy * dy + 1e-9;
        const double force = k2 / d2;
        fx[i] += dx * force;
        fy[i] += dy * force;
      }
    }
    for (const auto& edge : ref_graph.edges()) {
      const double dx = nodes[edge.dst].x - nodes[edge.src].x;
      const double dy = nodes[edge.dst].y - nodes[edge.src].y;
      const double dist = std::sqrt(dx * dx + dy * dy) + 1e-9;
      const double force = dist / k;
      fx[edge.src] += dx * force;
      fy[edge.src] += dy * force;
      fx[edge.dst] -= dx * force;
      fy[edge.dst] -= dy * force;
    }
    const double step = viz::kLayoutInitialStep * side;
    for (std::size_t i = 0; i < n; ++i) {
      const double mag = std::sqrt(fx[i] * fx[i] + fy[i] * fy[i]) + 1e-12;
      const double move = std::min(mag, step);
      nodes[i].x += fx[i] / mag * move;
      nodes[i].y += fy[i] / mag * move;
    }
  }

  // Coincident-leaf aggregation makes BH approximate even at theta=0 only
  // for exactly-overlapping points, which random placement avoids; the
  // positions must agree tightly.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(bh_graph.nodes()[i].x, ref_graph.nodes()[i].x, 1e-6) << "node " << i;
    EXPECT_NEAR(bh_graph.nodes()[i].y, ref_graph.nodes()[i].y, 1e-6) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, LayoutOracle, ::testing::Range(0, 8));

// --- engine vs sorted reference -----------------------------------------

TEST(EngineOracle, RandomScheduleMatchesSortedReference) {
  util::Rng rng(31337);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::pair<util::SimTime, int>> jobs;
    for (int i = 0; i < 200; ++i) {
      jobs.emplace_back(rng.uniform_int(0, 50), i);
    }
    // Reference: stable sort by time (ties keep submission order).
    auto expected = jobs;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });

    sim::Engine engine;
    std::vector<int> order;
    for (const auto& [when, id] : jobs) {
      engine.schedule_at(when, [&order, id = id](sim::Engine&) { order.push_back(id); });
    }
    engine.run();
    ASSERT_EQ(order.size(), expected.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], expected[i].second) << "position " << i;
    }
  }
}

TEST(EngineOracle, CancellationUnderStress) {
  util::Rng rng(991);
  sim::Engine engine;
  std::vector<sim::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(engine.schedule_at(rng.uniform_int(0, 100),
                                     [&fired](sim::Engine&) { ++fired; }));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (engine.cancel(ids[i])) ++cancelled;
  }
  engine.run();
  EXPECT_EQ(static_cast<std::size_t>(fired), ids.size() - cancelled);
  EXPECT_EQ(engine.pending(), 0u);
}

// --- streaming scan filter vs offline dedup ------------------------------

TEST(FilterOracle, StreamingMatchesOfflineWindowDedup) {
  util::Rng rng(4242);
  std::vector<alerts::Alert> stream;
  util::SimTime t = 0;
  for (int i = 0; i < 2000; ++i) {
    alerts::Alert alert;
    t += rng.uniform_int(1, 400);
    alert.ts = t;
    alert.type = rng.bernoulli(0.7) ? alerts::AlertType::kPortScan
                                    : alerts::AlertType::kSshBruteforce;
    alert.src = net::Ipv4(9, 9, 9, static_cast<std::uint8_t>(rng.uniform_int(1, 4)));
    stream.push_back(alert);
  }
  const util::SimTime window = 1000;

  incidents::ScanFilter filter(window);
  std::vector<bool> streaming;
  for (const auto& alert : stream) streaming.push_back(filter.keep(alert));

  // Offline reference: per (src, type), keep an alert iff the previous
  // *kept* alert of that key is >= window older.
  std::unordered_map<std::uint64_t, util::SimTime> last;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& alert = stream[i];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(alert.src->value()) << 8) ^
        static_cast<std::uint64_t>(alert.type);
    const auto it = last.find(key);
    const bool keep = it == last.end() || alert.ts - it->second >= window;
    if (keep) last[key] = alert.ts;
    EXPECT_EQ(streaming[i], keep) << "alert " << i;
  }
}

// --- corpus invariants under the repetition-scale knob --------------------

class ScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(ScaleInvariance, StructuralStatsIndependentOfRepetitionScale) {
  incidents::CorpusConfig config;
  config.repetition_scale = GetParam();
  const auto corpus = incidents::CorpusGenerator(config).generate();
  // Repetition volume changes; the structural calibration must not.
  EXPECT_EQ(corpus.stats.incidents, 228u);
  EXPECT_EQ(corpus.stats.motif_incidents, 137u);
  EXPECT_EQ(corpus.stats.critical_occurrences, 98u);
  // Core sequences identical at any scale (same seed, forked streams).
  incidents::CorpusConfig full = config;
  full.repetition_scale = 0.0;
  const auto skeleton = incidents::CorpusGenerator(full).generate();
  ASSERT_EQ(skeleton.incidents.size(), corpus.incidents.size());
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleInvariance, ::testing::Values(0.0, 0.01, 0.1));

}  // namespace
}  // namespace at
