// Entity-augmented factor graph: the user-state model. EntityFilter, its
// exact streaming inference, is verified against joint enumeration of the
// loopy entity graph (timed and untimed) and for its semantic behaviour
// (malicious posterior tracks the attack content).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fg/model.hpp"
#include "fg_oracle/chain.hpp"
#include "incidents/generator.hpp"
#include "util/rng.hpp"

namespace at::fg {
namespace {

using alerts::AlertType;

constexpr double kExact = 1e-9;

const ModelParams& params() {
  static const ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

std::shared_ptr<const CompiledParams> compiled() {
  static const std::shared_ptr<const CompiledParams> c = compile_params(params());
  return c;
}

EntityFilter filter_over(const std::vector<AlertType>& observed, double coupling = 1.0,
                         const std::vector<std::optional<GapBucket>>& gaps = {}) {
  EntityFilter filter(compiled(), coupling);
  for (std::size_t t = 0; t < observed.size(); ++t) {
    filter.observe(observed[t], gaps.empty() ? std::nullopt : gaps[t]);
  }
  return filter;
}

AlertType random_type(util::Rng& rng) {
  return static_cast<AlertType>(
      rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
}

GapBucket random_gap(util::Rng& rng) {
  return static_cast<GapBucket>(
      rng.uniform_int(0, static_cast<std::int64_t>(kNumGapBuckets) - 1));
}

TEST(EntityGraph, Shape) {
  const std::vector<AlertType> observed = {AlertType::kPortScan,
                                           AlertType::kDownloadSensitive};
  const auto graph = build_entity_graph(params(), observed);
  // n stage vars + U; chain factors + user prior + n couplings.
  EXPECT_EQ(graph.num_variables(), 3u);
  EXPECT_EQ(graph.num_factors(), 2u /*emit*/ + 1u /*prior*/ + 1u /*trans*/ +
                                     1u /*user prior*/ + 2u /*couplings*/);
  EXPECT_FALSE(graph.is_tree());  // U closes cycles with the chain
}

TEST(EntityGraph, EmptySequence) {
  const EntityFilter filter(compiled());
  EXPECT_DOUBLE_EQ(filter.p_malicious(), 0.5);
  EXPECT_EQ(filter.observed(), 0u);
}

class EntityVsExact : public ::testing::TestWithParam<int> {};

TEST_P(EntityVsExact, LoopyBpTracksEnumeration) {
  // The loopy entity graph, enumerated exactly, against the filter: every
  // length 1..9 four times per seed (432 sequences over the 12 seeds):
  // unit and random coupling strength, each untimed and with a random gap
  // bucket on every alert (gap factors on the graph's second node on).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 11);
  for (std::size_t n = 1; n <= 9; ++n) {
    for (const bool unit_coupling : {true, false}) {
      for (const bool timed : {false, true}) {
        std::vector<AlertType> observed;
        std::vector<std::optional<GapBucket>> gaps(n);
        for (std::size_t i = 0; i < n; ++i) {
          observed.push_back(random_type(rng));
          if (timed) gaps[i] = random_gap(rng);
        }
        const double coupling = unit_coupling ? 1.0 : 0.25 + 2.75 * rng.uniform();
        const auto exact =
            enumerate_exact(build_entity_graph(params(), observed, coupling, gaps));
        const EntityFilter filter = filter_over(observed, coupling, gaps);
        EXPECT_NEAR(filter.p_malicious(), exact.marginals.back()[1], kExact)
            << "n=" << n << " coupling=" << coupling << " timed=" << timed;
        const auto last = filter.last_stage();
        for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
          EXPECT_NEAR(last[s], exact.marginals[n - 1][s], kExact)
              << "n=" << n << " stage=" << s << " coupling=" << coupling << " timed=" << timed;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EntityVsExact, ::testing::Range(0, 12));

TEST(EntityGraph, AttackSequenceLooksMalicious) {
  const std::vector<AlertType> attack = {
      AlertType::kDownloadSensitive, AlertType::kCompileSource, AlertType::kLogTampering,
      AlertType::kSshKeyTheft, AlertType::kC2Communication};
  EXPECT_GT(filter_over(attack).p_malicious(), 0.8);
}

TEST(EntityGraph, BenignSequenceLooksLegitimate) {
  const std::vector<AlertType> benign = {AlertType::kLoginSuccess, AlertType::kJobSubmitted,
                                         AlertType::kJobCompleted, AlertType::kFileTransfer,
                                         AlertType::kLogout};
  EXPECT_LT(filter_over(benign).p_malicious(), 0.3);
}

TEST(EntityGraph, CouplingStrengthSharpensThePosterior) {
  const std::vector<AlertType> attack = {AlertType::kDownloadSensitive,
                                         AlertType::kCompileSource,
                                         AlertType::kLogTampering};
  EXPECT_GT(filter_over(attack, 3.0).p_malicious(), filter_over(attack, 0.25).p_malicious());
}

TEST(EntityGraph, MixedSequenceSitsBetween) {
  const std::vector<AlertType> mixed = {AlertType::kLoginSuccess, AlertType::kPortScan,
                                        AlertType::kLoginFailure, AlertType::kJobSubmitted};
  const double p = filter_over(mixed).p_malicious();
  EXPECT_GT(p, 0.02);
  EXPECT_LT(p, 0.85);
}

TEST(EntityGraph, LastStagePosteriorIsNormalized) {
  const std::vector<AlertType> attack = {AlertType::kDbPortProbe,
                                         AlertType::kDefaultPasswordLogin,
                                         AlertType::kDbPayloadEncoding};
  double total = 0.0;
  for (const double p : filter_over(attack).last_stage()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EntityFilter, LongHistoryStaysFiniteAndReplays) {
  // State is constant-size and normalized per step, so a 100K-alert
  // history neither under- nor overflows; reset() must forget it all.
  util::Rng rng(0xe11);
  std::vector<AlertType> history;
  for (int i = 0; i < 100'000; ++i) history.push_back(random_type(rng));

  EntityFilter filter(compiled());
  std::vector<double> first;
  first.reserve(history.size());
  for (const AlertType type : history) {
    filter.observe(type);
    const double p = filter.p_malicious();
    ASSERT_TRUE(std::isfinite(p) && p >= 0.0 && p <= 1.0) << "alert " << first.size();
    first.push_back(p);
  }
  for (const double p : filter.last_stage()) EXPECT_TRUE(std::isfinite(p));
  EXPECT_EQ(filter.observed(), history.size());

  filter.reset();
  EXPECT_DOUBLE_EQ(filter.p_malicious(), 0.5);
  for (std::size_t i = 0; i < history.size(); ++i) {
    filter.observe(history[i]);
    ASSERT_EQ(filter.p_malicious(), first[i]) << "replay diverged at alert " << i;
  }
}

}  // namespace
}  // namespace at::fg
