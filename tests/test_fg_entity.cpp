// fg::EntityFilter, the per-entity streaming inference kernel, against
// joint enumeration of the chain factor graph (timed and untimed) over
// random sequences, and over a long history (finite, replayable).

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

AlertType random_type(util::Rng& rng) {
  return static_cast<AlertType>(
      rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
}

GapBucket random_gap(util::Rng& rng) {
  return static_cast<GapBucket>(
      rng.uniform_int(0, static_cast<std::int64_t>(kNumGapBuckets) - 1));
}

class EntityVsExact : public ::testing::TestWithParam<int> {};

TEST_P(EntityVsExact, LoopyBpTracksEnumeration) {
  // The filter against the chain graph enumerated exactly (the name dates
  // from the deleted user-state graph, which was loopy): every length
  // 1..9 four times per seed (432 sequences over the 12 seeds), half
  // untimed and half with a random gap bucket on every alert (gap factors
  // on the graph's second node on).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 11);
  for (std::size_t n = 1; n <= 9; ++n) {
    for (int draw = 0; draw < 4; ++draw) {
      const bool timed = draw % 2 == 1;
      std::vector<AlertType> observed;
      std::vector<std::optional<GapBucket>> gaps(n);
      EntityFilter filter(compiled());
      for (std::size_t i = 0; i < n; ++i) {
        observed.push_back(random_type(rng));
        if (timed) gaps[i] = random_gap(rng);
        filter.observe(observed[i], gaps[i]);
      }
      const auto exact = enumerate_exact(build_chain(params(), observed, gaps));
      for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
        EXPECT_NEAR(filter.last_stage()[s], exact.marginals[n - 1][s], kExact)
            << "n=" << n << " stage=" << s << " timed=" << timed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EntityVsExact, ::testing::Range(0, 12));

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
    const double p = filter.p_at_least(alerts::AttackStage::kInProgress);
    ASSERT_TRUE(std::isfinite(p) && p >= 0.0 && p <= 1.0 + 1e-12) << "alert " << first.size();
    first.push_back(p);
  }
  for (const double p : filter.last_stage()) EXPECT_TRUE(std::isfinite(p));
  EXPECT_EQ(filter.observed(), history.size());

  filter.reset();
  EXPECT_EQ(filter.observed(), 0u);
  EXPECT_EQ(filter.p_at_least(alerts::AttackStage::kBenign), 0.0);
  for (std::size_t i = 0; i < history.size(); ++i) {
    filter.observe(history[i]);
    ASSERT_EQ(filter.p_at_least(alerts::AttackStage::kInProgress), first[i])
        << "replay diverged at alert " << i;
  }
}

}  // namespace
}  // namespace at::fg
