// The time-aware model (Insight 3 as evidence).

#include <gtest/gtest.h>

#include "detect/eval.hpp"
#include "util/logdomain.hpp"

namespace at {
namespace {

using alerts::AlertType;
using fg::GapBucket;

const incidents::Corpus& corpus() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

TEST(GapBuckets, Boundaries) {
  EXPECT_EQ(fg::bucket_for_gap(0), GapBucket::kBurst);
  EXPECT_EQ(fg::bucket_for_gap(29), GapBucket::kBurst);
  EXPECT_EQ(fg::bucket_for_gap(30), GapBucket::kMinutes);
  EXPECT_EQ(fg::bucket_for_gap(util::kHour - 1), GapBucket::kMinutes);
  EXPECT_EQ(fg::bucket_for_gap(util::kHour), GapBucket::kHours);
  EXPECT_EQ(fg::bucket_for_gap(util::kDay - 1), GapBucket::kHours);
  EXPECT_EQ(fg::bucket_for_gap(util::kDay), GapBucket::kDays);
}

TEST(TimedModel, GapDistributionsLearned) {
  const auto params = fg::learn_params(corpus());
  ASSERT_EQ(params.log_gap.size(), alerts::kNumStages * fg::kNumGapBuckets);
  // Each row normalizes.
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    double total = 0.0;
    for (std::size_t b = 0; b < fg::kNumGapBuckets; ++b) {
      total += util::safe_exp(params.gap(static_cast<alerts::AttackStage>(s),
                                         static_cast<GapBucket>(b)));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // Insight 3 in the learned numbers: suspicious (probing) activity is
  // burst-dominated; in-progress (manual) stages favor longer pauses.
  EXPECT_GT(params.gap(alerts::AttackStage::kSuspicious, GapBucket::kBurst),
            params.gap(alerts::AttackStage::kSuspicious, GapBucket::kDays));
}

TEST(TimedModel, FilterAcceptsOptionalGap) {
  const auto compiled = fg::compile_params(fg::learn_params(corpus()));
  fg::EntityFilter timed(compiled);
  fg::EntityFilter plain(compiled);
  // The first alert has no predecessor: a gap hint on it is ignored.
  timed.observe(AlertType::kPortScan, GapBucket::kDays);
  plain.observe(AlertType::kPortScan);
  // Without a gap hint the two agree exactly.
  timed.observe(AlertType::kSshBruteforce, std::nullopt);
  plain.observe(AlertType::kSshBruteforce);
  EXPECT_EQ(timed.last_stage(), plain.last_stage());
  // With a gap hint the posteriors diverge (the evidence is used).
  timed.observe(AlertType::kDownloadSensitive, GapBucket::kHours);
  plain.observe(AlertType::kDownloadSensitive);
  EXPECT_NE(timed.last_stage(), plain.last_stage());
}

TEST(TimedModel, TimedDetectorStillDetectsAndStaysQuiet) {
  const auto split = detect::split_corpus(corpus());
  auto timed = detect::FactorGraphDetector::train(split.train, 0.75, /*use_timing=*/true);
  EXPECT_EQ(timed.name(), "factor-graph-timed");
  std::vector<detect::Stream> attacks;
  for (const auto& incident : split.test) attacks.push_back(detect::attack_stream(incident));
  incidents::DailyNoiseModel noise;
  const auto benign = detect::benign_streams(noise, 0, 10, 300);
  const auto result = detect::evaluate(timed, attacks, benign);
  EXPECT_GT(result.recall(), 0.9);
  EXPECT_GT(result.precision(), 0.9);
  EXPECT_GT(result.preemption_rate(), 0.9);
}

}  // namespace
}  // namespace at
