// Detector-level oracles for the entity mode of FactorGraphDetector: its
// per-alert score and firing index must equal exact enumeration of the
// entity graph over every prefix, batched and per-alert feeding through
// the SessionPipeline must agree, and reset() must forget the history.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "detect/detector.hpp"
#include "detect/session_pipeline.hpp"
#include "fg/bp.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/rng.hpp"

namespace at::detect {
namespace {

using alerts::Alert;
using alerts::AlertType;

const fg::ModelParams& model() {
  static const fg::ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return fg::learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

std::shared_ptr<const fg::CompiledParams> compiled() {
  static const std::shared_ptr<const fg::CompiledParams> c = fg::compile_params(model());
  return c;
}

/// Randomized multi-entity trace: `accounts` users interleaved, alert types
/// drawn uniformly.
std::vector<Alert> random_trace(util::Rng& rng, std::size_t accounts,
                                std::size_t length) {
  std::vector<Alert> trace;
  trace.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    Alert alert;
    alert.ts = static_cast<util::SimTime>(i * 60);
    alert.user = "user-" + std::to_string(rng.uniform_int(
                     0, static_cast<std::int64_t>(accounts) - 1));
    alert.host = "host-" + std::to_string(rng.uniform_int(0, 3));
    alert.type = static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
    trace.push_back(std::move(alert));
  }
  return trace;
}

SessionPipeline::Factory entity_factory(double threshold) {
  return [threshold] {
    return std::make_unique<FactorGraphDetector>(
        compiled(), threshold, alerts::AttackStage::kInProgress, false, FgInference::kEntity);
  };
}

class EntityDetectorOracle : public ::testing::TestWithParam<int> {};

TEST_P(EntityDetectorOracle, ScoreAndFiringMatchEnumeration) {
  // Nine-alert streams (enumeration stays cheap), every other one drawn
  // mostly from attack-stage alert types so the threshold actually trips.
  std::vector<AlertType> attack_pool;
  for (const auto& info : alerts::all_alert_info()) {
    if (info.typical_stage >= alerts::AttackStage::kInProgress) attack_pool.push_back(info.type);
  }
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  const double threshold = 0.75;
  std::size_t fired = 0;
  for (int stream = 0; stream < 6; ++stream) {
    FactorGraphDetector detector(compiled(), threshold, alerts::AttackStage::kInProgress,
                                 false, FgInference::kEntity);
    std::vector<AlertType> prefix;
    std::optional<std::size_t> expected_fire;
    for (std::size_t i = 0; i < 9; ++i) {
      Alert alert;
      alert.ts = static_cast<util::SimTime>(i * 60);
      alert.type = stream % 2 == 1 && rng.uniform_int(0, 3) != 0
                       ? attack_pool[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(attack_pool.size()) - 1))]
                       : static_cast<AlertType>(rng.uniform_int(
                             0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
      prefix.push_back(alert.type);
      const double exact =
          fg::enumerate_exact(fg::build_entity_graph(model(), prefix)).marginals.back()[1];
      if (!expected_fire && exact >= threshold) expected_fire = i;

      const auto detection = detector.observe(alert, i);
      ASSERT_EQ(detection.has_value(), expected_fire == i)
          << "stream " << stream << " alert " << i;
      if (expected_fire && *expected_fire < i) continue;  // fired: score frozen
      EXPECT_NEAR(detector.score(), exact, 1e-9) << "stream " << stream << " alert " << i;
      if (detection) {
        EXPECT_EQ(detection->alert_index, i);
        EXPECT_EQ(detection->score, detector.score());
        ++fired;
      }
    }
  }
  EXPECT_GT(fired, 0u) << "no stream crossed the threshold";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntityDetectorOracle, ::testing::Range(0, 5));

class BatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalence, OnBatchMatchesOnAlertStream) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131071 + 9);
  const double threshold = 0.75;
  const auto trace = random_trace(rng, /*accounts=*/5, /*length=*/160);

  SessionPipeline serial(entity_factory(threshold));
  SessionPipeline batched(entity_factory(threshold));
  for (const Alert& alert : trace) serial.on_alert(alert);
  // Feed the same stream in uneven batches.
  std::size_t i = 0;
  while (i < trace.size()) {
    const std::size_t len =
        std::min<std::size_t>(trace.size() - i,
                              1 + static_cast<std::size_t>(rng.uniform_int(0, 40)));
    batched.on_batch(std::span<const Alert>(trace.data() + i, len));
    i += len;
  }

  const auto& a = serial.detections();
  const auto& b = batched.detections();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a[d].session_id, b[d].session_id);
    EXPECT_EQ(a[d].account, b[d].account);
    EXPECT_EQ(a[d].detection.alert_index, b[d].detection.alert_index);
    EXPECT_EQ(a[d].detection.ts, b[d].detection.ts);
    EXPECT_DOUBLE_EQ(a[d].detection.score, b[d].detection.score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalence, ::testing::Range(0, 5));

TEST(FgInferenceModes, NamesAndResetBehaviour) {
  FactorGraphDetector entity(compiled(), 0.75, alerts::AttackStage::kInProgress, false,
                             FgInference::kEntity);
  FactorGraphDetector filter(compiled(), 0.75);
  EXPECT_EQ(entity.name(), "factor-graph-entity");
  EXPECT_EQ(filter.name(), "factor-graph");

  // After reset the entity filter must forget the history entirely:
  // the same campaign gives the same firing index twice.
  const AlertType campaign[] = {AlertType::kPortScan, AlertType::kSshBruteforce,
                                AlertType::kDownloadSensitive, AlertType::kCompileSource,
                                AlertType::kNewBinaryExecuted, AlertType::kC2Communication,
                                AlertType::kPrivilegeEscalation};
  auto run = [&](FactorGraphDetector& detector) {
    detector.reset();
    std::optional<std::size_t> fired_at;
    for (std::size_t i = 0; i < std::size(campaign); ++i) {
      Alert alert;
      alert.ts = static_cast<util::SimTime>(i);
      alert.type = campaign[i];
      if (const auto d = detector.observe(alert, i); d && !fired_at) {
        fired_at = d->alert_index;
      }
    }
    return fired_at;
  };
  const auto first = run(entity);
  const auto second = run(entity);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, *second);
  // And a reset detector fires where a freshly built one does.
  FactorGraphDetector fresh(compiled(), 0.75, alerts::AttackStage::kInProgress, false,
                            FgInference::kEntity);
  EXPECT_EQ(run(fresh), first);
}

}  // namespace
}  // namespace at::detect
