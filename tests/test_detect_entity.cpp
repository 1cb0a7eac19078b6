// Detector-level oracles for the per-entity FactorGraphDetector: its
// per-alert score and firing index must equal exact enumeration of the
// chain graph over every prefix (timed and untimed), batched and
// per-alert feeding through the SessionPipeline must agree, reset() must
// forget the history, and an impossible first alert must not freeze it,
// timed or untimed.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "detect/detector.hpp"
#include "detect/session_pipeline.hpp"
#include "fg/model.hpp"
#include "fg_oracle/chain.hpp"
#include "incidents/generator.hpp"
#include "util/logdomain.hpp"
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

SessionPipeline::Factory deployed_factory(double threshold) {
  return [threshold] { return std::make_unique<FactorGraphDetector>(compiled(), threshold); };
}

class EntityDetectorOracle : public ::testing::TestWithParam<int> {};

TEST_P(EntityDetectorOracle, ScoreAndFiringMatchEnumeration) {
  // Nine-alert streams (enumeration stays cheap), every other one drawn
  // mostly from attack-stage alert types so the threshold actually trips.
  // Timed runs space alerts by a random step from burst to days, and the
  // oracle graph carries the gap bucket the detector derives.
  std::vector<AlertType> attack_pool;
  for (const auto& info : alerts::all_alert_info()) {
    if (info.typical_stage >= alerts::AttackStage::kInProgress) attack_pool.push_back(info.type);
  }
  constexpr util::SimTime kSteps[] = {5, 10 * util::kMinute, 3 * util::kHour, 2 * util::kDay};
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  const double threshold = 0.75;
  for (const bool timed : {false, true}) {
    std::size_t fired = 0;
    for (int stream = 0; stream < 6; ++stream) {
      FactorGraphDetector detector(compiled(), threshold, alerts::AttackStage::kInProgress,
                                   timed);
      std::vector<AlertType> prefix;
      std::vector<std::optional<fg::GapBucket>> gaps;
      std::optional<std::size_t> expected_fire;
      util::SimTime ts = 0;
      for (std::size_t i = 0; i < 9; ++i) {
        const util::SimTime step =
            i == 0 ? 0
                   : kSteps[static_cast<std::size_t>(
                         rng.uniform_int(0, static_cast<std::int64_t>(std::size(kSteps)) - 1))];
        ts += step;
        Alert alert;
        alert.ts = ts;
        alert.type = stream % 2 == 1 && rng.uniform_int(0, 3) != 0
                         ? attack_pool[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(attack_pool.size()) - 1))]
                         : static_cast<AlertType>(rng.uniform_int(
                               0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
        prefix.push_back(alert.type);
        gaps.push_back(timed && i > 0 ? std::optional(fg::bucket_for_gap(step)) : std::nullopt);
        const auto marginal =
            fg::enumerate_exact(fg::build_chain(model(), prefix, gaps)).marginals.back();
        const double exact =
            marginal[static_cast<std::size_t>(alerts::AttackStage::kInProgress)] +
            marginal[static_cast<std::size_t>(alerts::AttackStage::kCompromised)];
        if (!expected_fire && exact >= threshold) expected_fire = i;

        const auto detection = detector.observe(alert, i);
        ASSERT_EQ(detection.has_value(), expected_fire == i)
            << "stream " << stream << " alert " << i << " timed " << timed;
        if (expected_fire && *expected_fire < i) continue;  // fired: score frozen
        EXPECT_NEAR(detector.score(), exact, 1e-9)
            << "stream " << stream << " alert " << i << " timed " << timed;
        if (detection) {
          EXPECT_EQ(detection->alert_index, i);
          EXPECT_EQ(detection->score, detector.score());
          ++fired;
        }
      }
    }
    EXPECT_GT(fired, 0u) << "no stream crossed the threshold, timed " << timed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntityDetectorOracle, ::testing::Range(0, 5));

class BatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalence, OnBatchMatchesOnAlertStream) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131071 + 9);
  const double threshold = 0.75;
  const auto trace = random_trace(rng, /*accounts=*/5, /*length=*/160);

  SessionPipeline serial(deployed_factory(threshold));
  SessionPipeline batched(deployed_factory(threshold));
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
  FactorGraphDetector filter(compiled(), 0.75);
  EXPECT_EQ(filter.name(), "factor-graph");
  EXPECT_EQ(FactorGraphDetector(compiled(), 0.75, alerts::AttackStage::kInProgress, true).name(),
            "factor-graph-timed");

  // After reset the filter must forget the history entirely:
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
  const auto first = run(filter);
  const auto second = run(filter);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, *second);
  // And a reset detector fires where a freshly built one does.
  FactorGraphDetector fresh(compiled(), 0.75);
  EXPECT_EQ(run(fresh), first);
}

TEST(FgInferenceModes, ImpossibleFirstAlertLeavesTheFilterFresh) {
  // A model with a -inf emission column (read_params accepts one) makes
  // that alert type impossible. Skipped first, it must leave the filter as
  // if it never arrived: the detector then fires on the same alert as it
  // does on the stream without it, timed and untimed.
  fg::ModelParams params = model();
  const auto impossible = AlertType::kJobCompleted;
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    params.log_emission[s * alerts::kNumAlertTypes + static_cast<std::size_t>(impossible)] =
        util::kLogZero;
  }
  const auto tables = fg::compile_params(params);
  const AlertType campaign[] = {AlertType::kDownloadSensitive, AlertType::kCompileSource,
                                AlertType::kLogTampering, AlertType::kC2Communication};
  auto fire_index = [&](bool timed, bool lead_with_impossible) {
    FactorGraphDetector detector(tables, 0.75, alerts::AttackStage::kInProgress, timed);
    std::vector<AlertType> stream;
    if (lead_with_impossible) stream.push_back(impossible);
    stream.insert(stream.end(), std::begin(campaign), std::end(campaign));
    for (std::size_t i = 0; i < stream.size(); ++i) {
      Alert alert;
      alert.ts = static_cast<util::SimTime>(i) * util::kHour;
      alert.type = stream[i];
      if (const auto d = detector.observe(alert, i)) return std::optional(d->alert_index);
    }
    return std::optional<std::size_t>();
  };
  for (const bool timed : {false, true}) {
    const auto clean = fire_index(timed, false);
    ASSERT_TRUE(clean.has_value()) << "timed " << timed;
    EXPECT_EQ(fire_index(timed, true), *clean + 1) << "timed " << timed;
  }
}

}  // namespace
}  // namespace at::detect
