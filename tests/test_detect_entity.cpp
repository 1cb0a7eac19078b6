// Detector-level oracles for the per-entity FactorGraphDetector: its
// per-alert score and firing index must equal exact enumeration of the
// chain graph over every prefix (timed and untimed), observe_batch() over
// uneven runs must fire where observe() does (for the rule matcher too),
// reset() must forget the history, and an impossible first alert must not
// freeze it, timed or untimed.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "fg_oracle/chain.hpp"
#include "incidents/generator.hpp"
#include "util/logdomain.hpp"
#include "util/rng.hpp"

namespace at::detect {
namespace {

using alerts::Alert;
using alerts::AlertType;

const incidents::Corpus& corpus() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

const fg::ModelParams& model() {
  static const fg::ModelParams p = fg::learn_params(corpus());
  return p;
}

std::shared_ptr<const fg::CompiledParams> compiled() {
  static const std::shared_ptr<const fg::CompiledParams> c = fg::compile_params(model());
  return c;
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

// No src/ code calls Detector::observe_batch; it stays because alertbench's
// TimedDetector overrides it. Its contract is checked here directly: a
// seeded single-entity trace, fed through observe() alert by alert and
// through observe_batch() in uneven runs, gives the same first detection
// (index, ts, score). Each parameter covers four trace seeds.
class BatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalence, OnBatchMatchesOnAlertStream) {
  std::vector<AlertType> attack_pool;
  for (const auto& info : alerts::all_alert_info()) {
    if (info.typical_stage >= alerts::AttackStage::kInProgress) attack_pool.push_back(info.type);
  }
  constexpr util::SimTime kSteps[] = {5, 10 * util::kMinute, 3 * util::kHour, 2 * util::kDay};
  const RuleBasedDetector rules = RuleBasedDetector::train(corpus().incidents);
  const std::pair<const char*, std::function<std::unique_ptr<Detector>()>> detectors[] = {
      {"factor-graph", [] { return std::make_unique<FactorGraphDetector>(compiled(), 0.75); }},
      {"factor-graph-timed",
       [] {
         return std::make_unique<FactorGraphDetector>(
             compiled(), 0.75, alerts::AttackStage::kInProgress, /*use_timing=*/true);
       }},
      {"rule-based", [&rules] { return std::make_unique<RuleBasedDetector>(rules); }},
  };
  for (const auto& [name, make] : detectors) {
    std::size_t fired = 0;
    const auto first_seed = static_cast<std::uint64_t>(GetParam()) * 4;
    for (std::uint64_t seed = first_seed; seed < first_seed + 4; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      util::Rng rng(seed * 131071 + 9);
      std::vector<Alert> trace(80);
      util::SimTime ts = 0;
      for (auto& alert : trace) {
        ts += kSteps[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(std::size(kSteps)) - 1))];
        alert.ts = ts;
        alert.type = rng.uniform_int(0, 3) == 0
                         ? attack_pool[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(attack_pool.size()) - 1))]
                         : static_cast<AlertType>(rng.uniform_int(
                               0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
      }

      const auto one_by_one = make();
      std::optional<Detection> want;
      for (std::size_t i = 0; i < trace.size() && !want; ++i) {
        want = one_by_one->observe(trace[i], i);
      }

      const auto batched = make();
      std::vector<const Alert*> views;
      for (const Alert& alert : trace) views.push_back(&alert);
      std::optional<Detection> got;
      for (std::size_t i = 0; i < views.size() && !got;) {
        const std::size_t len = std::min<std::size_t>(
            views.size() - i, 1 + static_cast<std::size_t>(rng.uniform_int(0, 20)));
        got = batched->observe_batch(std::span<const Alert* const>(views.data() + i, len), i);
        i += len;
      }

      ASSERT_EQ(got.has_value(), want.has_value());
      if (!want) continue;
      ++fired;
      EXPECT_EQ(got->alert_index, want->alert_index);
      EXPECT_EQ(got->ts, want->ts);
      EXPECT_EQ(got->score, want->score);
    }
    EXPECT_GT(fired, 0u) << name << ": no trace fired, so nothing was compared";
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
  // A model with a -inf emission column (read_model accepts one) makes
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
