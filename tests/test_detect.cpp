// Detector framework: each detector's firing semantics, the evaluation
// harness, and the paper's comparative claims (FG preempts where the
// critical-alert baseline is too late; single-alert thresholds drown).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "detect/eval.hpp"

namespace at::detect {
namespace {

using alerts::Alert;
using alerts::AlertType;

Alert make_alert(util::SimTime ts, AlertType type) {
  Alert alert;
  alert.ts = ts;
  alert.type = type;
  alert.host = "h";
  return alert;
}

std::optional<Detection> feed(Detector& detector, const std::vector<AlertType>& types) {
  detector.reset();
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (auto hit = detector.observe(make_alert(static_cast<util::SimTime>(i * 10), types[i]), i)) {
      return hit;
    }
  }
  return std::nullopt;
}

const incidents::Corpus& corpus() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

TEST(CriticalAlertDetectorTest, FiresOnlyOnCritical) {
  CriticalAlertDetector detector;
  EXPECT_FALSE(feed(detector, {AlertType::kPortScan, AlertType::kDownloadSensitive,
                               AlertType::kLogTampering}));
  const auto hit = feed(detector, {AlertType::kPortScan, AlertType::kPrivilegeEscalation});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, 1u);
}

TEST(CriticalAlertDetectorTest, FiresOnce) {
  CriticalAlertDetector detector;
  detector.reset();
  EXPECT_TRUE(detector.observe(make_alert(0, AlertType::kPrivilegeEscalation), 0));
  EXPECT_FALSE(detector.observe(make_alert(1, AlertType::kCredentialDump), 1));
}

TEST(ThresholdDetectorTest, SeverityFloor) {
  ThresholdDetector warn(alerts::Severity::kWarning);
  EXPECT_FALSE(feed(warn, {AlertType::kLoginSuccess, AlertType::kPortScan}));
  EXPECT_TRUE(feed(warn, {AlertType::kSshBruteforce}));  // warning severity
  ThresholdDetector high(alerts::Severity::kHigh);
  EXPECT_FALSE(feed(high, {AlertType::kSshBruteforce}));
  EXPECT_TRUE(feed(high, {AlertType::kRemoteCodeExec}));
}

TEST(RuleBasedDetectorTest, MatchesSubsequenceThroughNoise) {
  RuleBasedDetector detector({{"sig", {AlertType::kDownloadSensitive,
                                       AlertType::kCompileSource,
                                       AlertType::kLogTampering}}});
  const auto hit =
      feed(detector, {AlertType::kPortScan, AlertType::kDownloadSensitive,
                      AlertType::kLoginSuccess, AlertType::kCompileSource,
                      AlertType::kSshBruteforce, AlertType::kLogTampering});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, 5u);  // fires at the completing alert
  EXPECT_NE(hit->reason.find("sig"), std::string::npos);
}

TEST(RuleBasedDetectorTest, NoMatchOnWrongOrder) {
  RuleBasedDetector detector({{"sig", {AlertType::kCompileSource,
                                       AlertType::kDownloadSensitive}}});
  EXPECT_FALSE(feed(detector, {AlertType::kDownloadSensitive, AlertType::kCompileSource}));
}

TEST(RuleBasedDetectorTest, ResetClearsProgress) {
  RuleBasedDetector detector({{"sig", {AlertType::kDownloadSensitive,
                                       AlertType::kCompileSource}}});
  detector.reset();
  detector.observe(make_alert(0, AlertType::kDownloadSensitive), 0);
  detector.reset();
  EXPECT_FALSE(detector.observe(make_alert(1, AlertType::kCompileSource), 1));
}

TEST(RuleBasedDetectorTest, TrainExtractsPreDamagePrefixes) {
  const auto detector = RuleBasedDetector::train(corpus().incidents, 4, 2);
  EXPECT_GT(detector.signatures().size(), 10u);
  // Signatures are capped at 43 distinct cores (some prefixes coincide).
  EXPECT_LE(detector.signatures().size(), 43u);
}

/// A training incident's signature (its pre-damage core prefix, capped at
/// four alerts) that a fresh copy of `trained` completes exactly at its last
/// alert, with no other signature firing earlier.
std::vector<AlertType> signature_firing_at_end(const RuleBasedDetector& trained) {
  for (const auto& incident : corpus().incidents) {
    auto core = incident.core_sequence();
    core.erase(std::find_if(core.begin(), core.end(),
                            [](AlertType t) { return alerts::is_critical(t); }),
               core.end());
    if (core.size() > 4) core.resize(4);
    if (core.size() < 2) continue;
    RuleBasedDetector probe = trained;
    const auto hit = feed(probe, core);
    if (hit && hit->alert_index == core.size() - 1) return core;
  }
  ADD_FAILURE() << "no training signature fires at its last alert";
  return {};
}

TEST(RuleBasedDetectorTest, CopiesMatchIndependently) {
  const auto trained = RuleBasedDetector::train(corpus().incidents, 4, 2);
  const auto signature = signature_firing_at_end(trained);
  ASSERT_GE(signature.size(), 2u);
  RuleBasedDetector a = trained;
  RuleBasedDetector b = trained;
  a.reset();
  b.reset();
  // A sees all but the last alert of the signature.
  for (std::size_t i = 0; i + 1 < signature.size(); ++i) {
    ASSERT_FALSE(a.observe(make_alert(static_cast<util::SimTime>(i), signature[i]), i));
  }
  // B sees only the completing alert: A's progress must not carry over.
  const AlertType last = signature.back();
  EXPECT_FALSE(b.observe(make_alert(100, last), 0));
  // A completes; B, fed a stream of its own, is unaffected by A firing.
  EXPECT_TRUE(a.observe(make_alert(101, last), signature.size() - 1));
  EXPECT_FALSE(b.observe(make_alert(102, AlertType::kLoginSuccess), 1));
  const auto b_hit = feed(b, signature);
  ASSERT_TRUE(b_hit.has_value());
  EXPECT_EQ(b_hit->alert_index, signature.size() - 1);
  // B's reset and match leave A fired.
  EXPECT_FALSE(a.observe(make_alert(103, signature.front()), signature.size()));
}

TEST(RuleBasedDetectorTest, AddSignatureIsLocalToOneCopy) {
  const auto trained = RuleBasedDetector::train(corpus().incidents, 4, 2);
  const std::vector<AlertType> motif = {AlertType::kLogout, AlertType::kJobCompleted,
                                        AlertType::kLogout};
  RuleBasedDetector a = trained;
  RuleBasedDetector b = trained;
  ASSERT_FALSE(feed(a, motif)) << "the trained ruleset already catches the motif";
  a.add_signature({"motif", motif});
  EXPECT_EQ(a.signatures().size(), trained.signatures().size() + 1);
  EXPECT_EQ(b.signatures().size(), trained.signatures().size());
  EXPECT_FALSE(feed(b, motif));
  RuleBasedDetector copy_of_a = a;
  const auto hit = feed(copy_of_a, motif);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, motif.size() - 1);
  EXPECT_EQ(hit->reason, "matched motif");
  EXPECT_TRUE(feed(a, motif));
}

TEST(RuleBasedDetectorTest, RejectsOverlongSignature) {
  // A one-byte progress counter tracks at most 255 alerts.
  const std::vector<AlertType> longest(255, AlertType::kPortScan);
  const std::vector<AlertType> overlong(256, AlertType::kPortScan);
  EXPECT_THROW(RuleBasedDetector({{"overlong", overlong}}), std::invalid_argument);
  RuleBasedDetector detector({{"longest", longest}});
  EXPECT_THROW(detector.add_signature({"overlong", overlong}), std::invalid_argument);
  EXPECT_EQ(detector.signatures().size(), 1u);
  const auto hit = feed(detector, longest);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, longest.size() - 1);
}

TEST(RuleBasedDetectorTest, RejectsUnknownAlertType) {
  // The compiled table has one slot per taxonomy type; a signature naming
  // any other value could never be indexed.
  const auto unknown = static_cast<AlertType>(255);
  EXPECT_THROW(RuleBasedDetector({{"bad", {AlertType::kPortScan, unknown}}}),
               std::invalid_argument);
  RuleBasedDetector detector({{"ok", {AlertType::kPortScan}}});
  EXPECT_THROW(detector.add_signature({"bad", {unknown}}), std::invalid_argument);
  EXPECT_EQ(detector.signatures().size(), 1u);
}

TEST(FactorGraphDetectorTest, FiresOnAttackNotOnBenign) {
  auto detector = FactorGraphDetector::train(corpus(), 0.75);
  const auto hit = feed(detector, {AlertType::kDownloadSensitive, AlertType::kCompileSource,
                                   AlertType::kLogTampering});
  ASSERT_TRUE(hit.has_value());
  EXPECT_GE(hit->score, 0.75);
  EXPECT_FALSE(feed(detector, {AlertType::kLoginSuccess, AlertType::kJobSubmitted,
                               AlertType::kJobCompleted, AlertType::kLogout}));
}

TEST(FactorGraphDetectorTest, ThresholdControlsSensitivity) {
  auto eager = FactorGraphDetector::train(corpus(), 0.30);
  auto strict = FactorGraphDetector::train(corpus(), 0.97);
  const std::vector<AlertType> attack = {AlertType::kDbPortProbe,
                                         AlertType::kDefaultPasswordLogin,
                                         AlertType::kDbPayloadEncoding,
                                         AlertType::kDbFileExport};
  const auto eager_hit = feed(eager, attack);
  const auto strict_hit = feed(strict, attack);
  ASSERT_TRUE(eager_hit.has_value());
  if (strict_hit) {
    EXPECT_LE(eager_hit->alert_index, strict_hit->alert_index);
  }
}

// --- evaluation harness ---

struct EvalFixture : public ::testing::Test {
  void SetUp() override {
    split = split_corpus(corpus());
    for (const auto& incident : split.test) {
      attacks.push_back(attack_stream(incident));
    }
    incidents::DailyNoiseModel noise;
    benign = benign_streams(noise, 0, 10, 300);
  }
  Split split;
  std::vector<Stream> attacks;
  std::vector<Stream> benign;
};

TEST_F(EvalFixture, SplitIsDisjointAndComplete) {
  EXPECT_EQ(split.train.incidents.size() + split.test.size(), 228u);
  for (const auto& incident : split.train.incidents) EXPECT_EQ(incident.id % 2, 0u);
  for (const auto& incident : split.test) EXPECT_EQ(incident.id % 2, 1u);
}

TEST_F(EvalFixture, AttackStreamCarriesDamageIndex) {
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const auto& stream = attacks[i];
    EXPECT_TRUE(stream.is_attack);
    EXPECT_FALSE(stream.alerts.empty());
    if (stream.damage_index) {
      EXPECT_TRUE(stream.alerts[*stream.damage_index].critical());
      ASSERT_TRUE(stream.damage_ts.has_value());
      EXPECT_EQ(stream.alerts[*stream.damage_index].ts, *stream.damage_ts);
    }
  }
}

TEST_F(EvalFixture, FactorGraphPreemptsEverythingItDetects) {
  auto detector = FactorGraphDetector::train(split.train, 0.75);
  const auto result = evaluate(detector, attacks, benign);
  EXPECT_GT(result.recall(), 0.9);
  EXPECT_GT(result.precision(), 0.9);
  // The headline property: detections come *before* the damage instant.
  EXPECT_GT(result.preemption_rate(), 0.9);
  EXPECT_GT(result.lead_seconds.mean(), 0.0);
}

TEST_F(EvalFixture, CriticalBaselineNeverPreempts) {
  // Insight 4: firing on critical alerts is always too late.
  CriticalAlertDetector detector;
  const auto result = evaluate(detector, attacks, benign);
  EXPECT_EQ(result.preempted, 0u);
  EXPECT_EQ(result.false_positives, 0u);
  // It also misses every attack without a recorded critical alert.
  EXPECT_LT(result.recall(), 0.6);
}

TEST_F(EvalFixture, ThresholdBaselineDrownsInNoise) {
  // Remark 2: single-alert decisions have a high false-positive rate.
  ThresholdDetector detector(alerts::Severity::kWarning);
  const auto result = evaluate(detector, attacks, benign);
  EXPECT_EQ(result.false_positives, benign.size());  // pages on every day
}

TEST_F(EvalFixture, FgOutleadsRules) {
  auto fg = FactorGraphDetector::train(split.train, 0.75);
  auto rules = RuleBasedDetector::train(split.train.incidents);
  const auto fg_result = evaluate(fg, attacks, benign);
  const auto rule_result = evaluate(rules, attacks, benign);
  EXPECT_GE(fg_result.preemption_rate(), rule_result.preemption_rate() - 0.05);
  EXPECT_GE(fg_result.precision(), rule_result.precision());
}

TEST_F(EvalFixture, RecallAtPrefixMatchesInsight2) {
  // Insight 2: a preemption model must already work at 2-4 observed
  // alerts. Recall grows with the prefix and is substantial by 4.
  auto detector = FactorGraphDetector::train(split.train, 0.75);
  const double r1 = recall_at_prefix(detector, attacks, 1);
  const double r4 = recall_at_prefix(detector, attacks, 4);
  const double r16 = recall_at_prefix(detector, attacks, 16);
  EXPECT_LE(r1, r4);
  EXPECT_LE(r4, r16 + 1e-9);
  EXPECT_GT(r4, 0.3);
}

TEST(EvalResultTest, MetricArithmetic) {
  EvalResult result;
  result.true_positives = 8;
  result.false_negatives = 2;
  result.false_positives = 2;
  result.damage_streams = 5;
  result.preempted = 4;
  EXPECT_DOUBLE_EQ(result.precision(), 0.8);
  EXPECT_DOUBLE_EQ(result.recall(), 0.8);
  EXPECT_DOUBLE_EQ(result.preemption_rate(), 0.8);
  EXPECT_NEAR(result.f1(), 0.8, 1e-12);
  EvalResult empty;
  EXPECT_EQ(empty.precision(), 0.0);
  EXPECT_EQ(empty.recall(), 0.0);
  EXPECT_EQ(empty.f1(), 0.0);
}

}  // namespace
}  // namespace at::detect
