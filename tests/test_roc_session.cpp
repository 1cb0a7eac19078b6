// ROC analysis and session-keyed detection.

#include <gtest/gtest.h>

#include "detect/roc.hpp"
#include "detect/session_pipeline.hpp"

namespace at {
namespace {

const incidents::Corpus& corpus() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

// --- ROC ---

TEST(RocTest, CurveShapeAndAuc) {
  const auto split = detect::split_corpus(corpus());
  const auto params = fg::learn_params(split.train);
  std::vector<detect::Stream> attacks;
  for (const auto& incident : split.test) attacks.push_back(detect::attack_stream(incident));
  incidents::DailyNoiseModel noise;
  const auto benign = detect::benign_streams(noise, 0, 20, 400);

  const auto curve = detect::roc_factor_graph(params, attacks, benign, 25);
  ASSERT_EQ(curve.points.size(), 26u);
  // TPR is non-increasing as the threshold rises; rates live in [0,1].
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    EXPECT_GE(curve.points[i].tpr, 0.0);
    EXPECT_LE(curve.points[i].tpr, 1.0);
    EXPECT_GE(curve.points[i].fpr, 0.0);
    EXPECT_LE(curve.points[i].fpr, 1.0);
    if (i > 0) {
      EXPECT_LE(curve.points[i].tpr, curve.points[i - 1].tpr + 1e-12);
      EXPECT_LE(curve.points[i].fpr, curve.points[i - 1].fpr + 1e-12);
    }
  }
  // Threshold 0 fires on everything.
  EXPECT_DOUBLE_EQ(curve.points.front().tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.points.front().fpr, 1.0);
  // The trained model separates attack from benign almost perfectly.
  EXPECT_GT(curve.auc, 0.95);
}

TEST(RocTest, UntrainedModelIsNoBetterThanChanceOnItsOwnScores) {
  // Degenerate uniform model: scores collapse, AUC ~<= chance band.
  incidents::Corpus empty;
  const auto params = fg::learn_params(empty);
  const auto split = detect::split_corpus(corpus());
  std::vector<detect::Stream> attacks;
  for (std::size_t i = 0; i < 20; ++i) {
    attacks.push_back(detect::attack_stream(split.test[i]));
  }
  incidents::DailyNoiseModel noise;
  const auto benign = detect::benign_streams(noise, 0, 20, 200);
  const auto curve = detect::roc_factor_graph(params, attacks, benign, 25);
  EXPECT_LT(curve.auc, 0.7);
}

TEST(RocTest, MaxScoreIsAPosterior) {
  const auto params = fg::learn_params(corpus());
  const auto stream = detect::attack_stream(corpus().incidents[0]);
  const double score = detect::max_posterior_score(params, stream);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

// --- session pipeline ---

TEST(SessionPipelineTest, AccountHoppingAcrossHostsIsOneDetection) {
  const auto params = fg::learn_params(corpus());
  detect::SessionPipeline pipeline([&params] {
    return std::make_unique<detect::FactorGraphDetector>(params, 0.75);
  });
  // The motif spread across three hosts, all under one stolen account —
  // host keying would fragment this; session keying must not.
  const alerts::AlertType steps[] = {alerts::AlertType::kDownloadSensitive,
                                     alerts::AlertType::kCompileSource,
                                     alerts::AlertType::kLogTampering};
  const char* hosts[] = {"a", "b", "c"};
  std::optional<detect::SessionDetection> hit;
  for (int i = 0; i < 3; ++i) {
    alerts::Alert alert;
    alert.ts = i * 100;
    alert.type = steps[i];
    alert.host = hosts[i];
    alert.user = "stolen";
    alert.src = net::Ipv4(9, 9, 9, 9);
    if (auto detection = pipeline.on_alert(alert)) hit = detection;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->account, "stolen");
  const auto* session = pipeline.sessionizer().find(hit->session_id);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->hosts.size(), 3u);
  EXPECT_EQ(pipeline.detections().size(), 1u);
}

TEST(SessionPipelineTest, SeparateAccountsSeparateDetectors) {
  const auto params = fg::learn_params(corpus());
  detect::SessionPipeline pipeline([&params] {
    return std::make_unique<detect::FactorGraphDetector>(params, 0.75);
  });
  // Each account shows only inconclusive probing: neither session fires,
  // and the two accounts are tracked independently.
  for (int i = 0; i < 2; ++i) {
    alerts::Alert alert;
    alert.ts = i;
    alert.type = i == 0 ? alerts::AlertType::kPortScan : alerts::AlertType::kSshBruteforce;
    alert.host = "h";
    // Not a ternary char* pick: that form trips a GCC 12 -O3
    // -Wmaybe-uninitialized false positive inside the string SSO buffer.
    if (i == 0) {
      alert.user = "u1";
    } else {
      alert.user = "u2";
    }
    EXPECT_FALSE(pipeline.on_alert(alert).has_value());
  }
  EXPECT_EQ(pipeline.sessionizer().sessions().size(), 2u);
}

TEST(SessionPipelineTest, FiresOncePerSession) {
  const auto params = fg::learn_params(corpus());
  detect::SessionPipeline pipeline([&params] {
    return std::make_unique<detect::FactorGraphDetector>(params, 0.5);
  });
  alerts::Alert alert;
  alert.user = "u";
  alert.host = "h";
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    alert.ts = i;
    alert.type = alerts::AlertType::kDownloadSensitive;
    if (pipeline.on_alert(alert)) ++fires;
  }
  EXPECT_EQ(fires, 1);
}

}  // namespace
}  // namespace at
