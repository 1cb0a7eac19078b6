// ROC analysis.

#include <gtest/gtest.h>

#include "detect/roc.hpp"

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

}  // namespace
}  // namespace at
