#include "alerts/taxonomy.hpp"
#include "detect/roc.hpp"

#include <algorithm>

namespace at::detect {

double max_posterior_score(const fg::ModelParams& params, const Stream& stream) {
  // The deployed detector's score, P(stage >= in_progress), after each
  // alert.
  fg::EntityFilter filter(fg::compile_params(params));
  double peak = 0.0;
  for (const auto& alert : stream.alerts) {
    filter.observe(alert.type);
    peak = std::max(peak, filter.p_at_least(alerts::AttackStage::kInProgress));
  }
  return peak;
}

RocCurve roc_factor_graph(const fg::ModelParams& params, std::span<const Stream> attacks,
                          std::span<const Stream> benign, std::size_t threshold_steps) {
  std::vector<double> attack_scores;
  attack_scores.reserve(attacks.size());
  for (const auto& stream : attacks) {
    attack_scores.push_back(max_posterior_score(params, stream));
  }
  std::vector<double> benign_scores;
  benign_scores.reserve(benign.size());
  for (const auto& stream : benign) {
    benign_scores.push_back(max_posterior_score(params, stream));
  }

  RocCurve curve;
  curve.points.reserve(threshold_steps + 1);
  for (std::size_t i = 0; i <= threshold_steps; ++i) {
    const double threshold =
        static_cast<double>(i) / static_cast<double>(threshold_steps);
    RocPoint point;
    point.threshold = threshold;
    std::size_t tp = 0;
    for (const double score : attack_scores) {
      if (score >= threshold) ++tp;
    }
    std::size_t fp = 0;
    for (const double score : benign_scores) {
      if (score >= threshold) ++fp;
    }
    point.tpr = attacks.empty() ? 0.0
                                : static_cast<double>(tp) / static_cast<double>(attacks.size());
    point.fpr = benign.empty() ? 0.0
                               : static_cast<double>(fp) / static_cast<double>(benign.size());
    curve.points.push_back(point);
  }

  // Trapezoidal AUC over (fpr, tpr), sorted by ascending fpr. Points come
  // out with descending fpr as threshold rises; integrate accordingly.
  auto sorted = curve.points;
  std::sort(sorted.begin(), sorted.end(),
            [](const RocPoint& a, const RocPoint& b) { return a.fpr < b.fpr; });
  double auc = 0.0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    auc += (sorted[i].fpr - sorted[i - 1].fpr) * (sorted[i].tpr + sorted[i - 1].tpr) / 2.0;
  }
  // Extend to fpr = 1 at the max observed tpr (threshold 0 fires on all).
  if (!sorted.empty() && sorted.back().fpr < 1.0) {
    auc += (1.0 - sorted.back().fpr) * sorted.back().tpr;
  }
  curve.auc = auc;
  return curve;
}

}  // namespace at::detect
