#include "fg/model.hpp"

#include "util/logdomain.hpp"

namespace at::fg {

namespace {

constexpr std::size_t kStages = alerts::kNumStages;
constexpr std::size_t kTypes = alerts::kNumAlertTypes;

void normalize_rows(std::vector<double>& counts, std::size_t rows, std::size_t cols,
                    std::vector<double>& out_log) {
  out_log.assign(rows * cols, util::kLogZero);
  for (std::size_t r = 0; r < rows; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < cols; ++c) total += counts[r * cols + c];
    if (total <= 0.0) continue;
    for (std::size_t c = 0; c < cols; ++c) {
      out_log[r * cols + c] = util::safe_log(counts[r * cols + c] / total);
    }
  }
}

}  // namespace

GapBucket bucket_for_gap(util::SimTime gap) noexcept {
  if (gap < 30) return GapBucket::kBurst;
  if (gap < util::kHour) return GapBucket::kMinutes;
  if (gap < util::kDay) return GapBucket::kHours;
  return GapBucket::kDays;
}

ModelParams learn_params(const incidents::Corpus& corpus) {
  // Additive (Laplace) smoothing count for every table cell.
  constexpr double kLaplace = 1.0;
  // Weight of a regressing transition: attacks rarely de-escalate.
  constexpr double kRegressionPenalty = 0.25;
  std::vector<double> prior_counts(kStages, kLaplace);
  std::vector<double> transition_counts(kStages * kStages, kLaplace);
  std::vector<double> emission_counts(kStages * kTypes, kLaplace);
  std::vector<double> gap_counts(kStages * kNumGapBuckets, kLaplace);

  for (const auto& incident : corpus.incidents) {
    const incidents::LabeledAlert* prev = nullptr;
    for (const auto& entry : incident.timeline) {
      const auto stage = static_cast<std::size_t>(entry.stage);
      const auto type = static_cast<std::size_t>(entry.alert.type);
      emission_counts[stage * kTypes + type] += 1.0;
      if (prev == nullptr) {
        prior_counts[stage] += 1.0;
      } else {
        const auto prev_stage = static_cast<std::size_t>(prev->stage);
        double weight = 1.0;
        // Attacks progress; observed regressions (noise interleaving) are
        // learned with reduced weight so the model prefers monotonic
        // escalation, as the original AttackTagger factors encode.
        if (stage < prev_stage) weight = kRegressionPenalty;
        transition_counts[prev_stage * kStages + stage] += weight;
        const auto bucket =
            static_cast<std::size_t>(bucket_for_gap(entry.alert.ts - prev->alert.ts));
        gap_counts[stage * kNumGapBuckets + bucket] += 1.0;
      }
      prev = &entry;
    }
  }

  ModelParams params;
  {
    double total = 0.0;
    for (const double c : prior_counts) total += c;
    params.log_prior.assign(kStages, util::kLogZero);
    for (std::size_t s = 0; s < kStages; ++s) {
      params.log_prior[s] = util::safe_log(prior_counts[s] / total);
    }
  }
  normalize_rows(transition_counts, kStages, kStages, params.log_transition);
  normalize_rows(emission_counts, kStages, kTypes, params.log_emission);
  normalize_rows(gap_counts, kStages, kNumGapBuckets, params.log_gap);
  return params;
}

std::shared_ptr<const CompiledParams> compile_params(ModelParams params) {
  auto compiled = std::make_shared<CompiledParams>();
  compiled->params = std::move(params);
  const ModelParams& p = compiled->params;
  compiled->prior.reserve(p.log_prior.size());
  for (const double v : p.log_prior) compiled->prior.push_back(util::safe_exp(v));
  compiled->transition.reserve(p.log_transition.size());
  for (const double v : p.log_transition) compiled->transition.push_back(util::safe_exp(v));
  compiled->emission.reserve(p.log_emission.size());
  for (const double v : p.log_emission) compiled->emission.push_back(util::safe_exp(v));
  compiled->gap.reserve(p.log_gap.size());
  for (const double v : p.log_gap) compiled->gap.push_back(util::safe_exp(v));
  return compiled;
}

void EntityFilter::reset() noexcept {
  belief_ = {};
  count_ = 0;
}

void EntityFilter::observe(alerts::AlertType type, std::optional<GapBucket> gap) {
  // One normalized forward step: predict through the transitions (the
  // prior on the first alert), then multiply the emission and, when
  // timed, the gap factor.
  const CompiledParams& c = *compiled_;
  const std::size_t t = static_cast<std::size_t>(type);
  const bool timed = gap && count_ > 0 && !c.gap.empty();
  const std::size_t g = timed ? static_cast<std::size_t>(*gap) : 0;
  std::array<double, kStages> next;
  double total = 0.0;
  for (std::size_t s = 0; s < kStages; ++s) {
    double predicted = 0.0;
    if (count_ == 0) {
      predicted = c.prior[s];
    } else {
      for (std::size_t p = 0; p < kStages; ++p) {
        predicted += belief_[p] * c.transition[p * kStages + s];
      }
    }
    next[s] = predicted * c.emission[s * kTypes + t];
    if (timed) next[s] *= c.gap[s * kNumGapBuckets + g];
    total += next[s];
  }
  // Impossible observation: keep the previous state, count included,
  // rather than divide by zero. A skipped first alert thus leaves the
  // filter fresh, and the next alert starts from the prior.
  if (total <= 0.0) return;
  for (std::size_t s = 0; s < kStages; ++s) belief_[s] = next[s] / total;
  ++count_;
}

double EntityFilter::p_at_least(alerts::AttackStage stage) const noexcept {
  double total = 0.0;
  for (std::size_t s = static_cast<std::size_t>(stage); s < kStages; ++s) total += belief_[s];
  return total;
}

std::vector<alerts::AttackStage> decode_stages(const ModelParams& params,
                                               std::span<const alerts::AlertType> observed) {
  const std::size_t n = observed.size();
  std::vector<alerts::AttackStage> path(n, alerts::AttackStage::kBenign);
  if (n == 0) return path;

  // Viterbi in log space.
  std::vector<double> score(kStages);
  std::vector<std::vector<std::uint8_t>> back(n, std::vector<std::uint8_t>(kStages, 0));
  for (std::size_t s = 0; s < kStages; ++s) {
    score[s] = params.log_prior[s] +
               params.emission(static_cast<alerts::AttackStage>(s), observed[0]);
  }
  for (std::size_t t = 1; t < n; ++t) {
    std::vector<double> next(kStages, util::kLogZero);
    for (std::size_t s = 0; s < kStages; ++s) {
      for (std::size_t p = 0; p < kStages; ++p) {
        const double candidate =
            score[p] + params.transition(static_cast<alerts::AttackStage>(p),
                                         static_cast<alerts::AttackStage>(s));
        if (candidate > next[s]) {
          next[s] = candidate;
          back[t][s] = static_cast<std::uint8_t>(p);
        }
      }
      next[s] += params.emission(static_cast<alerts::AttackStage>(s), observed[t]);
    }
    score = std::move(next);
  }
  std::size_t best = 0;
  for (std::size_t s = 1; s < kStages; ++s) {
    if (score[s] > score[best]) best = s;
  }
  for (std::size_t t = n; t-- > 0;) {
    path[t] = static_cast<alerts::AttackStage>(best);
    if (t > 0) best = back[t][best];
  }
  return path;
}

}  // namespace at::fg
