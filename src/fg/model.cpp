#include "fg/model.hpp"

#include <cmath>
#include <stdexcept>

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

ModelParams learn_params(const incidents::Corpus& corpus, const LearnOptions& options) {
  std::vector<double> prior_counts(kStages, options.laplace);
  std::vector<double> transition_counts(kStages * kStages, options.laplace);
  std::vector<double> emission_counts(kStages * kTypes, options.laplace);
  std::vector<double> gap_counts(kStages * kNumGapBuckets, options.laplace);

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
        if (stage < prev_stage) weight = options.regression_penalty;
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

FactorGraph build_chain(const ModelParams& params,
                        std::span<const alerts::AlertType> observed) {
  FactorGraph graph;
  if (observed.empty()) return graph;

  std::vector<VarId> stages;
  stages.reserve(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t) {
    stages.push_back(graph.add_variable(kStages, "stage_" + std::to_string(t)));
  }
  // Prior factor on the first stage.
  graph.add_factor({stages[0]}, params.log_prior, "prior");
  // Emission factor per event: phi_t(s) = log P(alert_t | s).
  for (std::size_t t = 0; t < observed.size(); ++t) {
    std::vector<double> table(kStages);
    for (std::size_t s = 0; s < kStages; ++s) {
      table[s] = params.emission(static_cast<alerts::AttackStage>(s), observed[t]);
    }
    graph.add_factor({stages[t]}, std::move(table), "emit_" + std::to_string(t));
  }
  // Transition factor per adjacent pair; layout [prev, next], next fastest,
  // matching ModelParams::log_transition.
  for (std::size_t t = 1; t < observed.size(); ++t) {
    graph.add_factor({stages[t - 1], stages[t]}, params.log_transition,
                     "trans_" + std::to_string(t));
  }
  return graph;
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

ForwardFilter::ForwardFilter(ModelParams params)
    : ForwardFilter(compile_params(std::move(params))) {}

ForwardFilter::ForwardFilter(std::shared_ptr<const CompiledParams> compiled)
    : compiled_(std::move(compiled)) {
  reset();
}

void ForwardFilter::reset() {
  belief_.assign(kStages, 0.0);
  count_ = 0;
}

const std::vector<double>& ForwardFilter::observe(alerts::AlertType type,
                                                  std::optional<GapBucket> gap) {
  // Same recurrence as before compilation, on the pre-exponentiated
  // tables — factors and evaluation order are unchanged, so posteriors
  // are bit-identical to the log-table implementation.
  const CompiledParams& c = *compiled_;
  const std::size_t t = static_cast<std::size_t>(type);
  double next[kStages];
  if (count_ == 0) {
    for (std::size_t s = 0; s < kStages; ++s) {
      next[s] = c.prior[s] * c.emission[s * alerts::kNumAlertTypes + t];
    }
  } else {
    for (std::size_t s = 0; s < kStages; ++s) {
      double predicted = 0.0;
      for (std::size_t p = 0; p < kStages; ++p) {
        predicted += belief_[p] * c.transition[p * kStages + s];
      }
      next[s] = predicted * c.emission[s * alerts::kNumAlertTypes + t];
      if (gap && !c.gap.empty()) {
        next[s] *= c.gap[s * kNumGapBuckets + static_cast<std::size_t>(*gap)];
      }
    }
  }
  double total = 0.0;
  for (const double v : next) total += v;
  if (total <= 0.0) {
    // All-zero likelihood (impossible observation under the model): keep
    // the previous belief rather than dividing by zero.
    ++count_;
    return belief_;
  }
  for (std::size_t s = 0; s < kStages; ++s) belief_[s] = next[s] / total;
  ++count_;
  return belief_;
}

double ForwardFilter::p_at_least(alerts::AttackStage stage) const {
  double total = 0.0;
  for (std::size_t s = static_cast<std::size_t>(stage); s < kStages; ++s) {
    total += belief_[s];
  }
  return total;
}

EntityFilter::EntityFilter(std::shared_ptr<const CompiledParams> compiled, double coupling)
    : compiled_(std::move(compiled)), mismatch_(util::safe_exp(-coupling)) {}

void EntityFilter::reset() noexcept {
  belief_ = {};
  log_odds_ = 0.0;
  count_ = 0;
}

void EntityFilter::observe(alerts::AlertType type) {
  // One forward step per value of U on the U-conditioned chain: U's
  // coupling column multiplies the emission.
  const CompiledParams& c = *compiled_;
  const std::size_t t = static_cast<std::size_t>(type);
  constexpr auto kAttack = static_cast<std::size_t>(alerts::AttackStage::kInProgress);
  double next[2][kStages];
  double total[2] = {0.0, 0.0};
  for (std::size_t u = 0; u < 2; ++u) {
    for (std::size_t s = 0; s < kStages; ++s) {
      double predicted = 0.0;
      if (count_ == 0) {
        predicted = c.prior[s];
      } else {
        for (std::size_t p = 0; p < kStages; ++p) {
          predicted += belief_[u][p] * c.transition[p * kStages + s];
        }
      }
      const double couple = (s >= kAttack) == (u == 1) ? 1.0 : mismatch_;
      next[u][s] = predicted * c.emission[s * kTypes + t] * couple;
      total[u] += next[u][s];
    }
  }
  ++count_;
  // Impossible under either branch: keep the previous state rather than
  // divide by zero (the ForwardFilter guard).
  if (total[0] <= 0.0 || total[1] <= 0.0) return;
  for (std::size_t u = 0; u < 2; ++u) {
    for (std::size_t s = 0; s < kStages; ++s) belief_[u][s] = next[u][s] / total[u];
  }
  log_odds_ += std::log(total[1]) - std::log(total[0]);
}

double EntityFilter::p_malicious() const noexcept {
  return 1.0 / (1.0 + util::safe_exp(-log_odds_));
}

std::array<double, alerts::kNumStages> EntityFilter::last_stage() const noexcept {
  const double p = p_malicious();
  std::array<double, kStages> mixed{};
  for (std::size_t s = 0; s < kStages; ++s) {
    mixed[s] = (1.0 - p) * belief_[0][s] + p * belief_[1][s];
  }
  return mixed;
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

FactorGraph build_entity_graph(const ModelParams& params,
                               std::span<const alerts::AlertType> observed,
                               double coupling) {
  FactorGraph graph = build_chain(params, observed);
  if (observed.empty()) return graph;
  const VarId user = graph.add_variable(2, "user_state");
  // Uniform prior on U; the evidence flows through the couplings.
  graph.add_factor({user}, {std::log(0.5), std::log(0.5)}, "user_prior");
  // Coupling table over (stage, U), U fastest: a legitimate user (U=0) is
  // consistent with benign/suspicious stages, a malicious one (U=1) with
  // in_progress/compromised.
  std::vector<double> table(kStages * 2);
  for (std::size_t s = 0; s < kStages; ++s) {
    const bool attack_stage = s >= static_cast<std::size_t>(alerts::AttackStage::kInProgress);
    table[s * 2 + 0] = attack_stage ? -coupling : 0.0;  // U = legitimate
    table[s * 2 + 1] = attack_stage ? 0.0 : -coupling;  // U = malicious
  }
  for (VarId stage = 0; stage < static_cast<VarId>(observed.size()); ++stage) {
    graph.add_factor({stage, user}, table, "couple_" + std::to_string(stage));
  }
  return graph;
}

std::vector<double> chain_posterior_last(const ModelParams& params,
                                         std::span<const alerts::AlertType> observed,
                                         const BpOptions& options) {
  if (observed.empty()) throw std::invalid_argument("chain_posterior_last: empty sequence");
  const FactorGraph graph = build_chain(params, observed);
  BpOptions opts = options;
  // A chain of n variables needs ~n rounds of flooding BP to be exact.
  opts.max_iterations = std::max<std::size_t>(opts.max_iterations, observed.size() + 2);
  const BpResult result = run_bp(graph, opts);
  return result.marginals.back();
}

}  // namespace at::fg
