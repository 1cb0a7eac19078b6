#include "fg_oracle/chain.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace at::fg {

namespace {

constexpr std::size_t kStages = alerts::kNumStages;

}  // namespace

FactorGraph build_chain(const ModelParams& params,
                        std::span<const alerts::AlertType> observed,
                        std::span<const std::optional<GapBucket>> gaps) {
  if (!gaps.empty() && gaps.size() != observed.size()) {
    throw std::invalid_argument("build_chain: gaps must align with observed");
  }
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
  // Gap factor per timed event after the first: log P(gap_t | s).
  for (std::size_t t = 1; t < gaps.size(); ++t) {
    if (!gaps[t] || params.log_gap.empty()) continue;
    std::vector<double> table(kStages);
    for (std::size_t s = 0; s < kStages; ++s) {
      table[s] = params.gap(static_cast<alerts::AttackStage>(s), *gaps[t]);
    }
    graph.add_factor({stages[t]}, std::move(table), "gap_" + std::to_string(t));
  }
  return graph;
}

std::vector<double> chain_posterior_last(const ModelParams& params,
                                         std::span<const alerts::AlertType> observed,
                                         std::span<const std::optional<GapBucket>> gaps,
                                         const BpOptions& options) {
  if (observed.empty()) throw std::invalid_argument("chain_posterior_last: empty sequence");
  const FactorGraph graph = build_chain(params, observed, gaps);
  BpOptions opts = options;
  // A chain of n variables needs ~n rounds of flooding BP to be exact.
  opts.max_iterations = std::max<std::size_t>(opts.max_iterations, observed.size() + 2);
  return run_bp(graph, opts).marginals.back();
}

}  // namespace at::fg
