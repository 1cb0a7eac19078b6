#pragma once
// The AttackTagger model spelled out as an explicit factor graph, for
// checking fg::EntityFilter against run_bp and enumerate_exact.
//
// `gaps`, when given, is aligned with `observed` and holds exactly what the
// filter's observe() received for each alert: a gap bucket from the second
// alert on adds the per-node factor log P(gap | stage), as in the filter.

#include <optional>
#include <span>
#include <vector>

#include "fg/model.hpp"
#include "fg_oracle/bp.hpp"
#include "fg_oracle/graph.hpp"

namespace at::fg {

/// The chain factor graph for an observed alert-type sequence: one stage
/// variable per event, an emission factor per event, a transition factor
/// per adjacent pair (plus a prior factor on the first), and a gap factor
/// per timed event after the first.
[[nodiscard]] FactorGraph build_chain(const ModelParams& params,
                                      std::span<const alerts::AlertType> observed,
                                      std::span<const std::optional<GapBucket>> gaps = {});

/// Full-sequence posterior of the *last* stage via sum-product BP on the
/// chain: an oracle for the filter.
[[nodiscard]] std::vector<double> chain_posterior_last(
    const ModelParams& params, std::span<const alerts::AlertType> observed,
    std::span<const std::optional<GapBucket>> gaps = {}, const BpOptions& options = {});

}  // namespace at::fg
