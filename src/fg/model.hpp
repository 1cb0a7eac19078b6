#pragma once
// The AttackTagger model: a chain factor graph over hidden per-event attack
// stages (benign, suspicious, in_progress, compromised), with emission
// factors tying each observed alert to its stage and transition factors
// enforcing stage progression. Parameters are learned from an annotated
// incident corpus plus benign traffic (Laplace-smoothed counts) — this is
// the "conditional probability of an alert being in a successful attack
// and normal operational conditions" of Remark 2.

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "alerts/taxonomy.hpp"
#include "incidents/generator.hpp"
#include "util/annotations.hpp"
#include "util/time_utils.hpp"

namespace at::fg {

/// Inter-alert gap buckets (Insight 3: automated probing arrives in tight
/// bursts, manual attack stages hours apart — timing is itself evidence).
enum class GapBucket : std::uint8_t {
  kBurst = 0,    ///< < 30 s since the previous alert
  kMinutes = 1,  ///< < 1 h
  kHours = 2,    ///< < 1 day
  kDays = 3      ///< >= 1 day
};
inline constexpr std::size_t kNumGapBuckets = 4;

[[nodiscard]] GapBucket bucket_for_gap(util::SimTime gap) noexcept;

/// Learned model parameters (all natural-log probabilities).
struct ModelParams {
  /// log P(stage) at the first event; [stage].
  std::vector<double> log_prior;
  /// log P(stage_t | stage_{t-1}); [prev * kNumStages + next].
  std::vector<double> log_transition;
  /// log P(alert type | stage); [stage * kNumAlertTypes + type].
  std::vector<double> log_emission;
  /// log P(gap bucket | stage); [stage * kNumGapBuckets + bucket]. Used by
  /// the time-aware detector variant (Insight 3 ablation).
  std::vector<double> log_gap;

  [[nodiscard]] double prior(alerts::AttackStage stage) const {
    return log_prior[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] double transition(alerts::AttackStage prev, alerts::AttackStage next) const {
    return log_transition[static_cast<std::size_t>(prev) * alerts::kNumStages +
                          static_cast<std::size_t>(next)];
  }
  [[nodiscard]] double emission(alerts::AttackStage stage, alerts::AlertType type) const {
    return log_emission[static_cast<std::size_t>(stage) * alerts::kNumAlertTypes +
                        static_cast<std::size_t>(type)];
  }
  [[nodiscard]] double gap(alerts::AttackStage stage, GapBucket bucket) const {
    return log_gap[static_cast<std::size_t>(stage) * kNumGapBuckets +
                   static_cast<std::size_t>(bucket)];
  }
};

/// Estimate parameters from a corpus's annotated timelines.
[[nodiscard]] ModelParams learn_params(const incidents::Corpus& corpus);

/// Exponentiated (linear-domain) parameter tables, immutable and shared:
/// every EntityFilter built from one CompiledParams costs a refcount bump
/// instead of four vector copies, and observe() stops paying ~20 exp()
/// calls per event. Values are bit-identical to exponentiating the log
/// tables on the fly, so filters built either way agree exactly. This is
/// what makes per-entity detector fan-out cheap in the alert pipelines
/// (tens of thousands of entities, one filter each).
struct CompiledParams {
  ModelParams params;              ///< log-domain source, kept for callers
  std::vector<double> prior;       ///< [stage]
  std::vector<double> transition;  ///< [prev * kNumStages + next]
  std::vector<double> emission;    ///< [stage * kNumAlertTypes + type]
  std::vector<double> gap;         ///< [stage * kNumGapBuckets + bucket]; empty if unused
};

[[nodiscard]] std::shared_ptr<const CompiledParams> compile_params(ModelParams params);

/// Most likely stage sequence for the full observation (Viterbi on the
/// chain) — what the original AttackTagger emits to tag each event for
/// forensics. Equivalent to max-product BP on the chain factor graph
/// (verified in tests) but O(n * stages^2) directly.
[[nodiscard]] std::vector<alerts::AttackStage> decode_stages(
    const ModelParams& params, std::span<const alerts::AlertType> observed);

/// The streaming inference kernel: a normalized forward filter over the
/// stage chain, one per tracked entity, holding P(stage_t | alerts) in four
/// doubles plus the shared parameter tables — constant in the history
/// length, O(stages^2) per alert, no log or exp. An optional gap factor
/// P(gap bucket | stage) on every alert after the first adds inter-alert
/// timing as evidence (Insight 3). tests/fg_oracle checks it against BP
/// and exact enumeration of the chain factor graph.
class EntityFilter {
 public:
  explicit EntityFilter(std::shared_ptr<const CompiledParams> compiled)
      : compiled_(std::move(compiled)) {}

  /// Absorb one alert. `gap` (time since the previous alert of this stream)
  /// multiplies in the timing factor from the second absorbed alert on;
  /// nullopt ignores timing. An observation the model assigns zero
  /// likelihood (impossible with smoothed, learned parameters) is skipped:
  /// the state, including the absorbed-alert count, is left as it was.
  void observe(alerts::AlertType type, std::optional<GapBucket> gap = std::nullopt) AT_HOT;

  /// Posterior over the current (last observed) stage; all zero before the
  /// first absorbed alert.
  [[nodiscard]] const std::array<double, alerts::kNumStages>& last_stage() const noexcept {
    return belief_;
  }
  /// P(current stage >= `stage` | alerts).
  [[nodiscard]] double p_at_least(alerts::AttackStage stage) const noexcept;
  /// Alerts absorbed (skipped impossible ones excluded).
  [[nodiscard]] std::size_t observed() const noexcept { return count_; }
  void reset() noexcept;

 private:
  std::shared_ptr<const CompiledParams> compiled_;
  std::array<double, alerts::kNumStages> belief_{};  ///< normalized
  std::size_t count_ = 0;
};

}  // namespace at::fg
