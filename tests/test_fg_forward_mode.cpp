// FactorGraphDetector against the stage-chain forward filter it replaced.
// The detector now runs fg::EntityFilter; the dedicated ForwardFilter
// lives on here verbatim as the reference. On learned and on seeded random smoothed
// parameters, timed and untimed, every per-alert score must be
// bit-identical (memcmp) and the firing index equal.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/logdomain.hpp"
#include "util/rng.hpp"

namespace at {
namespace reference {

using fg::CompiledParams;
using fg::GapBucket;
using fg::kNumGapBuckets;
using fg::ModelParams;
using fg::compile_params;

constexpr std::size_t kStages = alerts::kNumStages;

// --- verbatim: the deleted fg::ForwardFilter (declaration, then body) ---

/// Streaming forward filter over the chain (O(stages^2) per event):
/// maintains P(stage_t | alerts_1..t). This is what the online detector
/// runs; it is algebraically identical to sum-product BP restricted to the
/// forward direction of the chain (verified in tests).
class ForwardFilter {
 public:
  /// Compiles a private table set; the filter — and anything embedding it —
  /// stays freely copyable and movable.
  explicit ForwardFilter(ModelParams params);
  /// Shares an existing table set (the cheap per-entity constructor).
  explicit ForwardFilter(std::shared_ptr<const CompiledParams> compiled);

  /// Absorb one observation; returns the posterior over the current stage.
  /// `gap` (time since the previous alert of this stream) enables the
  /// time-aware emission term; pass nullopt to ignore timing.
  const std::vector<double>& observe(alerts::AlertType type,
                                     std::optional<GapBucket> gap = std::nullopt);

  [[nodiscard]] const std::vector<double>& posterior() const noexcept { return belief_; }
  [[nodiscard]] double p_at_least(alerts::AttackStage stage) const;
  [[nodiscard]] std::size_t observed() const noexcept { return count_; }
  [[nodiscard]] const ModelParams& params() const noexcept { return compiled_->params; }
  void reset();

 private:
  std::shared_ptr<const CompiledParams> compiled_;
  std::vector<double> belief_;  ///< linear, normalized
  std::size_t count_ = 0;
};

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

// --- end verbatim ---

}  // namespace reference

namespace {

using alerts::AlertType;
using alerts::AttackStage;

const fg::ModelParams& learned() {
  static const fg::ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return fg::learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

/// Row-stochastic log tables from random positive counts, every entry
/// finite (the smoothed regime learn_params produces).
fg::ModelParams random_smoothed(util::Rng& rng) {
  auto rows = [&rng](std::size_t count, std::size_t width) {
    std::vector<double> table(count * width);
    for (std::size_t r = 0; r < count; ++r) {
      double total = 0.0;
      for (std::size_t c = 0; c < width; ++c) {
        table[r * width + c] = 0.01 + rng.uniform();
        total += table[r * width + c];
      }
      for (std::size_t c = 0; c < width; ++c) {
        table[r * width + c] = util::safe_log(table[r * width + c] / total);
      }
    }
    return table;
  };
  fg::ModelParams params;
  params.log_prior = rows(1, alerts::kNumStages);
  params.log_transition = rows(alerts::kNumStages, alerts::kNumStages);
  params.log_emission = rows(alerts::kNumStages, alerts::kNumAlertTypes);
  params.log_gap = rows(alerts::kNumStages, fg::kNumGapBuckets);
  return params;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One seeded stream through the forward-mode detector and the reference
/// filter side by side: a never-firing detector for the per-alert scores
/// over the whole stream, and one at 0.75 for the firing index.
void expect_identical(const fg::ModelParams& params, bool timed, std::uint64_t seed) {
  constexpr util::SimTime kSteps[] = {0, 7, 10 * util::kMinute, 5 * util::kHour, 3 * util::kDay};
  util::Rng rng(seed);
  const auto compiled = fg::compile_params(params);
  const AttackStage stage = AttackStage::kInProgress;
  detect::FactorGraphDetector scorer(compiled, 2.0, stage, timed);
  detect::FactorGraphDetector firer(compiled, 0.75, stage, timed);
  reference::ForwardFilter filter(compiled);
  std::optional<util::SimTime> last_ts;
  std::optional<std::size_t> reference_fire;
  std::optional<std::size_t> detector_fire;
  alerts::Alert alert;
  for (std::size_t i = 0; i < 120; ++i) {
    alert.ts += kSteps[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(std::size(kSteps)) - 1))];
    alert.type = static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));

    std::optional<fg::GapBucket> gap;
    if (timed && last_ts) gap = fg::bucket_for_gap(alert.ts - *last_ts);
    last_ts = alert.ts;
    filter.observe(alert.type, gap);
    const double expected = filter.p_at_least(stage);
    if (!reference_fire && expected >= 0.75) reference_fire = i;

    ASSERT_FALSE(scorer.observe(alert, i).has_value());
    ASSERT_TRUE(same_bits(scorer.score(), expected))
        << "seed " << seed << " timed " << timed << " alert " << i << ": " << scorer.score()
        << " vs " << expected;
    if (const auto d = firer.observe(alert, i); d && !detector_fire) {
      detector_fire = d->alert_index;
      EXPECT_TRUE(same_bits(d->score, expected));
    }
  }
  EXPECT_EQ(detector_fire, reference_fire) << "seed " << seed << " timed " << timed;
}

class ForwardModeDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ForwardModeDifferential, LearnedParamsBitIdentical) {
  for (const bool timed : {false, true}) {
    expect_identical(learned(), timed, static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  }
}

TEST_P(ForwardModeDifferential, RandomSmoothedParamsBitIdentical) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  const fg::ModelParams params = random_smoothed(rng);
  for (const bool timed : {false, true}) {
    expect_identical(params, timed, static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardModeDifferential, ::testing::Range(0, 25));

}  // namespace
}  // namespace at
