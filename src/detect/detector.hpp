#pragma once
// Detector framework. A Detector consumes one time-ordered alert stream
// (one attack entity, or one benign window) and reports the first moment it
// would page the security team. The four implementations span the design
// space the paper argues about:
//   - CriticalAlertDetector: fire on any of the 19 critical alerts — the
//     "too late" baseline of Insight 4.
//   - ThresholdDetector: fire on any single alert of sufficient severity —
//     the noisy single-alert baseline of Remark 2.
//   - RuleBasedDetector: match known pre-damage signature subsequences
//     (the testbed's rule-based model, ref [5]).
//   - FactorGraphDetector: AttackTagger — the filtered stage posterior
//     P(stage >= in_progress | alerts) crossing a probability threshold
//     (ref [6]).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alerts/alert.hpp"
#include "fg/model.hpp"
#include "incidents/incident.hpp"
#include "util/annotations.hpp"

namespace at::detect {

struct Detection {
  std::size_t alert_index = 0;  ///< index into the stream (0-based)
  util::SimTime ts = 0;
  double score = 0.0;  ///< model confidence at firing time
  std::string reason;
};

class Detector {
 public:
  virtual ~Detector() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Restart for a new stream.
  virtual void reset() = 0;
  /// Absorb one alert; returns a detection the first time the stream
  /// crosses the firing condition (and nothing on later alerts). Concrete
  /// overrides carry AT_HOT: observe() runs once per kept alert inside the
  /// shard drain, so at_lint audits everything reachable from each
  /// implementation for blocking calls and defaulted atomic orders.
  virtual std::optional<Detection> observe(const alerts::Alert& alert,
                                           std::size_t index) = 0;
  /// Absorb a run of consecutive alerts of this stream (pointers into the
  /// caller's batch; alert i gets index first_index + i). Returns the
  /// first detection and stops — exactly what feeding the run through
  /// observe() one alert at a time yields, since a fired stream ignores
  /// the remainder anyway. No code in src/ calls it; it stays because
  /// alertbench's TimedDetector overrides it to time whole runs, and
  /// BatchEquivalence.OnBatchMatchesOnAlertStream pins the equivalence.
  virtual std::optional<Detection> observe_batch(
      std::span<const alerts::Alert* const> alerts, std::size_t first_index) {
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      if (auto detection = observe(*alerts[i], first_index + i)) return detection;
    }
    return std::nullopt;
  }
};

/// Fires on the first of the paper's 19 critical alert types.
class CriticalAlertDetector final : public Detector {
 public:
  [[nodiscard]] std::string name() const override { return "critical-alert"; }
  void reset() override { fired_ = false; }
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  bool fired_ = false;
};

/// Fires on any single alert at or above a severity floor.
class ThresholdDetector final : public Detector {
 public:
  explicit ThresholdDetector(alerts::Severity floor = alerts::Severity::kWarning)
      : floor_(floor) {}
  [[nodiscard]] std::string name() const override { return "single-alert-threshold"; }
  void reset() override { fired_ = false; }
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  alerts::Severity floor_;
  bool fired_ = false;
};

/// Matches known signature subsequences (learned from training incidents).
/// The signatures live in an immutable table shared by every copy, so a
/// per-entity matcher is the table pointer, one progress byte per
/// signature and the fired flag: copying one costs a refcount bump and a
/// single small allocation.
class RuleBasedDetector final : public Detector {
 public:
  struct Signature {
    std::string name;
    std::vector<alerts::AlertType> alerts;
  };

  /// Longest signature a one-byte progress counter can track.
  static constexpr std::size_t kMaxSignatureLength = 255;

  /// Throws std::invalid_argument if a signature is longer than
  /// kMaxSignatureLength or names an alert type outside the taxonomy.
  explicit RuleBasedDetector(std::vector<Signature> signatures);

  /// Extract signatures from training incidents: the pre-damage prefix of
  /// each distinct core sequence, truncated to `max_len` alerts
  /// (Insight 2's effective range) and deduplicated.
  static RuleBasedDetector train(const std::vector<incidents::Incident>& training,
                                 std::size_t max_len = 4, std::size_t min_len = 2);

  [[nodiscard]] std::string name() const override { return "rule-based"; }
  [[nodiscard]] const std::vector<Signature>& signatures() const noexcept {
    return table_->signatures;
  }
  /// Add a signature at runtime — the paper's feedback loop where alerts
  /// from a preempted attack refine the deployed ruleset. Copy-on-write:
  /// this matcher gets a new table; other copies keep the old one.
  /// Throws std::invalid_argument as the constructor does.
  void add_signature(Signature signature);
  void reset() override;
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  /// The compiled ruleset: the signatures, plus for each alert type the
  /// ascending indices of the signatures containing it (each once), laid
  /// out as one flat array sliced by `offsets`.
  struct Table {
    std::vector<Signature> signatures;
    std::vector<std::uint32_t> offsets;  ///< kNumAlertTypes + 1 entries
    std::vector<std::uint32_t> members;
  };
  static std::shared_ptr<const Table> compile(std::vector<Signature> signatures);

  std::shared_ptr<const Table> table_;
  std::vector<std::uint8_t> progress_;  ///< matched prefix length per signature
  bool fired_ = false;
};

/// The factor-graph model a FactorGraphDetector runs. There is one, the
/// stage chain; the enum remains for callers that still name it (see
/// FactorGraphDetector).
enum class FgInference : std::uint8_t {
  kForwardFilter,  ///< fg::EntityFilter, scoring P(stage >= threshold stage | alerts)
};

/// AttackTagger: factor-graph stage inference with a posterior threshold.
/// With `use_timing` the filter also conditions on inter-alert gap buckets
/// (Insight 3: probe bursts vs manual-stage pauses are themselves
/// evidence). The shared-table constructor's trailing FgInference
/// parameter is accepted and ignored: it has a single value, and callers
/// that forward `TestbedConfig::fg_inference` (alertbench/workloads.cpp)
/// still pass it.
class FactorGraphDetector final : public Detector {
 public:
  FactorGraphDetector(fg::ModelParams params, double threshold = 0.75,
                      alerts::AttackStage stage = alerts::AttackStage::kInProgress,
                      bool use_timing = false);
  /// Shares pre-compiled tables: the cheap constructor for per-entity
  /// fan-out in the alert pipelines (one detector per tracked entity).
  explicit FactorGraphDetector(std::shared_ptr<const fg::CompiledParams> compiled,
                               double threshold = 0.75,
                               alerts::AttackStage stage = alerts::AttackStage::kInProgress,
                               bool use_timing = false,
                               FgInference inference = FgInference::kForwardFilter);

  /// Learn parameters from a training corpus and wrap them.
  static FactorGraphDetector train(const incidents::Corpus& training,
                                   double threshold = 0.75, bool use_timing = false);

  [[nodiscard]] std::string name() const override;
  /// The thresholded posterior after the last absorbed alert (frozen once
  /// the detector has fired).
  [[nodiscard]] double score() const noexcept;
  void reset() override;
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  double threshold_;
  alerts::AttackStage stage_;
  bool use_timing_;
  fg::EntityFilter filter_;
  std::optional<util::SimTime> last_ts_;
  bool fired_ = false;
};

}  // namespace at::detect
