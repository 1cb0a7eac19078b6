#include "detect/detector.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace at::detect {

std::optional<Detection> CriticalAlertDetector::observe(const alerts::Alert& alert,
                                                        std::size_t index) {
  if (fired_ || !alert.critical()) return std::nullopt;
  fired_ = true;
  return Detection{index, alert.ts, 1.0,
                   std::string("critical alert ") + std::string(alert.symbol_name())};
}

std::optional<Detection> ThresholdDetector::observe(const alerts::Alert& alert,
                                                    std::size_t index) {
  if (fired_ || alerts::severity_of(alert.type) < floor_) return std::nullopt;
  fired_ = true;
  return Detection{index, alert.ts, 1.0,
                   std::string("severity >= floor: ") + std::string(alert.symbol_name())};
}

RuleBasedDetector::RuleBasedDetector(std::vector<Signature> signatures)
    : table_(compile(std::move(signatures))), progress_(table_->signatures.size(), 0) {}

std::shared_ptr<const RuleBasedDetector::Table> RuleBasedDetector::compile(
    std::vector<Signature> signatures) {
  std::vector<std::vector<std::uint32_t>> by_type(alerts::kNumAlertTypes);
  for (std::size_t s = 0; s < signatures.size(); ++s) {
    const Signature& signature = signatures[s];
    if (signature.alerts.size() > kMaxSignatureLength) {
      throw std::invalid_argument("signature " + signature.name + " has " +
                                  std::to_string(signature.alerts.size()) +
                                  " alerts; the limit is " +
                                  std::to_string(kMaxSignatureLength));
    }
    for (const alerts::AlertType type : signature.alerts) {
      const auto t = static_cast<std::size_t>(type);
      if (t >= alerts::kNumAlertTypes) {
        throw std::invalid_argument("signature " + signature.name +
                                    " names unknown alert type " + std::to_string(t));
      }
      // Signatures are visited in ascending order, so a repeated type
      // within one signature is already the list's last entry.
      auto& list = by_type[t];
      if (list.empty() || list.back() != s) list.push_back(static_cast<std::uint32_t>(s));
    }
  }
  auto table = std::make_shared<Table>();
  table->offsets.reserve(by_type.size() + 1);
  table->offsets.push_back(0);
  for (const auto& list : by_type) {
    table->members.insert(table->members.end(), list.begin(), list.end());
    table->offsets.push_back(static_cast<std::uint32_t>(table->members.size()));
  }
  table->signatures = std::move(signatures);
  return table;
}

RuleBasedDetector RuleBasedDetector::train(const std::vector<incidents::Incident>& training,
                                           std::size_t max_len, std::size_t min_len) {
  std::set<std::vector<alerts::AlertType>> distinct;
  for (const auto& incident : training) {
    auto core = incident.core_sequence();
    // Keep only the pre-damage prefix: signatures must be usable *before*
    // irreversible damage, so everything from the first critical alert on
    // is dropped.
    const auto first_critical =
        std::find_if(core.begin(), core.end(),
                     [](alerts::AlertType t) { return alerts::is_critical(t); });
    core.erase(first_critical, core.end());
    if (core.size() > max_len) core.resize(max_len);
    if (core.size() >= min_len) distinct.insert(std::move(core));
  }
  std::vector<Signature> signatures;
  std::size_t id = 0;
  for (const auto& alerts_seq : distinct) {
    signatures.push_back(Signature{"sig-" + std::to_string(++id), alerts_seq});
  }
  return RuleBasedDetector(std::move(signatures));
}

void RuleBasedDetector::add_signature(Signature signature) {
  std::vector<Signature> signatures = table_->signatures;
  signatures.push_back(std::move(signature));
  table_ = compile(std::move(signatures));
  progress_.push_back(0);
}

void RuleBasedDetector::reset() {
  fired_ = false;
  std::fill(progress_.begin(), progress_.end(), 0);
}

std::optional<Detection> RuleBasedDetector::observe(const alerts::Alert& alert,
                                                    std::size_t index) {
  if (fired_) return std::nullopt;
  // The type may come from a parsed log: one outside the taxonomy matches
  // nothing.
  const auto type = static_cast<std::size_t>(alert.type);
  if (type >= alerts::kNumAlertTypes) return std::nullopt;
  // Only the signatures containing this type can advance; visiting them in
  // ascending order fires the same signature a scan of all of them would.
  const Table& table = *table_;
  for (std::uint32_t k = table.offsets[type]; k < table.offsets[type + 1]; ++k) {
    const std::uint32_t s = table.members[k];
    const auto& signature = table.signatures[s].alerts;
    std::uint8_t& progress = progress_[s];
    if (progress < signature.size() && signature[progress] == alert.type) {
      ++progress;
      if (progress == signature.size()) {
        fired_ = true;
        return Detection{index, alert.ts, 1.0, "matched " + table.signatures[s].name};
      }
    }
  }
  return std::nullopt;
}

FactorGraphDetector::FactorGraphDetector(fg::ModelParams params, double threshold,
                                         alerts::AttackStage stage, bool use_timing)
    : FactorGraphDetector(fg::compile_params(std::move(params)), threshold, stage,
                          use_timing) {}

FactorGraphDetector::FactorGraphDetector(std::shared_ptr<const fg::CompiledParams> compiled,
                                         double threshold, alerts::AttackStage stage,
                                         bool use_timing, FgInference /*inference*/)
    : threshold_(threshold),
      stage_(stage),
      use_timing_(use_timing),
      filter_(std::move(compiled)) {}

FactorGraphDetector FactorGraphDetector::train(const incidents::Corpus& training,
                                               double threshold, bool use_timing) {
  return FactorGraphDetector(fg::learn_params(training), threshold,
                             alerts::AttackStage::kInProgress, use_timing);
}

std::string FactorGraphDetector::name() const {
  return use_timing_ ? "factor-graph-timed" : "factor-graph";
}

void FactorGraphDetector::reset() {
  filter_.reset();
  last_ts_.reset();
  fired_ = false;
}

double FactorGraphDetector::score() const noexcept {
  return filter_.p_at_least(stage_);
}

std::optional<Detection> FactorGraphDetector::observe(const alerts::Alert& alert,
                                                      std::size_t index) {
  if (fired_) return std::nullopt;
  std::optional<fg::GapBucket> gap;
  if (use_timing_ && last_ts_) gap = fg::bucket_for_gap(alert.ts - *last_ts_);
  last_ts_ = alert.ts;
  filter_.observe(alert.type, gap);
  const double p = score();
  if (p >= threshold_) {
    fired_ = true;
    // The reason is built only on the firing alert: it outgrows the
    // small-string buffer, and observe() runs once per alert.
    return Detection{index, alert.ts, p,
                     "P(stage>=" + std::string(alerts::to_string(stage_)) +
                         ")=" + std::to_string(p)};
  }
  return std::nullopt;
}

}  // namespace at::detect
