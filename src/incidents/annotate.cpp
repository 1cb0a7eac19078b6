#include "incidents/annotate.hpp"

#include "util/rng.hpp"

namespace at::incidents {

bool ScanFilter::filterable(alerts::AlertType type) noexcept {
  // Only the repetitive, inconclusive classes are eligible for suppression;
  // everything execution-stage or later always passes.
  const auto category = alerts::category_of(type);
  return category == alerts::Category::kRecon || category == alerts::Category::kAccess;
}

bool ScanFilter::keep(const alerts::Alert& alert) {
  return keep(alert.type, alert.ts, alert.src, alert.host);
}

bool ScanFilter::keep(alerts::AlertType type, util::SimTime ts,
                      const std::optional<net::Ipv4>& src, std::string_view host) {
  ++seen_;
  if (!filterable(type)) return true;
  const std::uint64_t src_key =
      src ? src->value() : util::mix64(std::hash<std::string_view>{}(host));
  const std::uint64_t key = (src_key << 8) ^ static_cast<std::uint64_t>(type);
  const auto [last, inserted] = last_pass_.try_emplace(key, ts);
  if (inserted) return true;
  if (ts - last->second < window_) {
    ++dropped_;
    return false;
  }
  last->second = ts;
  return true;
}

AnnotationMethod AnnotationPipeline::classify(const LabeledAlert& alert) const {
  // Auto-annotation keys on the alert type's category: benign-category
  // types auto-label benign, attack-category types auto-label malicious.
  // The residue — where that type-level rule disagrees with ground truth —
  // is exactly what needs a human (stolen-credential logins, legitimate
  // compile jobs).
  const bool looks_benign =
      alerts::category_of(alert.alert.type) == alerts::Category::kBenign;
  if (looks_benign && !alert.attack_related) return AnnotationMethod::kAutoBenign;
  if (!looks_benign && alert.attack_related) return AnnotationMethod::kAutoMalicious;
  return AnnotationMethod::kExpert;
}

AnnotationResult AnnotationPipeline::annotate(const Corpus& corpus) const {
  AnnotationResult result;
  for (const auto& incident : corpus.incidents) {
    for (const auto& entry : incident.timeline) {
      ++result.total;
      switch (classify(entry)) {
        case AnnotationMethod::kAutoBenign:
          ++result.auto_benign;
          break;
        case AnnotationMethod::kAutoMalicious:
          ++result.auto_malicious;
          break;
        case AnnotationMethod::kExpert:
          ++result.expert;
          // We assume expert annotations are correct (paper Section II-A).
          ++result.expert_correct;
          break;
      }
    }
  }
  return result;
}

}  // namespace at::incidents
