#include "testbed/correlator.hpp"

#include "util/rng.hpp"

namespace at::testbed {

std::uint64_t AlertCorrelator::key_of(const alerts::Alert& alert) {
  const std::uint64_t host_hash = util::mix64(std::hash<std::string>{}(alert.host));
  return host_hash ^ (static_cast<std::uint64_t>(alert.type) << 1);
}

bool AlertCorrelator::admit(const alerts::Alert& alert) {
  ++received_;
  const auto key = key_of(alert);
  const auto [last, inserted] = last_forwarded_.try_emplace(key);
  if (!inserted && alert.ts - *last < config_.window && alert.ts >= *last) {
    // Corroborating observation of the same event: absorb it. (Operators
    // can recover the per-monitor view from the monitors' own counters.)
    return false;
  }
  *last = alert.ts;
  ++forwarded_;
  return true;
}

void AlertCorrelator::on_alert(const alerts::Alert& alert) {
  if (admit(alert)) downstream_->on_alert(alert);
}

void AlertCorrelator::on_alert(alerts::Alert&& alert) {
  // Move-through: an admitted alert hands its strings straight downstream.
  if (admit(alert)) downstream_->on_alert(std::move(alert));
}

}  // namespace at::testbed
