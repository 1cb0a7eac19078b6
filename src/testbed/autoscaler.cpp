#include "testbed/autoscaler.hpp"

namespace at::testbed {

std::size_t AutoScaler::tick(util::SimTime now) {
  // Rolling notification count over the window.
  if (now - window_start_ >= config_.window) {
    window_start_ = now;
    window_notifications_ = 0;
  }
  const std::size_t total_notes = pipeline_->notifications().size();
  window_notifications_ += total_notes - notifications_seen_;
  notifications_seen_ = total_notes;

  // Capture pressure across the fleet.
  std::size_t capturing = 0;
  std::size_t running = 0;
  for (const auto& instance : vms_->instances()) {
    if (instance.state == InstanceState::kCapturing) ++capturing;
    if (instance.state == InstanceState::kRunning ||
        instance.state == InstanceState::kCapturing) {
      ++running;
    }
  }
  const double pressure =
      running ? static_cast<double>(capturing) / static_cast<double>(running) : 0.0;

  if (pressure < config_.capture_pressure_threshold &&
      window_notifications_ < config_.notification_burst) {
    return 0;
  }
  std::size_t added = 0;
  for (std::size_t i = 0; i < config_.step; ++i) {
    if (!vms_->scale_up(now)) break;
    ++added;
  }
  if (added > 0) {
    ++scale_events_;
    window_notifications_ = 0;  // pressure answered; re-arm
  }
  return added;
}

}  // namespace at::testbed
