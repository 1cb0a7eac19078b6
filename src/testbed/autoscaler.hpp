#pragma once
// Auto-scaling policy (Section IV-C): "This setup also allows auto-scaling
// of a network of virtual machine instances, e.g., simulating a
// distributed federation of databases, allowing us to capture realistic
// lateral movement attacks." When attack pressure on the fleet rises, the
// scaler clones instances to widen the net; when pressure subsides it
// holds (instances retire naturally through the TTL recycler).

#include "testbed/lifecycle.hpp"
#include "testbed/pipeline.hpp"

namespace at::testbed {

struct AutoScalerConfig {
  /// Scale up when this fraction of running instances is capturing.
  double capture_pressure_threshold = 0.25;
  /// Also scale when notifications in the last window exceed this count.
  std::size_t notification_burst = 4;
  util::SimTime window = util::kHour;
  /// Instances added per scale event.
  std::size_t step = 4;
};

class AutoScaler {
 public:
  AutoScaler(AutoScalerConfig config, VmManager& vms, const AlertPipeline& pipeline)
      : config_(config), vms_(&vms), pipeline_(&pipeline) {}

  /// Evaluate the policy at `now`; returns how many instances were added.
  std::size_t tick(util::SimTime now);

  [[nodiscard]] std::uint64_t scale_events() const noexcept { return scale_events_; }

 private:
  AutoScalerConfig config_;
  VmManager* vms_;
  const AlertPipeline* pipeline_;
  std::size_t notifications_seen_ = 0;
  util::SimTime window_start_ = 0;
  std::size_t window_notifications_ = 0;
  std::uint64_t scale_events_ = 0;
};

}  // namespace at::testbed
