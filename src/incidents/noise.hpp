#pragma once
// Daily background-alert model (Fig 2). NCSA's monitors observe an average
// of 94,238 alerts per day (sigma = 23,547) in a sample month, and roughly
// 80K of the 94K are repeated port and vulnerability scans (Insight 3).
// DailyNoiseModel draws per-day volumes with that composition; the Fig 2
// bench measures the mean/sigma back from a sampled month, and the testbed
// pipeline uses the model to synthesize live background traffic.

#include <cstdint>
#include <vector>

#include "alerts/alert.hpp"
#include "util/rng.hpp"
#include "util/time_utils.hpp"

namespace at::incidents {

struct NoiseConfig {
  std::uint64_t seed = 7;
  double mean_daily = 94'238.0;
  double stddev_daily = 23'547.0;
};

struct DayVolume {
  util::SimTime day_start = 0;
  std::uint64_t total = 0;
  std::uint64_t repeated_scans = 0;
  std::uint64_t benign_ops = 0;
  std::uint64_t other = 0;
};

class DailyNoiseModel {
 public:
  explicit DailyNoiseModel(NoiseConfig config = {}) : config_(config) {}

  /// Per-day volumes for `days` consecutive days starting at `start`.
  [[nodiscard]] std::vector<DayVolume> sample_month(util::SimTime start,
                                                    std::size_t days = 30) const;

  /// Materialize a sampled alert stream for one day: `budget` alerts drawn
  /// with the day's composition (scan repeats from a small set of noisy
  /// sources, benign operations from internal hosts). Used by pipeline
  /// benches where materializing all 94K/day is unnecessary.
  [[nodiscard]] std::vector<alerts::Alert> materialize_day(const DayVolume& day,
                                                           std::size_t budget) const;

  [[nodiscard]] const NoiseConfig& config() const noexcept { return config_; }

 private:
  NoiseConfig config_;
};

}  // namespace at::incidents
