#pragma once
// The benchmark's two workloads. Each one builds its inputs from the seed
// and computes its oracle outputs (untimed); every repetition then runs
// program set-up, the timed phase, and the output checks against that
// oracle. Repetitions leave the inputs and the oracle unchanged.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "recorder.hpp"

namespace alertbench {

/// What one repetition reports back to the parent.
struct RepResult {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::uint64_t inputs = 0;
  double rss_mb = 0.0;
  std::uint64_t faults = 0;                 ///< minor page faults in the timed phase
  std::uint64_t failed = 0;                 ///< failed operations
  std::vector<std::string> failures;        ///< one line per kind of failure
  std::vector<std::string> shape_failures;  ///< workload-shape guard violations
  /// Verdict latency samples (microseconds) with their weights.
  std::vector<Weighted> latency_us;
  std::vector<double> gen_lag_ms;           ///< open loop: submit start - due time
  std::map<std::string, double> layer;      ///< traced per-layer metrics
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Parent side: generate the inputs from `seed` and the oracle outputs.
  virtual void prepare(std::uint64_t seed) = 0;
  /// Child side: set-up, timed phase, checks. `traced` records spans and
  /// fills RepResult::layer.
  virtual void run_rep(bool traced, RepResult& out) = 0;
  /// Child side: program set-up alone, for extra set-up samples.
  virtual void setup_only(RepResult& out) = 0;
  /// Workload parameters recorded with the result (shards, rate, sizes).
  [[nodiscard]] virtual std::map<std::string, std::string> params() const = 0;
  /// Wall time of the serial AlertPipeline oracle, as inputs per second
  /// (0 where the workload has none).
  [[nodiscard]] virtual double serial_inputs_per_s() const = 0;
  /// Whether the end-to-end times are scaled by the host probe: true where
  /// the timed work is bound by memory latency and so follows the host's
  /// load, false where a fixed schedule sets the times.
  [[nodiscard]] virtual bool host_scaled() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

/// Resident set size of this process, in MiB (VmRSS or VmHWM).
[[nodiscard]] double rss_mb(const char* field);
/// Minor page faults this process has taken so far, over all threads.
[[nodiscard]] std::uint64_t minor_faults();

}  // namespace alertbench
