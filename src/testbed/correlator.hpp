#pragma once
// Cross-monitor alert correlation. The same attacker action is often seen
// by more than one monitor (a /tmp/kp execution surfaces via osquery's
// process event AND auditd's execve record). The correlator sits between
// the monitors and the pipeline and merges near-duplicate observations —
// same host, same alert type, within a small window — into one alert with
// a corroboration count, so detectors are not double-counting evidence
// while operators still see which monitors agreed.

#include "alerts/alert.hpp"
#include "util/flat_map.hpp"

namespace at::testbed {

struct CorrelatorConfig {
  /// Alerts of the same (host, type) within this window are one event.
  util::SimTime window = 30;
};

class AlertCorrelator final : public alerts::AlertSink {
 public:
  AlertCorrelator(CorrelatorConfig config, alerts::AlertSink& downstream)
      : config_(config), downstream_(&downstream) {}

  using alerts::AlertSink::on_alert;
  void on_alert(const alerts::Alert& alert) override;
  void on_alert(alerts::Alert&& alert) override;

  /// Repoint the downstream sink (e.g. to a tap that also feeds an
  /// operator console). Not synchronized; call before the alert stream
  /// starts.
  void retarget(alerts::AlertSink& downstream) noexcept { downstream_ = &downstream; }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t merged() const noexcept { return received_ - forwarded_; }

 private:
  struct Key {
    std::uint64_t value = 0;
  };
  [[nodiscard]] static std::uint64_t key_of(const alerts::Alert& alert);
  /// Dedup decision shared by both overloads; updates counters/window.
  [[nodiscard]] bool admit(const alerts::Alert& alert);

  CorrelatorConfig config_;
  alerts::AlertSink* downstream_;
  /// Last forwarded time per (host, type). The host is always one of the
  /// site's own: Zeek names an inbound flow's destination or an outbound
  /// flow's source, and host monitors name their machine. So the internal
  /// address space times the taxonomy bounds the table, however many
  /// external sources attack, and nothing needs to prune it.
  util::FlatMap<util::SimTime> last_forwarded_;
  std::uint64_t received_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace at::testbed
