#pragma once
// The Alert record: one symbolized, sanitized log message with metadata —
// the unit of data every detector, analysis, and bench consumes.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alerts/taxonomy.hpp"
#include "net/ipv4.hpp"
#include "util/time_utils.hpp"

namespace at::alerts {

/// Which monitor produced an alert (paper: Zeek, osquery/ossec, auditd,
/// rsyslog).
enum class Origin : std::uint8_t { kZeek, kOsquery, kAuditd, kRsyslog, kSynthetic };

[[nodiscard]] const char* to_string(Origin origin) noexcept;

struct Alert {
  util::SimTime ts = 0;
  AlertType type{};
  std::string host;              ///< internal host that observed the activity
  std::string user;              ///< account involved (may be empty)
  std::optional<net::Ipv4> src;  ///< external/peer address, if network-borne
  Origin origin = Origin::kSynthetic;
  /// Free-form sanitized metadata, e.g. {"url", "64.215.xxx.yyy/abs.c"}.
  std::vector<std::pair<std::string, std::string>> metadata;

  [[nodiscard]] std::string_view symbol_name() const noexcept { return symbol(type); }
  [[nodiscard]] bool critical() const noexcept { return is_critical(type); }
  [[nodiscard]] const std::string* find_meta(std::string_view key) const noexcept;
  void add_meta(std::string key, std::string value) {
    metadata.emplace_back(std::move(key), std::move(value));
  }

  /// One-line render, e.g.
  /// "2024-10-30 03:44:12 alert_download_sensitive host=pg-3 src=194.145.xxx.yyy".
  [[nodiscard]] std::string str() const;
};

/// Sort alerts by (ts, type) in place — canonical timeline order.
void sort_timeline(std::vector<Alert>& alerts);

/// Extract the alert-type sequence from a timeline (analysis input).
[[nodiscard]] std::vector<AlertType> type_sequence(const std::vector<Alert>& alerts);

/// Callback sink used by monitors and the testbed pipeline.
class AlertSink {
 public:
  virtual ~AlertSink() = default;
  virtual void on_alert(const Alert& alert) = 0;
  /// Move-enabled handoff: sinks that enqueue alerts (BufferSink, the
  /// detection daemon's per-shard rings) take ownership of the strings and
  /// metadata without a copy. Defaults to the const-ref overload so
  /// existing sinks need no change; overriders add a
  /// `using alerts::AlertSink::on_alert;` to keep the lvalue overload
  /// visible (-Woverloaded-virtual).
  virtual void on_alert(Alert&& alert) { on_alert(static_cast<const Alert&>(alert)); }
};

/// Sink that simply buffers alerts (tests, offline analysis).
class BufferSink final : public AlertSink {
 public:
  using AlertSink::on_alert;
  void on_alert(const Alert& alert) override { alerts_.push_back(alert); }
  void on_alert(Alert&& alert) override { alerts_.push_back(std::move(alert)); }
  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  [[nodiscard]] std::vector<Alert> take() { return std::exchange(alerts_, {}); }
  void clear() { alerts_.clear(); }

 private:
  std::vector<Alert> alerts_;
};

}  // namespace at::alerts
