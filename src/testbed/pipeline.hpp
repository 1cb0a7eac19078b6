#pragma once
// The alert pipeline of Fig 4: monitors push alerts in; the pipeline
// filters periodic-scan repeats, demultiplexes the stream per attack entity
// (EntityRef), runs every registered detector on each entity's substream
// (EntityTable, which each DetectionDaemon shard owns too), and on a
// detection notifies the security operators and, when the detection names
// a source, calls the Black Hole Router's API to block it.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alerts/alert.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "incidents/annotate.hpp"

namespace at::testbed {

struct Notification {
  util::SimTime ts = 0;
  std::string entity;
  std::string detector;
  std::string reason;
  double score = 0.0;
  std::optional<net::Ipv4> source;
};

/// Factory so each entity substream gets fresh detector state.
using DetectorFactory = std::function<std::unique_ptr<detect::Detector>()>;
/// Detector families in registration order: entry d names and builds
/// detector d of every tracked entity.
using DetectorFactories = std::vector<std::pair<std::string, DetectorFactory>>;

struct PipelineConfig {
  util::SimTime scan_filter_window = util::kHour;
  /// TTL for automatic BHR blocks (the response to detections).
  util::SimTime block_ttl = 24 * util::kHour;
  /// Entities idle longer than this are evicted (their detector state is
  /// discarded). Keeps per-entity memory bounded under production volume
  /// (tens of thousands of distinct sources per day). 0 disables eviction.
  util::SimTime entity_idle_ttl = 24 * util::kHour;
  /// Eviction scan cadence, amortized over ingest.
  std::size_t eviction_check_every = 4096;
};

/// Whether the alert with ingest ordinal `alerts_in` (filtered alerts count
/// too) sweeps idle entities before it is observed: every
/// eviction_check_every-th alert, never with eviction disabled.
[[nodiscard]] bool eviction_due(const PipelineConfig& config, std::uint64_t alerts_in) noexcept;

/// An alert's attack entity, one attack per entity as in the paper's threat
/// model: the host if the alert names one (everything observed on one
/// machine is the view the per-host factor graph reasons over), else its
/// source address, else its user. The key string and the daemon's shard
/// hash both derive from it, so one entity's alerts share key and shard.
struct EntityRef {
  enum class Kind : std::uint8_t { kHost, kIp, kUser };
  Kind kind = Kind::kUser;
  std::string_view name;  ///< the host or user; empty for kIp
  net::Ipv4 ip;           ///< kIp only

  [[nodiscard]] static EntityRef of(std::string_view host, const std::optional<net::Ipv4>& src,
                                    std::string_view user) noexcept;
  [[nodiscard]] static EntityRef of(const alerts::Alert& alert) noexcept {
    return of(alert.host, alert.src, alert.user);
  }
  /// Demux key: "host:<name>", "ip:<dotted quad>" or "user:<name>".
  [[nodiscard]] std::string key() const;
  /// Shard hash: a pure function of the entity, so a shard count gives the
  /// same partition (and the same verdict stream) on every run.
  [[nodiscard]] std::uint64_t hash() const noexcept;
};

/// The per-entity detection core: one detector stack per attack entity
/// plus the substream bookkeeping. One owner thread drives it.
class EntityTable {
 public:
  explicit EntityTable(const PipelineConfig& config) noexcept
      : idle_ttl_(config.entity_idle_ttl) {}

  /// Run one kept alert through its entity's detectors (built from
  /// `factories` on first sight) and hand each verdict, in detector order,
  /// to `emit(Notification&&)`. The table's owner blocks every verdict
  /// that names a source (at once when serial, at release in the daemon)
  /// with reason "<detector>: <reason>". A detector's exception propagates
  /// with nothing rolled back: the detectors ahead of it have observed and
  /// emitted.
  template <typename Emit>
  void observe(const DetectorFactories& factories, const alerts::Alert& alert, Emit&& emit);

  /// Forget every entity idle longer than entity_idle_ttl at `now`.
  void evict_idle(util::SimTime now);

  [[nodiscard]] std::size_t size() const noexcept { return entities_.size(); }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }

 private:
  struct EntityState {
    /// One per factory, in registration order.
    std::vector<std::unique_ptr<detect::Detector>> detectors;
    std::size_t index = 0;  ///< alerts observed on this substream
    /// Most recent external source seen on this entity; used as the block
    /// target when the firing alert itself is host-local.
    std::optional<net::Ipv4> last_src;
    util::SimTime last_seen = 0;
  };

  EntityState& state_for(const DetectorFactories& factories, const std::string& key);

  util::SimTime idle_ttl_;
  std::unordered_map<std::string, EntityState> entities_;
  std::uint64_t evicted_ = 0;
};

template <typename Emit>
void EntityTable::observe(const DetectorFactories& factories, const alerts::Alert& alert,
                          Emit&& emit) {
  const std::string key = EntityRef::of(alert).key();
  EntityState& state = state_for(factories, key);
  const std::size_t index = state.index++;
  state.last_seen = alert.ts;
  if (alert.src) state.last_src = alert.src;
  for (std::size_t d = 0; d < state.detectors.size(); ++d) {
    auto detection = state.detectors[d]->observe(alert, index);
    if (!detection) continue;
    Notification note;
    note.ts = alert.ts;
    note.entity = key;
    note.detector = factories[d].first;
    note.reason = std::move(detection->reason);
    note.score = detection->score;
    // Host-local alerts carry no address; fall back to the entity's most
    // recent external peer (the attacker's entry address).
    note.source = alert.src ? alert.src : state.last_src;
    emit(std::move(note));
  }
}

class AlertPipeline final : public alerts::AlertSink {
 public:
  AlertPipeline(PipelineConfig config, bhr::BlackHoleRouter* router);

  /// Register a detector family; applied independently per entity.
  void add_detector(std::string name, DetectorFactory factory);

  using alerts::AlertSink::on_alert;
  void on_alert(const alerts::Alert& alert) override;

  [[nodiscard]] const std::vector<Notification>& notifications() const noexcept {
    return notifications_;
  }
  [[nodiscard]] std::uint64_t alerts_in() const noexcept { return alerts_in_; }
  [[nodiscard]] std::uint64_t alerts_after_filter() const noexcept { return alerts_kept_; }
  [[nodiscard]] std::size_t tracked_entities() const noexcept { return entities_.size(); }
  [[nodiscard]] std::uint64_t evicted_entities() const noexcept { return entities_.evicted(); }
  [[nodiscard]] const incidents::ScanFilter& filter() const noexcept { return filter_; }

 private:
  PipelineConfig config_;
  bhr::BlackHoleRouter* router_;
  incidents::ScanFilter filter_;
  DetectorFactories factories_;
  EntityTable entities_;
  std::vector<Notification> notifications_;
  std::uint64_t alerts_in_ = 0;
  std::uint64_t alerts_kept_ = 0;
};

}  // namespace at::testbed
