#pragma once
// Typed alert-queue API for the always-on detection daemon (the operator
// handoff of docs/daemon.md). Everything the daemon wants an operator to
// see — detector verdicts, BHR block/unblock actions, eviction-checkpoint
// completions, ring-overflow warnings, lifecycle transitions, stats
// snapshots — is posted as a category-flagged subclass of DaemonAlert and
// pulled by the consumer via AlertQueue::drain(category_mask). The shape
// follows tide's alert hierarchy: a virtual category() bitflag per final
// subclass so consumers can mask-select kinds without RTTI, plus a str()
// render for consoles and logs.
//
// Naming: `alerts::Alert` is the raw monitor record (one sanitized log
// line); a DaemonAlert is a *result* flowing the other way. Distinct types
// on purpose — the daemon consumes Alerts and produces DaemonAlerts.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "util/annotated_mutex.hpp"
#include "util/table.hpp"
#include "util/time_utils.hpp"

namespace at::alerts {

/// Live counter snapshot of a DetectionDaemon. Value semantics, named
/// fields, to_table() — the snapshot convention shared with
/// sim::Engine::Stats and testbed::Testbed::Stats.
struct DaemonStats {
  std::uint64_t submitted = 0;   ///< alerts accepted into the pipeline
  std::uint64_t kept = 0;        ///< survived the periodic-scan filter
  std::uint64_t filtered = 0;    ///< dropped by the filter (submitted - kept)
  std::uint64_t rejected = 0;    ///< try_submit refusals (ring full / stopped)
  std::uint64_t verdicts = 0;    ///< VerdictAlerts released in seq order
  std::uint64_t bhr_actions = 0; ///< BHR block calls issued from verdicts
  std::uint64_t checkpoints = 0; ///< eviction checkpoints broadcast
  std::uint64_t evicted_entities = 0;
  std::uint64_t tracked_entities = 0;
  std::uint64_t shards = 0;
  std::uint64_t ring_capacity = 0;   ///< per-shard ingest ring slots
  std::uint64_t max_ring_depth = 0;  ///< high-water mark across shards
  std::uint64_t worker_parks = 0;    ///< idle workers blocking on their wake epoch
  std::uint64_t worker_wakeups = 0;  ///< parked workers woken by a submit
  std::uint64_t routed_through = 0;  ///< highest seq routed to a shard
  /// Every verdict of a seq at or below it has been released (the release
  /// frontier of the last pump); routed_through minus this is how far
  /// release is behind routing.
  std::uint64_t released_through = 0;
  std::uint64_t queue_pending = 0;   ///< DaemonAlerts awaiting drain
  std::uint64_t queue_posted = 0;    ///< DaemonAlerts posted, lifetime

  [[nodiscard]] util::TextTable to_table() const;
};

/// Base of the typed result hierarchy. Subclasses are final and carry the
/// payload; category() returns exactly one Category bit.
struct DaemonAlert {
  /// Bitmask values for AlertQueue::drain(category_mask).
  enum Category : std::uint32_t {
    kError = 1,      ///< ring overflow, worker exception
    kVerdict = 2,    ///< a detector fired on an entity substream
    kBhr = 4,        ///< a block/unblock was issued to the BHR
    kProgress = 8,   ///< eviction checkpoint applied by every shard
    kStats = 16,     ///< periodic / shutdown counter snapshot
    kLifecycle = 32, ///< started / drained / stopped transitions
  };
  static constexpr std::uint32_t kAllCategories =
      kError | kVerdict | kBhr | kProgress | kStats | kLifecycle;

  util::SimTime ts = 0;  ///< sim time of the event that produced this

  DaemonAlert() = default;
  explicit DaemonAlert(util::SimTime when) : ts(when) {}
  virtual ~DaemonAlert();

  [[nodiscard]] virtual int category() const noexcept = 0;
  /// One-line operator rendering, e.g. "verdict seq=42 entity=ip:... ...".
  [[nodiscard]] virtual std::string str() const = 0;
};

[[nodiscard]] const char* category_name(std::uint32_t category) noexcept;

/// A shard worker raised an exception while processing an alert. The entry
/// is counted as finished so the daemon still drains. Nothing is rolled
/// back: the detectors ahead of the thrower observed the alert and their
/// verdicts still release; the thrower and those after it never see it.
struct WorkerErrorAlert final : DaemonAlert {
  std::uint64_t shard = 0;
  std::string message;

  [[nodiscard]] int category() const noexcept override { return kError; }
  [[nodiscard]] std::string str() const override;
};

/// try_submit() hit a full ingest ring. Edge-triggered: one alert per
/// overflow episode per shard, carrying the running rejection total, so a
/// sustained stall does not itself flood the queue.
struct RingOverflowAlert final : DaemonAlert {
  std::uint64_t shard = 0;
  std::uint64_t rejected_total = 0;  ///< daemon-lifetime rejections so far

  [[nodiscard]] int category() const noexcept override { return kError; }
  [[nodiscard]] std::string str() const override;
};

/// A detector fired. Fields mirror testbed::Notification; seq is the
/// global kept-alert ordinal (release order == serial pipeline order).
struct VerdictAlert final : DaemonAlert {
  std::uint64_t seq = 0;
  std::string entity;
  std::string detector;
  std::string reason;
  double score = 0.0;
  std::optional<net::Ipv4> source;

  [[nodiscard]] int category() const noexcept override { return kVerdict; }
  [[nodiscard]] std::string str() const override;
};

/// The daemon called the Black Hole Router on a verdict.
struct BhrActionAlert final : DaemonAlert {
  enum class Action : std::uint8_t { kBlock, kUnblock };
  Action action = Action::kBlock;
  net::Ipv4 source;
  util::SimTime ttl = 0;
  std::string reason;
  bool accepted = false;  ///< false e.g. for addresses in the protected block

  [[nodiscard]] int category() const noexcept override { return kBhr; }
  [[nodiscard]] std::string str() const override;
};

/// Every shard finished applying eviction checkpoint `ordinal` (1-based).
struct CheckpointAlert final : DaemonAlert {
  std::uint64_t ordinal = 0;

  [[nodiscard]] int category() const noexcept override { return kProgress; }
  [[nodiscard]] std::string str() const override;
};

/// Counter snapshot, posted on stop() and on request.
struct StatsAlert final : DaemonAlert {
  DaemonStats stats;

  [[nodiscard]] int category() const noexcept override { return kStats; }
  [[nodiscard]] std::string str() const override;
};

/// Daemon lifecycle transitions.
struct LifecycleAlert final : DaemonAlert {
  enum class Phase : std::uint8_t { kStarted, kDrained, kStopped };
  Phase phase = Phase::kStarted;

  [[nodiscard]] int category() const noexcept override { return kLifecycle; }
  [[nodiscard]] std::string str() const override;
};

[[nodiscard]] const char* to_string(LifecycleAlert::Phase phase) noexcept;

/// Consumer-facing queue of DaemonAlerts. Internally synchronized: any
/// thread may post, any thread may drain. drain(mask) removes and returns
/// only matching alerts, preserving post order; non-matching alerts stay
/// queued (still in order) for a later drain with a wider mask. Unbounded
/// by design — boundedness comes from the producer side (the daemon's
/// ingest rings reject when full), and the consumer controls growth by
/// draining; pending() is the gauge.
class AlertQueue {
 public:
  using Ptr = std::unique_ptr<DaemonAlert>;

  void post(Ptr alert) {
    util::LockGuard lock(queue_mu_);
    queue_.push_back(std::move(alert));
    ++posted_;
  }

  /// Remove and return queued alerts whose category is in `mask`, oldest
  /// first. Alerts outside the mask remain queued in their original order.
  [[nodiscard]] std::vector<Ptr> drain(
      std::uint32_t category_mask = DaemonAlert::kAllCategories);

  [[nodiscard]] std::size_t pending() const {
    util::LockGuard lock(queue_mu_);
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t posted() const {
    util::LockGuard lock(queue_mu_);
    return posted_;
  }

 private:
  // Named distinctly from its owners' locks: this mutex is a leaf (nothing
  // is called while it is held), and a unique name keeps whole-program
  // lock-order analysis from aliasing it with a caller's mu_.
  mutable util::Mutex queue_mu_;
  std::vector<Ptr> queue_ AT_GUARDED_BY(queue_mu_);
  std::uint64_t posted_ AT_GUARDED_BY(queue_mu_) = 0;
};

}  // namespace at::alerts
