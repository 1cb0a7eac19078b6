// DetectionDaemon lifecycle and typed alert-queue behavior: graceful drain
// emits lifecycle alerts and a verdict stream identical to the serial
// AlertPipeline oracle; a slow consumer produces producer-side rejection
// (bounded rings, edge-triggered overflow alerts) instead of unbounded
// queueing; category masks drain selectively while preserving order;
// eviction checkpoints complete in ordinal order; and idle workers parked on
// their wake epoch are woken by every submit and by stop(), never losing a
// wakeup (DaemonWake*, each under a watchdog so a lost wakeup fails instead
// of hanging).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alerts/queue.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "testbed/daemon.hpp"
#include "testbed/pipeline.hpp"
#include "util/rng.hpp"

namespace at::testbed {
namespace {

alerts::Alert make_alert(util::SimTime ts, alerts::AlertType type, std::string host,
                         std::optional<net::Ipv4> src = std::nullopt) {
  alerts::Alert alert;
  alert.ts = ts;
  alert.type = type;
  alert.host = std::move(host);
  alert.src = src;
  return alert;
}

/// A hand-rolled timeline with enough variety to exercise filtering,
/// multiple entities, multiple firing detectors, and a BHR block.
std::vector<alerts::Alert> mixed_timeline() {
  std::vector<alerts::Alert> alerts;
  const auto external = net::Ipv4::parse("203.0.113.7");
  const auto second = net::Ipv4::parse("198.51.100.9");
  for (int i = 0; i < 200; ++i) {
    const auto ts = static_cast<util::SimTime>(10 + i * 7);
    switch (i % 5) {
      case 0:
        alerts.push_back(make_alert(ts, alerts::AlertType::kLoginFailure, "pg-1", external));
        break;
      case 1:
        alerts.push_back(make_alert(ts, alerts::AlertType::kPortScan, "", external));
        break;
      case 2:
        alerts.push_back(make_alert(ts, alerts::AlertType::kNewBinaryExecuted, "pg-2"));
        break;
      case 3:
        alerts.push_back(
            make_alert(ts, alerts::AlertType::kRemoteCodeExec, "pg-" + std::to_string(i % 7), second));
        break;
      default:
        alerts.push_back(make_alert(ts, alerts::AlertType::kLoginSuccess, "pg-3"));
        break;
    }
  }
  return alerts;
}

void add_detectors(auto& sink) {
  sink.add_detector("critical-alert",
                    [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  sink.add_detector("threshold", [] {
    return std::make_unique<detect::ThresholdDetector>(alerts::Severity::kCritical);
  });
}

/// The daemon's released verdicts and BHR audit trail against the serial
/// pipeline's: same entries, same order, byte for byte.
void expect_serial_stream(const std::vector<alerts::AlertQueue::Ptr>& verdicts,
                          const AlertPipeline& serial, const bhr::BlackHoleRouter& router,
                          const bhr::BlackHoleRouter& serial_router) {
  const auto& expected = serial.notifications();
  ASSERT_EQ(verdicts.size(), expected.size());
  std::uint64_t last_seq = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    SCOPED_TRACE("verdict " + std::to_string(i));
    const auto& verdict = static_cast<const alerts::VerdictAlert&>(*verdicts[i]);
    EXPECT_EQ(verdict.category(), alerts::DaemonAlert::kVerdict);
    EXPECT_GE(verdict.seq, last_seq);  // seq order == serial emit order
    last_seq = verdict.seq;
    EXPECT_EQ(verdict.ts, expected[i].ts);
    EXPECT_EQ(verdict.entity, expected[i].entity);
    EXPECT_EQ(verdict.detector, expected[i].detector);
    EXPECT_EQ(verdict.reason, expected[i].reason);
    EXPECT_EQ(verdict.score, expected[i].score);
    EXPECT_EQ(verdict.source, expected[i].source);
  }

  // The BHR audit trail must be byte-identical too: same blocks, same
  // order, same reasons and client identity.
  const auto& audit = router.audit_log();
  const auto& serial_audit = serial_router.audit_log();
  ASSERT_EQ(audit.size(), serial_audit.size());
  for (std::size_t i = 0; i < audit.size(); ++i) {
    SCOPED_TRACE("api call " + std::to_string(i));
    EXPECT_EQ(audit[i].ts, serial_audit[i].ts);
    EXPECT_EQ(audit[i].method, serial_audit[i].method);
    EXPECT_EQ(audit[i].source, serial_audit[i].source);
    EXPECT_EQ(audit[i].client, serial_audit[i].client);
    EXPECT_EQ(audit[i].ok, serial_audit[i].ok);
  }
}

TEST(DaemonOracle, DrainedVerdictStreamMatchesSerialPipeline) {
  const auto timeline = mixed_timeline();

  bhr::BlackHoleRouter serial_router;
  AlertPipeline serial(PipelineConfig{}, &serial_router);
  add_detectors(serial);
  for (const auto& alert : timeline) serial.on_alert(alert);

  DaemonConfig config;
  config.shards = 4;
  config.ring_capacity = 16;  // small rings force real backpressure cycling
  bhr::BlackHoleRouter router;
  DetectionDaemon daemon(config, &router);
  add_detectors(daemon);
  for (const auto& alert : timeline) {
    const SubmitResult result = daemon.submit(alert);
    EXPECT_NE(result, SubmitResult::kRejected);  // blocking submit retries
    EXPECT_NE(result, SubmitResult::kStopped);
  }
  daemon.drain_idle();

  expect_serial_stream(daemon.drain_alerts(alerts::DaemonAlert::kVerdict), serial,
                       router, serial_router);

  // One BhrActionAlert per block call, all marked accepted/refused as the
  // router reported.
  const auto actions = daemon.drain_alerts(alerts::DaemonAlert::kBhr);
  EXPECT_EQ(actions.size(), router.audit_log().size());

  const auto& expected = serial.notifications();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.submitted, serial.alerts_in());
  EXPECT_EQ(stats.kept, serial.alerts_after_filter());
  EXPECT_EQ(stats.filtered, serial.alerts_in() - serial.alerts_after_filter());
  EXPECT_EQ(stats.verdicts, expected.size());
  EXPECT_EQ(stats.tracked_entities, serial.tracked_entities());
  EXPECT_LE(stats.max_ring_depth, stats.ring_capacity);
}

TEST(DaemonLifecycle, StartDrainStopAlertSequence) {
  DaemonConfig config;
  config.shards = 2;
  bhr::BlackHoleRouter router;
  DetectionDaemon daemon(config, &router);
  add_detectors(daemon);

  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(daemon.try_submit(make_alert(5, alerts::AlertType::kLoginFailure, "pg-1")),
            SubmitResult::kAccepted);
  EXPECT_TRUE(daemon.running());
  daemon.drain_idle();
  daemon.stop();
  EXPECT_FALSE(daemon.running());

  // Stopped daemons refuse instead of queueing.
  EXPECT_EQ(daemon.try_submit(make_alert(6, alerts::AlertType::kLoginFailure, "pg-1")),
            SubmitResult::kStopped);

  const auto snapshots = daemon.drain_alerts(alerts::DaemonAlert::kStats);
  ASSERT_EQ(snapshots.size(), 1u);
  const auto& snapshot = static_cast<const alerts::StatsAlert&>(*snapshots.front());
  EXPECT_EQ(snapshot.stats.submitted, 1u);
  EXPECT_EQ(snapshot.stats.kept, 1u);

  const auto lifecycle = daemon.drain_alerts(alerts::DaemonAlert::kLifecycle);
  ASSERT_EQ(lifecycle.size(), 3u);
  const auto phase = [&](std::size_t i) {
    return static_cast<const alerts::LifecycleAlert&>(*lifecycle[i]).phase;
  };
  EXPECT_EQ(phase(0), alerts::LifecycleAlert::Phase::kStarted);
  EXPECT_EQ(phase(1), alerts::LifecycleAlert::Phase::kDrained);
  EXPECT_EQ(phase(2), alerts::LifecycleAlert::Phase::kStopped);

  // Idempotent: a second stop posts nothing new.
  daemon.stop();
  EXPECT_TRUE(daemon.drain_alerts(alerts::DaemonAlert::kLifecycle).empty());
}

/// Blocks every observe() until released: a stand-in for a consumer that
/// cannot keep up with the producers.
class GateDetector final : public detect::Detector {
 public:
  explicit GateDetector(std::atomic<bool>& open) : open_(&open) {}
  [[nodiscard]] std::string name() const override { return "gate"; }
  void reset() override {}
  std::optional<detect::Detection> observe(const alerts::Alert&, std::size_t) override {
    while (!open_->load(std::memory_order_acquire)) std::this_thread::yield();
    return std::nullopt;
  }

 private:
  std::atomic<bool>* open_;
};

TEST(DaemonBackpressure, SlowConsumerBoundsMemoryAndRejectsAtEdge) {
  std::atomic<bool> gate{false};
  DaemonConfig config;
  config.shards = 1;
  config.ring_capacity = 8;
  config.pipeline.entity_idle_ttl = 0;  // no checkpoints in this test
  DetectionDaemon daemon(config, nullptr);
  daemon.add_detector("gate", [&gate] { return std::make_unique<GateDetector>(gate); });

  // With the worker wedged on the first alert, the 8-slot ring must refuse
  // within a handful of submits — never queue unboundedly.
  std::optional<alerts::Alert> rejected;
  int accepted = 0;
  for (int i = 0; i < 64 && !rejected; ++i) {
    auto alert = make_alert(100 + i, alerts::AlertType::kNewBinaryExecuted, "pg-1");
    const SubmitResult result = daemon.try_submit(std::move(alert));
    if (result == SubmitResult::kRejected) {
      rejected = std::move(alert);  // moved back by the rvalue overload
    } else {
      ASSERT_EQ(result, SubmitResult::kAccepted);
      ++accepted;
    }
  }
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->type, alerts::AlertType::kNewBinaryExecuted);
  EXPECT_LE(accepted, 8);

  const auto warnings = daemon.drain_alerts(alerts::DaemonAlert::kError);
  ASSERT_EQ(warnings.size(), 1u);  // edge-triggered: one per episode
  const auto& overflow = static_cast<const alerts::RingOverflowAlert&>(*warnings.front());
  EXPECT_EQ(overflow.shard, 0u);
  EXPECT_GE(overflow.rejected_total, 1u);

  {
    const auto stats = daemon.stats();
    EXPECT_GE(stats.rejected, 1u);
    EXPECT_LE(stats.max_ring_depth, 8u);
    EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(accepted));
  }

  // Release the consumer: the rejected alert (untouched by the refusal)
  // goes through on a blocking retry and everything drains.
  gate.store(true, std::memory_order_release);
  EXPECT_EQ(daemon.submit(std::move(*rejected)), SubmitResult::kAccepted);
  daemon.drain_idle();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(accepted) + 1);
  EXPECT_EQ(stats.kept, stats.submitted);
}

TEST(DaemonCheckpoints, CompleteInOrdinalOrderAndEvict) {
  DaemonConfig config;
  config.shards = 4;
  config.pipeline.entity_idle_ttl = 50;
  config.pipeline.eviction_check_every = 8;
  DetectionDaemon daemon(config, nullptr);
  add_detectors(daemon);

  // 32 kept alerts, each on its own entity, timestamps far enough apart
  // that earlier entities idle out: 32/8 = 4 checkpoints.
  for (int i = 0; i < 32; ++i) {
    const auto alert = make_alert(i * 20, alerts::AlertType::kLoginFailure,
                                  "host-" + std::to_string(i));
    ASSERT_EQ(daemon.submit(alert), SubmitResult::kAccepted);
  }
  daemon.drain_idle();

  const auto progress = daemon.drain_alerts(alerts::DaemonAlert::kProgress);
  ASSERT_EQ(progress.size(), 4u);
  for (std::size_t i = 0; i < progress.size(); ++i) {
    const auto& checkpoint = static_cast<const alerts::CheckpointAlert&>(*progress[i]);
    EXPECT_EQ(checkpoint.ordinal, i + 1);
  }

  const auto stats = daemon.stats();
  EXPECT_EQ(stats.checkpoints, 4u);
  EXPECT_GT(stats.evicted_entities, 0u);
  EXPECT_EQ(stats.tracked_entities + stats.evicted_entities, 32u);
}

TEST(DaemonSubmit, PeriodicScanRepeatsAreFiltered) {
  DaemonConfig config;
  config.shards = 2;
  DetectionDaemon daemon(config, nullptr);
  const auto scanner = net::Ipv4::parse("203.0.113.50");
  EXPECT_EQ(daemon.try_submit(make_alert(10, alerts::AlertType::kPortScan, "", scanner)),
            SubmitResult::kAccepted);
  EXPECT_EQ(daemon.try_submit(make_alert(20, alerts::AlertType::kPortScan, "", scanner)),
            SubmitResult::kFiltered);
  daemon.drain_idle();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_EQ(stats.filtered, 1u);
}

/// Aborts the test binary if the guarded scope outlives `limit`: a lost
/// wakeup would otherwise block drain_idle() or stop() forever and hang the
/// whole run instead of failing one test.
class Watchdog {
 public:
  Watchdog(const char* what, std::chrono::seconds limit)
      : thread_([this, what, limit] {
          const auto deadline = std::chrono::steady_clock::now() + limit;
          while (!done_.load(std::memory_order_acquire)) {
            if (std::chrono::steady_clock::now() > deadline) {
              std::fprintf(stderr, "watchdog: %s still running after %llds (lost wakeup?)\n",
                           what, static_cast<long long>(limit.count()));
              std::abort();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~Watchdog() {
    done_.store(true, std::memory_order_release);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;  ///< declared last: starts once done_ exists
};

/// Generous enough for a sanitizer build on a loaded runner; a healthy run
/// of any DaemonWake test takes well under a second.
constexpr std::chrono::seconds kWatchdogLimit{60};

/// Poll until `done()`; the enclosing test's watchdog bounds the wait.
template <typename Pred>
void wait_until(Pred done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::microseconds(200));
}

void append(std::vector<alerts::AlertQueue::Ptr>& into,
            std::vector<alerts::AlertQueue::Ptr> batch) {
  for (auto& alert : batch) into.push_back(std::move(alert));
}

/// Every alert reaches a shard whose worker has parked, so each needs a
/// wakeup; a lost one hangs drain_idle() and trips the watchdog. With
/// checkpoints off nothing else moves a wake epoch, so the park and wake
/// counters are exact.
TEST(DaemonWake, TrickleToParkedWorkersMatchesSerialPipeline) {
  const Watchdog watchdog("DaemonWake.TrickleToParkedWorkers", kWatchdogLimit);
  PipelineConfig pipeline;
  pipeline.entity_idle_ttl = 0;
  const auto external = net::Ipv4::parse("203.0.113.7");
  std::vector<alerts::Alert> trickle;
  for (int i = 0; i < 200; ++i) {
    // Execution-stage and later types: the scan filter keeps every one.
    static constexpr alerts::AlertType kTypes[] = {
        alerts::AlertType::kNewBinaryExecuted, alerts::AlertType::kCompileSource,
        alerts::AlertType::kRootBackdoorInstalled, alerts::AlertType::kLogTampering};
    const auto type = kTypes[i % 4];
    const bool sourced = i % 2 == 0;
    trickle.push_back(make_alert(10 + i * 7, type, "pg-" + std::to_string(i % 13),
                                 sourced ? std::optional(external) : std::nullopt));
  }

  bhr::BlackHoleRouter serial_router;
  AlertPipeline serial(pipeline, &serial_router);
  add_detectors(serial);
  for (const auto& alert : trickle) serial.on_alert(alert);

  DaemonConfig config;
  config.pipeline = pipeline;
  config.shards = 3;
  bhr::BlackHoleRouter router;
  DetectionDaemon daemon(config, &router);
  add_detectors(daemon);
  daemon.start();
  wait_until([&] { return daemon.stats().worker_parks == config.shards; });

  std::vector<alerts::AlertQueue::Ptr> verdicts;
  for (const auto& alert : trickle) {
    const std::uint64_t parks = daemon.stats().worker_parks;
    ASSERT_EQ(daemon.try_submit(alert), SubmitResult::kAccepted);
    daemon.drain_idle();
    append(verdicts, daemon.drain_alerts(alerts::DaemonAlert::kVerdict));
    // The woken worker parks again; the other shards never woke.
    wait_until([&] { return daemon.stats().worker_parks > parks; });
  }
  expect_serial_stream(verdicts, serial, router, serial_router);

  const auto stats = daemon.stats();
  EXPECT_EQ(stats.worker_wakeups, trickle.size());
  EXPECT_EQ(stats.worker_parks, config.shards + trickle.size());
}

TEST(DaemonWake, StopWhileParkedJoinsPromptly) {
  const Watchdog watchdog("DaemonWake.StopWhileParked", kWatchdogLimit);
  DaemonConfig config;
  config.shards = 3;
  DetectionDaemon daemon(config, nullptr);
  add_detectors(daemon);
  daemon.start();
  wait_until([&] { return daemon.stats().worker_parks == config.shards; });
  ASSERT_EQ(daemon.try_submit(make_alert(5, alerts::AlertType::kLoginFailure, "pg-1")),
            SubmitResult::kAccepted);
  daemon.drain_idle();
  wait_until([&] { return daemon.stats().worker_parks == config.shards + 1; });

  // Every worker is blocked on its wake epoch; only stop()'s broadcast can
  // release them for the join.
  const auto begin = std::chrono::steady_clock::now();
  daemon.stop();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_FALSE(daemon.running());
  EXPECT_LT(elapsed, std::chrono::seconds(2));

  const auto snapshots = daemon.drain_alerts(alerts::DaemonAlert::kStats);
  ASSERT_EQ(snapshots.size(), 1u);
  const auto& snapshot = static_cast<const alerts::StatsAlert&>(*snapshots.front());
  EXPECT_EQ(snapshot.stats.worker_wakeups, 1u);  // stop()'s wakes are not counted
  EXPECT_EQ(snapshot.stats.worker_parks, config.shards + 1);
}

/// Seeded pause between two submits: none, a few yields, a busy-wait or a
/// sleep, so submits land at every point of a worker's idle cycle.
void jitter(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.4) return;
  if (roll < 0.6) {
    for (auto n = rng.uniform_int(1, 20); n > 0; --n) std::this_thread::yield();
  } else if (roll < 0.9) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(rng.uniform_int(1, 60));
    while (std::chrono::steady_clock::now() < until) {
    }
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform_int(50, 400)));
  }
}

std::vector<alerts::Alert> random_timeline(util::Rng& rng, std::size_t n) {
  static constexpr alerts::AlertType kTypes[] = {
      alerts::AlertType::kLoginFailure, alerts::AlertType::kPortScan,
      alerts::AlertType::kNewBinaryExecuted, alerts::AlertType::kRemoteCodeExec,
      alerts::AlertType::kLoginSuccess};
  const net::Ipv4 sources[] = {net::Ipv4::parse("203.0.113.7"),
                               net::Ipv4::parse("198.51.100.9"),
                               net::Ipv4::parse("192.0.2.44")};
  std::vector<alerts::Alert> timeline;
  util::SimTime ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.uniform_int(1, 12);
    const auto type = kTypes[rng.uniform_int(0, 4)];
    const auto src = sources[rng.uniform_int(0, 2)];
    if (rng.bernoulli(0.2)) {
      timeline.push_back(make_alert(ts, type, "", src));
    } else {
      timeline.push_back(make_alert(ts, type, "pg-" + std::to_string(rng.uniform_int(0, 29)),
                                    rng.bernoulli(0.5) ? std::optional(src) : std::nullopt));
    }
  }
  return timeline;
}

/// Small rings and frequent checkpoint broadcasts add the full-ring spin and
/// the checkpoint wakes to the race.
TEST(DaemonWake, JitteredSubmitsRaceTheParkPointAndMatchOracle) {
  const Watchdog watchdog("DaemonWake.JitteredSubmits", kWatchdogLimit);
  PipelineConfig pipeline;
  pipeline.entity_idle_ttl = 40;
  pipeline.eviction_check_every = 16;
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto timeline = random_timeline(rng, 1500);

    bhr::BlackHoleRouter serial_router;
    AlertPipeline serial(pipeline, &serial_router);
    add_detectors(serial);
    for (const auto& alert : timeline) serial.on_alert(alert);

    DaemonConfig config;
    config.pipeline = pipeline;
    config.shards = 3;
    config.ring_capacity = 16;
    bhr::BlackHoleRouter router;
    DetectionDaemon daemon(config, &router);
    add_detectors(daemon);
    std::vector<alerts::AlertQueue::Ptr> verdicts;
    for (const auto& alert : timeline) {
      ASSERT_NE(daemon.submit(alert), SubmitResult::kStopped);
      jitter(rng);
      if (rng.bernoulli(0.05)) {
        append(verdicts, daemon.drain_alerts(alerts::DaemonAlert::kVerdict));
      }
    }
    daemon.drain_idle();
    append(verdicts, daemon.drain_alerts(alerts::DaemonAlert::kVerdict));
    expect_serial_stream(verdicts, serial, router, serial_router);
    EXPECT_GT(daemon.stats().worker_wakeups, 0u);
  }
}

TEST(AlertQueueMask, SelectiveDrainPreservesResidualOrder) {
  alerts::AlertQueue queue;
  const auto post = [&queue](auto alert, util::SimTime ts) {
    alert->ts = ts;
    queue.post(std::move(alert));
  };
  post(std::make_unique<alerts::VerdictAlert>(), 1);
  post(std::make_unique<alerts::WorkerErrorAlert>(), 2);
  post(std::make_unique<alerts::CheckpointAlert>(), 3);
  post(std::make_unique<alerts::VerdictAlert>(), 4);
  post(std::make_unique<alerts::LifecycleAlert>(), 5);
  EXPECT_EQ(queue.posted(), 5u);
  EXPECT_EQ(queue.pending(), 5u);

  const auto picked =
      queue.drain(alerts::DaemonAlert::kVerdict | alerts::DaemonAlert::kProgress);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0]->ts, 1);
  EXPECT_EQ(picked[1]->ts, 3);
  EXPECT_EQ(picked[2]->ts, 4);

  // Non-matching alerts stayed queued, still in post order.
  EXPECT_EQ(queue.pending(), 2u);
  const auto rest = queue.drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0]->ts, 2);
  EXPECT_EQ(rest[1]->ts, 5);
  EXPECT_EQ(rest[0]->category(), alerts::DaemonAlert::kError);
  EXPECT_EQ(rest[1]->category(), alerts::DaemonAlert::kLifecycle);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(queue.posted(), 5u);
}

}  // namespace
}  // namespace at::testbed
