// DetectionDaemon lifecycle and typed alert-queue behavior: graceful drain
// emits lifecycle alerts and a verdict stream identical to the serial
// AlertPipeline oracle; a slow consumer produces producer-side rejection
// (bounded rings, edge-triggered overflow alerts) instead of unbounded
// queueing; category masks drain selectively while preserving order;
// eviction checkpoints complete in ordinal order; and idle workers parked on
// their wake epoch are woken by every submit and by stop(), never losing a
// wakeup (DaemonWake*, each under a watchdog so a lost wakeup fails instead
// of hanging). EntityCore* runs the per-entity behaviours (score floor,
// last-source fallback, idle eviction) through both front-ends; DaemonFault*
// pins what a throwing detector leaves behind. DaemonFrontier* pins the
// release frontier: a verdict is released as soon as every older op has
// finished, not held behind a busy shard's newer one.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
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

/// Fires on every critical alert; on the one alert of `held_host` at
/// `held_ts` it first raises `entered` and waits for `open`, holding its
/// shard's worker mid-op.
class GatedDetector final : public detect::Detector {
 public:
  GatedDetector(std::string held_host, util::SimTime held_ts, std::atomic<bool>* entered,
                const std::atomic<bool>* open)
      : held_host_(std::move(held_host)), held_ts_(held_ts), entered_(entered), open_(open) {}
  [[nodiscard]] std::string name() const override { return "gated"; }
  void reset() override {}
  std::optional<detect::Detection> observe(const alerts::Alert& alert,
                                           std::size_t index) override {
    if (alert.host == held_host_ && alert.ts == held_ts_) {
      entered_->store(true, std::memory_order_release);
      while (!open_->load(std::memory_order_acquire)) std::this_thread::yield();
    }
    if (!alert.critical()) return std::nullopt;
    return detect::Detection{index, alert.ts, 1.0, "critical #" + std::to_string(index)};
  }

 private:
  std::string held_host_;
  util::SimTime held_ts_;
  std::atomic<bool>* entered_;
  const std::atomic<bool>* open_;
};

std::vector<std::uint64_t> verdict_seqs(const std::vector<alerts::AlertQueue::Ptr>& alerts) {
  std::vector<std::uint64_t> seqs;
  for (const auto& alert : alerts) {
    seqs.push_back(static_cast<const alerts::VerdictAlert&>(*alert).seq);
  }
  return seqs;
}

/// Shard B finished seq 1, then took seq 3 and is held on it; shard A
/// finished seq 2. Everything of B below 3 is done, so seq 2's verdict
/// must release while B is still busy, and seq 3's only once B finishes.
TEST(DaemonFrontier, ReleasesPastABusyShard) {
  const Watchdog watchdog("DaemonFrontier.ReleasesPastABusyShard", kWatchdogLimit);
  constexpr std::size_t kShards = 2;
  const auto shard_of = [](const std::string& host) {
    return EntityRef::of(host, std::nullopt, "").hash() % kShards;
  };
  const std::string host_b = "pg-0";
  std::string host_a;
  for (int i = 1; host_a.empty(); ++i) {
    const std::string host = "pg-" + std::to_string(i);
    if (shard_of(host) != shard_of(host_b)) host_a = host;
  }

  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};
  DaemonConfig config;
  config.shards = kShards;
  DetectionDaemon daemon(config, nullptr);
  daemon.add_detector("gated", [&] {
    return std::make_unique<GatedDetector>(host_b, 3, &entered, &open);
  });
  // Execution-stage and later types: the scan filter keeps all three.
  ASSERT_EQ(daemon.submit(make_alert(1, alerts::AlertType::kNewBinaryExecuted, host_b)),
            SubmitResult::kAccepted);
  daemon.drain_idle();
  ASSERT_EQ(daemon.submit(make_alert(2, alerts::AlertType::kPrivilegeEscalation, host_a)),
            SubmitResult::kAccepted);
  ASSERT_EQ(daemon.submit(make_alert(3, alerts::AlertType::kPrivilegeEscalation, host_b)),
            SubmitResult::kAccepted);
  wait_until([&] { return entered.load(std::memory_order_acquire); });

  // Seq 2's verdict is released by the first pump after shard A finishes
  // it. Poll for a bounded time: a frontier that waits on shard B never
  // releases it while B is held, and the test must fail, not hang.
  std::vector<alerts::AlertQueue::Ptr> released;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (released.empty() && std::chrono::steady_clock::now() < deadline) {
    append(released, daemon.drain_alerts(alerts::DaemonAlert::kVerdict));
    if (released.empty()) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(verdict_seqs(released), std::vector<std::uint64_t>{2});
  EXPECT_EQ(daemon.stats().released_through, 2u);
  EXPECT_EQ(daemon.stats().routed_through, 3u);
  // Still held: seq 3 has not finished, so its verdict must not show.
  EXPECT_TRUE(daemon.drain_alerts(alerts::DaemonAlert::kVerdict).empty());

  open.store(true, std::memory_order_release);
  daemon.drain_idle();
  EXPECT_EQ(verdict_seqs(daemon.drain_alerts(alerts::DaemonAlert::kVerdict)),
            std::vector<std::uint64_t>{3});
  EXPECT_EQ(daemon.stats().released_through, 3u);
}

/// Submits and consumer pulls interleave at seeded points, so pumps run
/// while shards are idle, parked, just woken or mid-op; whatever the
/// frontier lets out early must still be the serial stream, in order.
TEST(DaemonFrontier, JitteredPumpsMatchOracle) {
  const Watchdog watchdog("DaemonFrontier.JitteredPumps", kWatchdogLimit);
  PipelineConfig pipeline;
  pipeline.entity_idle_ttl = 40;
  pipeline.eviction_check_every = 32;
  for (const std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    util::Rng rng(100 + shards);
    const auto timeline = random_timeline(rng, 1200);

    bhr::BlackHoleRouter serial_router;
    AlertPipeline serial(pipeline, &serial_router);
    add_detectors(serial);
    for (const auto& alert : timeline) serial.on_alert(alert);

    DaemonConfig config;
    config.pipeline = pipeline;
    config.shards = shards;
    config.ring_capacity = 32;
    bhr::BlackHoleRouter router;
    DetectionDaemon daemon(config, &router);
    add_detectors(daemon);
    std::vector<alerts::AlertQueue::Ptr> verdicts;
    for (const auto& alert : timeline) {
      ASSERT_NE(daemon.submit(alert), SubmitResult::kStopped);
      if (rng.bernoulli(0.5)) jitter(rng);
      if (rng.bernoulli(0.3)) {
        append(verdicts, daemon.drain_alerts(alerts::DaemonAlert::kVerdict));
      }
    }
    daemon.drain_idle();
    append(verdicts, daemon.drain_alerts(alerts::DaemonAlert::kVerdict));
    expect_serial_stream(verdicts, serial, router, serial_router);
    const auto stats = daemon.stats();
    EXPECT_EQ(stats.released_through, stats.routed_through);
    EXPECT_EQ(stats.routed_through, stats.kept);
  }
}

/// Fires on every critical alert with a fixed score.
class FixedScoreDetector final : public detect::Detector {
 public:
  explicit FixedScoreDetector(double score) : score_(score) {}
  [[nodiscard]] std::string name() const override { return "fixed-score"; }
  void reset() override {}
  std::optional<detect::Detection> observe(const alerts::Alert& alert,
                                           std::size_t index) override {
    if (!alert.critical()) return std::nullopt;
    return detect::Detection{index, alert.ts, score_, "critical #" + std::to_string(index)};
  }

 private:
  double score_;
};

/// Each scenario runs through the serial AlertPipeline, then through the
/// daemon at 1 and 3 shards: both front-ends own the same per-entity core,
/// so they must release the same verdicts and BHR audit trail and track and
/// evict the same entities. Scenario checks then read the serial side.
class EntityCore : public ::testing::Test {
 protected:
  void run(const std::vector<alerts::Alert>& timeline, const auto& add) {
    serial_ = std::make_unique<AlertPipeline>(config_, &serial_router_);
    add(*serial_);
    for (const auto& alert : timeline) serial_->on_alert(alert);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      DaemonConfig config;
      config.pipeline = config_;
      config.shards = shards;
      bhr::BlackHoleRouter router;
      DetectionDaemon daemon(config, &router);
      add(daemon);
      for (const auto& alert : timeline) {
        ASSERT_EQ(daemon.submit(alert), SubmitResult::kAccepted);
      }
      daemon.drain_idle();
      expect_serial_stream(daemon.drain_alerts(alerts::DaemonAlert::kVerdict), *serial_,
                           router, serial_router_);
      const auto stats = daemon.stats();
      EXPECT_EQ(stats.tracked_entities, serial_->tracked_entities());
      EXPECT_EQ(stats.evicted_entities, serial_->evicted_entities());
      auto& reasons = daemon_block_reasons_.emplace_back();
      for (const auto& alert : daemon.drain_alerts(alerts::DaemonAlert::kBhr)) {
        reasons.push_back(static_cast<const alerts::BhrActionAlert&>(*alert).reason);
      }
    }
  }

  /// Entities b (seen at 9) and a (seen at 10) fire, then go quiet until
  /// 110, when c's alert sweeps first: a has idled exactly 100, b 101.
  /// Then a and b raise a second critical alert, which re-fires only on a
  /// fresh (evicted and re-created) entity.
  void run_idle_scenario() {
    run({make_alert(9, alerts::AlertType::kPrivilegeEscalation, "pg-b"),
         make_alert(10, alerts::AlertType::kPrivilegeEscalation, "pg-a"),
         make_alert(110, alerts::AlertType::kNewBinaryExecuted, "pg-c"),
         make_alert(110, alerts::AlertType::kPrivilegeEscalation, "pg-a"),
         make_alert(110, alerts::AlertType::kPrivilegeEscalation, "pg-b")},
        [](auto& sink) {
          sink.add_detector("critical-alert",
                            [] { return std::make_unique<detect::CriticalAlertDetector>(); });
        });
  }

  PipelineConfig config_;
  bhr::BlackHoleRouter serial_router_;
  std::unique_ptr<AlertPipeline> serial_;
  /// Reasons of each daemon run's BHR actions, in release order.
  std::vector<std::vector<std::string>> daemon_block_reasons_;
};

TEST_F(EntityCore, EveryVerdictWithASourceBlocks) {
  const auto first = net::Ipv4::parse("203.0.113.7");
  const auto second = net::Ipv4::parse("198.51.100.9");
  run({make_alert(10, alerts::AlertType::kPrivilegeEscalation, "pg-1", first),
       make_alert(20, alerts::AlertType::kPrivilegeEscalation, "pg-1"),
       make_alert(30, alerts::AlertType::kDataExfiltrationBulk, "", second),
       make_alert(40, alerts::AlertType::kPrivilegeEscalation, "pg-2")},
      [](auto& sink) {
        sink.add_detector("zero", [] { return std::make_unique<FixedScoreDetector>(0.0); });
        sink.add_detector("low", [] { return std::make_unique<FixedScoreDetector>(0.4); });
        sink.add_detector("high", [] { return std::make_unique<FixedScoreDetector>(0.9); });
      });

  // Every family notifies on every alert. The host-local alert at 20 falls
  // back to pg-1's last source; pg-2 never saw one.
  const std::vector<std::string> families{"zero", "low", "high"};
  const std::vector<std::optional<net::Ipv4>> sources{first, first, second, std::nullopt};
  const auto& notes = serial_->notifications();
  ASSERT_EQ(notes.size(), 12u);
  for (std::size_t i = 0; i < notes.size(); ++i) {
    EXPECT_EQ(notes[i].detector, families[i % 3]);
    EXPECT_EQ(notes[i].source, sources[i / 3]);
  }
  EXPECT_EQ(notes[0].score, 0.0);

  // Each verdict with a source blocks it, whatever its score, in verdict
  // order and with reason "<detector>: <reason>"; pg-2's three do not.
  std::vector<std::string> reasons;
  for (std::size_t i = 0; i < 9; ++i) reasons.push_back(notes[i].detector + ": " + notes[i].reason);
  const auto audit = serial_router_.audit_log();
  ASSERT_EQ(audit.size(), 9u);
  for (std::size_t i = 0; i < audit.size(); ++i) {
    EXPECT_EQ(audit[i].method, "block");
    EXPECT_EQ(audit[i].source, *sources[i / 3]);
    EXPECT_EQ(audit[i].ts, notes[i].ts);
  }
  EXPECT_EQ(serial_router_.query(first, 20)->reason, reasons[5]);
  EXPECT_EQ(serial_router_.query(second, 30)->reason, reasons[8]);
  ASSERT_EQ(daemon_block_reasons_.size(), 2u);  // 1 and 3 shards
  for (const auto& daemon_reasons : daemon_block_reasons_) EXPECT_EQ(daemon_reasons, reasons);
}

TEST_F(EntityCore, HostLocalAlertBlocksEntitysLastExternalSource) {
  const auto probe = net::Ipv4::parse("203.0.113.7");
  const auto entry = net::Ipv4::parse("198.51.100.9");
  run({make_alert(10, alerts::AlertType::kLoginFailure, "pg-1", probe),
       make_alert(20, alerts::AlertType::kLoginFailure, "pg-1", entry),
       make_alert(30, alerts::AlertType::kPrivilegeEscalation, "pg-1"),
       make_alert(40, alerts::AlertType::kPrivilegeEscalation, "pg-2")},
      [](auto& sink) {
        sink.add_detector("critical-alert",
                          [] { return std::make_unique<detect::CriticalAlertDetector>(); });
      });

  const auto& notes = serial_->notifications();
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_EQ(notes[0].entity, "host:pg-1");
  EXPECT_EQ(notes[0].source, entry);  // the most recent external peer
  EXPECT_EQ(notes[1].entity, "host:pg-2");
  EXPECT_EQ(notes[1].source, std::nullopt);  // no peer ever seen: nothing to block
  const auto audit = serial_router_.audit_log();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0].method, "block");
  EXPECT_EQ(audit[0].source, entry);
  EXPECT_EQ(audit[0].ts, 30);
}

TEST_F(EntityCore, IdleExactlyTtlIsKeptOneMoreIsEvicted) {
  config_.entity_idle_ttl = 100;
  config_.eviction_check_every = 1;
  run_idle_scenario();

  EXPECT_EQ(serial_->evicted_entities(), 1u);  // b
  EXPECT_EQ(serial_->tracked_entities(), 3u);  // a, c and the new b
  const auto& notes = serial_->notifications();
  ASSERT_EQ(notes.size(), 3u);
  EXPECT_EQ(notes[2].entity, "host:pg-b");  // a kept its fired detector
  EXPECT_EQ(notes[2].ts, 110);
}

TEST_F(EntityCore, ZeroIdleTtlNeverEvicts) {
  config_.entity_idle_ttl = 0;
  config_.eviction_check_every = 1;
  run_idle_scenario();

  EXPECT_EQ(serial_->evicted_entities(), 0u);
  EXPECT_EQ(serial_->tracked_entities(), 3u);
  EXPECT_EQ(serial_->notifications().size(), 2u);  // neither a nor b re-fires
}

/// Never fires; throws on the one alert of `host` at `ts`.
class TripwireDetector final : public detect::Detector {
 public:
  TripwireDetector(std::string host, util::SimTime ts) : host_(std::move(host)), ts_(ts) {}
  [[nodiscard]] std::string name() const override { return "tripwire"; }
  void reset() override {}
  std::optional<detect::Detection> observe(const alerts::Alert& alert, std::size_t) override {
    if (alert.host == host_ && alert.ts == ts_) throw std::runtime_error("tripwire");
    return std::nullopt;
  }

 private:
  std::string host_;
  util::SimTime ts_;
};

/// One detector throws on one alert of one entity. The daemon reports it
/// once and keeps draining; nothing is rolled back for that entity (the
/// detector ahead of the thrower still pages, the alert's source still
/// becomes the entity's last source) and every other entity matches the
/// serial oracle.
TEST(DaemonFault, ThrowingDetectorReportsAndKeepsDraining) {
  const Watchdog watchdog("DaemonFault.ThrowingDetector", kWatchdogLimit);
  const std::string victim = "pg-victim";
  const auto probe = net::Ipv4::parse("198.51.100.66");
  const auto pivot = net::Ipv4::parse("198.51.100.77");
  constexpr util::SimTime kThrowTs = 405;
  auto timeline = mixed_timeline();
  // Critical alerts on the other entities: host-local ones page and block
  // through each host's last source, the bare-address one through its own.
  for (int k = 0; k < 7; ++k) {
    timeline.push_back(make_alert(500 + 20 * k, alerts::AlertType::kPrivilegeEscalation,
                                  "pg-" + std::to_string(k)));
  }
  timeline.push_back(make_alert(700, alerts::AlertType::kDataExfiltrationBulk, "",
                                net::Ipv4::parse("203.0.113.7")));
  timeline.push_back(make_alert(100, alerts::AlertType::kLoginFailure, victim, probe));
  timeline.push_back(make_alert(kThrowTs, alerts::AlertType::kPrivilegeEscalation, victim, pivot));
  timeline.push_back(make_alert(900, alerts::AlertType::kDataExfiltrationBulk, victim));
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const auto& a, const auto& b) { return a.ts < b.ts; });

  bhr::BlackHoleRouter serial_router;
  AlertPipeline serial(PipelineConfig{}, &serial_router);
  add_detectors(serial);
  for (const auto& alert : timeline) serial.on_alert(alert);
  const std::string victim_key = "host:" + victim;
  const auto is_victim_call = [&](const bhr::ApiCall& call) {
    return call.source == probe || call.source == pivot;
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    DaemonConfig config;
    config.shards = shards;
    bhr::BlackHoleRouter router;
    DetectionDaemon daemon(config, &router);
    daemon.add_detector("critical-alert",
                        [] { return std::make_unique<detect::CriticalAlertDetector>(); });
    daemon.add_detector("tripwire",
                        [&] { return std::make_unique<TripwireDetector>(victim, kThrowTs); });
    daemon.add_detector("threshold", [] {
      return std::make_unique<detect::ThresholdDetector>(alerts::Severity::kCritical);
    });
    for (const auto& alert : timeline) {
      ASSERT_NE(daemon.submit(alert), SubmitResult::kStopped);
    }
    daemon.drain_idle();
    const auto verdicts = daemon.drain_alerts(alerts::DaemonAlert::kVerdict);
    const auto errors = daemon.drain_alerts(alerts::DaemonAlert::kError);
    daemon.stop();
    EXPECT_FALSE(daemon.running());
    const auto lifecycle = daemon.drain_alerts(alerts::DaemonAlert::kLifecycle);
    ASSERT_FALSE(lifecycle.empty());
    EXPECT_EQ(static_cast<const alerts::LifecycleAlert&>(*lifecycle.back()).phase,
              alerts::LifecycleAlert::Phase::kStopped);

    ASSERT_EQ(errors.size(), 1u);
    const auto& error = static_cast<const alerts::WorkerErrorAlert&>(*errors.front());
    EXPECT_EQ(error.ts, kThrowTs);
    EXPECT_EQ(error.message, "tripwire");
    EXPECT_EQ(daemon.stats().kept, serial.alerts_after_filter());

    // Other entities: the serial oracle's verdicts, in order.
    std::vector<const alerts::VerdictAlert*> others;
    std::vector<const alerts::VerdictAlert*> hit;
    for (const auto& alert : verdicts) {
      const auto* verdict = static_cast<const alerts::VerdictAlert*>(alert.get());
      (verdict->entity == victim_key ? hit : others).push_back(verdict);
    }
    std::vector<Notification> expected;
    for (const auto& note : serial.notifications()) {
      if (note.entity != victim_key) expected.push_back(note);
    }
    ASSERT_EQ(others.size(), expected.size());
    EXPECT_GT(others.size(), 0u);
    for (std::size_t i = 0; i < others.size(); ++i) {
      SCOPED_TRACE("verdict " + std::to_string(i));
      EXPECT_EQ(others[i]->ts, expected[i].ts);
      EXPECT_EQ(others[i]->entity, expected[i].entity);
      EXPECT_EQ(others[i]->detector, expected[i].detector);
      EXPECT_EQ(others[i]->reason, expected[i].reason);
      EXPECT_EQ(others[i]->score, expected[i].score);
      EXPECT_EQ(others[i]->source, expected[i].source);
    }

    // The victim: critical-alert, ahead of the thrower, paged on the
    // throwing alert; threshold, behind it, never saw that alert and paged
    // on the next critical one, blaming the throwing alert's source.
    ASSERT_EQ(hit.size(), 2u);
    EXPECT_EQ(hit[0]->detector, "critical-alert");
    EXPECT_EQ(hit[0]->ts, kThrowTs);
    EXPECT_EQ(hit[0]->source, pivot);
    EXPECT_EQ(hit[1]->detector, "threshold");
    EXPECT_EQ(hit[1]->ts, 900);
    EXPECT_EQ(hit[1]->source, pivot);

    // BHR audit trail: the serial one once the victim's sources are set aside.
    auto audit = router.audit_log();
    auto serial_audit = serial_router.audit_log();
    std::erase_if(audit, is_victim_call);
    std::erase_if(serial_audit, is_victim_call);
    ASSERT_EQ(audit.size(), serial_audit.size());
    EXPECT_GT(audit.size(), 0u);
    for (std::size_t i = 0; i < audit.size(); ++i) {
      SCOPED_TRACE("api call " + std::to_string(i));
      EXPECT_EQ(audit[i].ts, serial_audit[i].ts);
      EXPECT_EQ(audit[i].method, serial_audit[i].method);
      EXPECT_EQ(audit[i].source, serial_audit[i].source);
      EXPECT_EQ(audit[i].client, serial_audit[i].client);
      EXPECT_EQ(audit[i].ok, serial_audit[i].ok);
    }
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
