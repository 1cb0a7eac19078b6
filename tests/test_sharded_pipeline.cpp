// Sharded determinism: DetectionDaemon at any shard count must reproduce
// the serial AlertPipeline exactly — verdicts, BHR audit trail, and
// counters — on a realistic day of noise + incidents. Plus the batch-parse
// property: parse_notice_batch agrees with parse_notice_line on every line,
// including malformed, comment, and blank ones.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "alerts/queue.hpp"
#include "alerts/zeeklog.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "incidents/noise.hpp"
#include "testbed/daemon.hpp"

namespace at::testbed {
namespace {

/// Seeded ~100k-alert day: background noise with incident timelines folded
/// in, the same shape bench_daemon uses.
const std::vector<alerts::Alert>& corpus_100k() {
  static const std::vector<alerts::Alert> stream = [] {
    incidents::DailyNoiseModel noise;
    const auto month = noise.sample_month(0, 1);
    auto alerts = noise.materialize_day(month[0], 100'000);
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    config.seed = 11;
    const auto corpus = incidents::CorpusGenerator(config).generate();
    for (const auto& incident : corpus.incidents) {
      for (const auto& entry : incident.timeline) {
        auto alert = entry.alert;
        alert.ts = ((alert.ts % util::kDay) + util::kDay) % util::kDay;
        alerts.push_back(std::move(alert));
      }
    }
    sort_timeline(alerts);
    return alerts;
  }();
  return stream;
}

const fg::ModelParams& trained_params() {
  static const fg::ModelParams params = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    config.seed = 7;
    return fg::learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return params;
}

void add_detectors(auto& pipeline) {
  pipeline.add_detector("critical-alert",
                        [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  auto compiled = fg::compile_params(trained_params());
  pipeline.add_detector("factor-graph", [compiled = std::move(compiled)] {
    return std::make_unique<detect::FactorGraphDetector>(compiled, 0.75);
  });
}

struct SerialRun {
  std::vector<Notification> notifications;
  std::vector<bhr::ApiCall> audit;
  std::uint64_t alerts_in = 0;
  std::uint64_t kept = 0;
  std::size_t tracked = 0;
  std::uint64_t evicted = 0;
};

const SerialRun& serial_run() {
  static const SerialRun run = [] {
    bhr::BlackHoleRouter router;
    AlertPipeline pipeline(PipelineConfig{}, &router);
    add_detectors(pipeline);
    for (const auto& alert : corpus_100k()) pipeline.on_alert(alert);
    SerialRun result;
    result.notifications = pipeline.notifications();
    result.audit = router.audit_log();
    result.alerts_in = pipeline.alerts_in();
    result.kept = pipeline.alerts_after_filter();
    result.tracked = pipeline.tracked_entities();
    result.evicted = pipeline.evicted_entities();
    return result;
  }();
  return run;
}

/// Drains the idle daemon's verdicts and checks them, its counters and the
/// router's audit trail against the serial run.
void expect_matches_serial(DetectionDaemon& daemon, const bhr::BlackHoleRouter& router) {
  const SerialRun& serial = serial_run();
  const auto stats = daemon.stats();
  EXPECT_EQ(stats.submitted, serial.alerts_in);
  EXPECT_EQ(stats.kept, serial.kept);
  EXPECT_EQ(stats.tracked_entities, serial.tracked);
  EXPECT_EQ(stats.evicted_entities, serial.evicted);

  const auto verdicts = daemon.drain_alerts(alerts::DaemonAlert::kVerdict);
  ASSERT_EQ(verdicts.size(), serial.notifications.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    SCOPED_TRACE("notification " + std::to_string(i));
    const auto& verdict = static_cast<const alerts::VerdictAlert&>(*verdicts[i]);
    EXPECT_EQ(verdict.ts, serial.notifications[i].ts);
    EXPECT_EQ(verdict.entity, serial.notifications[i].entity);
    EXPECT_EQ(verdict.detector, serial.notifications[i].detector);
    EXPECT_EQ(verdict.reason, serial.notifications[i].reason);
    EXPECT_EQ(verdict.score, serial.notifications[i].score);
    EXPECT_EQ(verdict.source, serial.notifications[i].source);
  }

  const auto& audit = router.audit_log();
  ASSERT_EQ(audit.size(), serial.audit.size());
  for (std::size_t i = 0; i < audit.size(); ++i) {
    SCOPED_TRACE("api call " + std::to_string(i));
    EXPECT_EQ(audit[i].ts, serial.audit[i].ts);
    EXPECT_EQ(audit[i].method, serial.audit[i].method);
    EXPECT_EQ(audit[i].source, serial.audit[i].source);
    EXPECT_EQ(audit[i].client, serial.audit[i].client);
    EXPECT_EQ(audit[i].ok, serial.audit[i].ok);
  }
}

DaemonConfig config_with_shards(std::size_t shards) {
  DaemonConfig config;
  config.shards = shards;
  return config;
}

class ShardedDeterminismTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedDeterminismTest, SpanIngestMatchesSerial) {
  bhr::BlackHoleRouter router;
  DetectionDaemon daemon(config_with_shards(GetParam()), &router);
  add_detectors(daemon);
  for (const auto& alert : corpus_100k()) daemon.submit(alert);
  daemon.drain_idle();
  EXPECT_EQ(daemon.shard_count(), GetParam());
  expect_matches_serial(daemon, router);
}

TEST_P(ShardedDeterminismTest, BatchIngestMatchesSerial) {
  const auto batch = alerts::parse_notice_batch(alerts::write_notice_log(corpus_100k()));
  ASSERT_EQ(batch.size(), corpus_100k().size());
  bhr::BlackHoleRouter router;
  DetectionDaemon daemon(config_with_shards(GetParam()), &router);
  add_detectors(daemon);
  for (std::size_t row = 0; row < batch.size(); ++row) daemon.submit(batch, row);
  // Zero-copy rows must not outlive the batch: drain before it goes away.
  daemon.drain_idle();
  expect_matches_serial(daemon, router);
}

TEST_P(ShardedDeterminismTest, StreamingSinkMatchesSerial) {
  auto config = config_with_shards(GetParam());
  config.ring_capacity = 1000;  // small rings: exercise the full-ring backpressure path
  bhr::BlackHoleRouter router;
  DetectionDaemon daemon(config, &router);
  add_detectors(daemon);
  for (const auto& alert : corpus_100k()) daemon.on_alert(alert);
  daemon.drain_idle();
  expect_matches_serial(daemon, router);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedDeterminismTest, ::testing::Values(1, 2, 8));

// --- Batch-parse property: agrees with parse_notice_line on every line ---

void expect_batch_agrees(const std::string& text) {
  // Per-line oracle.
  std::vector<alerts::Alert> expected;
  std::size_t expected_malformed = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto nl = text.find('\n', start);
    const auto end = nl == std::string::npos ? text.size() : nl;
    const std::string_view line(text.data() + start, end - start);
    // Mirror read_notice_log's accounting: blank/comment lines are
    // skipped silently, other unparseable lines count as malformed.
    std::string_view trimmed = line;
    while (!trimmed.empty() && (trimmed.front() == ' ' || trimmed.front() == '\t' ||
                                trimmed.front() == '\r'))
      trimmed.remove_prefix(1);
    if (!trimmed.empty() && trimmed.front() != '#') {
      if (auto alert = alerts::parse_notice_line(line)) {
        expected.push_back(std::move(*alert));
      } else {
        ++expected_malformed;
      }
    }
    if (nl == std::string::npos) break;
    start = nl + 1;
  }

  const auto batch = alerts::parse_notice_batch(std::string(text));
  ASSERT_EQ(batch.size(), expected.size());
  EXPECT_EQ(batch.malformed, expected_malformed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const alerts::Alert& want = expected[i];
    EXPECT_EQ(batch.ts[i], want.ts);
    EXPECT_EQ(batch.type[i], want.type);
    EXPECT_EQ(batch.origin[i], want.origin);
    EXPECT_EQ(batch.src_at(i), want.src);
    EXPECT_EQ(batch.host[i], want.host);
    EXPECT_EQ(batch.user[i], want.user);
    const alerts::Alert owned = batch.materialize(i);
    EXPECT_EQ(owned.ts, want.ts);
    EXPECT_EQ(owned.type, want.type);
    EXPECT_EQ(owned.origin, want.origin);
    EXPECT_EQ(owned.src, want.src);
    EXPECT_EQ(owned.host, want.host);
    EXPECT_EQ(owned.user, want.user);
    EXPECT_EQ(owned.metadata, want.metadata);
  }
}

TEST(ParseNoticeBatchTest, AgreesOnRealisticLog) {
  incidents::DailyNoiseModel noise;
  const auto month = noise.sample_month(3, 1);
  auto alerts = noise.materialize_day(month[0], 5'000);
  expect_batch_agrees(alerts::write_notice_log(alerts));
}

TEST(ParseNoticeBatchTest, AgreesOnAdversarialLines) {
  const auto& sample = corpus_100k().front();
  const std::string good = alerts::to_notice_line(sample);
  const std::string text =
      good + "\n" +
      "# comment line\n"
      "\n"
      "   \n"
      "\t\t\n"
      "not\ta\tnotice\n"                                      // too few fields
      "xyz\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\t-\n"   // bad ts
      "99\tno_such_alert\th\tu\t1.2.3.4\tzeek\t-\n"           // bad type
      "99\talert_ssh_bruteforce\th\tu\t999.2.3.4\tzeek\t-\n"  // bad src
      "99\talert_ssh_bruteforce\th\tu\t1.2.3.4\tnoisy\t-\n"   // bad origin
      "99\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\tnoeq\n"  // bad metadata
      "99\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\t-\textra\n"  // 8 fields
      "  " + good + "  \n" +                                  // padded, still valid
      "+99\talert_ssh_bruteforce\t-\t-\t-\tzeek\tk=v|a=b\n"   // '+' ts, metadata
      "99\talert_ssh_bruteforce\t-\t-\t-\treplay\t-";         // no trailing newline
  expect_batch_agrees(text);
}

TEST(ParseNoticeBatchTest, EmptyAndCommentOnlyLogs) {
  expect_batch_agrees("");
  expect_batch_agrees("\n\n\n");
  expect_batch_agrees("#separator \\t\n#fields ts note\n");
}

}  // namespace
}  // namespace at::testbed
