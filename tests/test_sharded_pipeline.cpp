// Sharded determinism: DetectionDaemon at any shard count must reproduce
// the serial AlertPipeline exactly — verdicts, BHR audit trail, and
// counters — on a realistic day of noise + incidents. Plus the batch-parse
// property: parse_notice_batch agrees with the scalar reference reader
// (notice_line_oracle.hpp) on every line, including malformed, comment, and
// blank ones.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alerts/queue.hpp"
#include "alerts/zeeklog.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "incidents/noise.hpp"
#include "notice_line_oracle.hpp"
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

// --- Batch-parse property: agrees with the reference reader on every line ---

using alerts::oracle::expect_batch_agrees;

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
      "99\talert_ssh_bruteforce\th\tu\t1.2.3.4\tnoisy\t-\n"   // unknown origin
      "99\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\tnoeq\n"  // bad metadata
      "99\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\t-\textra\n"  // 8 fields
      "  " + good + "  \n" +                                  // padded, still valid
      "+99\talert_ssh_bruteforce\t-\t-\t-\tzeek\tk=v|a=b\n"   // '+' ts: malformed
      "\v# c\n"                                               // comment after \v
      "\f\n"                                                  // blank after trim
      "7\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\tk=v\r\n"  // CRLF row
      "\r\n"                                                  // CRLF blank line
      "8\talert_ssh_bruteforce\th\r\tu\t1.2.3.4\tzeek\t-\n"   // inner '\r' in host
      "9\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\tk=a\rb\r\n"  // inner '\r', CRLF
      "99\talert_ssh_bruteforce\t-\t-\t-\treplay\t-";  // unknown origin, no trailing newline
  expect_batch_agrees(text);
  // Pin the counts too, so a blind spot the reference shares would show.
  const auto batch = alerts::parse_notice_batch(text);
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.malformed, 9u);  // the two unknown origins among them
}

TEST(ParseNoticeBatchTest, TsFieldIsASignedIntegerAndNothingElse) {
  // Each ts spelling in the same otherwise-valid line: `-?[0-9]+` in int64
  // range is a row, anything else malformed. (An empty ts leaves a leading
  // tab that the line trim removes, so that line fails on its field count.)
  const std::string rest = "\talert_ssh_bruteforce\th\tu\t1.2.3.4\tzeek\t-";
  for (const char* ts : {"+12", "12abc", "12.5", "-", "", "12 ", "9223372036854775808",
                         "-9223372036854775809", "0x10"}) {
    SCOPED_TRACE(std::string("ts '") + ts + "'");
    const std::string line = ts + rest;
    expect_batch_agrees(line);
    const auto batch = alerts::parse_notice_batch(line);
    EXPECT_EQ(batch.size(), 0u);
    EXPECT_EQ(batch.malformed, 1u);
  }
  for (const auto& [ts, want] :
       {std::pair<const char*, util::SimTime>{"-12", -12}, {"0", 0}, {"007", 7},
        {"9223372036854775807", std::numeric_limits<util::SimTime>::max()},
        {"-9223372036854775808", std::numeric_limits<util::SimTime>::min()}}) {
    SCOPED_TRACE(std::string("ts '") + ts + "'");
    const std::string line = ts + rest;
    expect_batch_agrees(line);
    const auto batch = alerts::parse_notice_batch(line);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.ts[0], want);
  }
  // A leading blank never reaches the field: the line is trimmed before it
  // is split, so " 12" at the start of a line still reads as ts 12.
  const std::string padded = " 12" + rest;
  expect_batch_agrees(padded);
  const auto batch = alerts::parse_notice_batch(padded);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.ts[0], 12);
}

TEST(ParseNoticeBatchTest, AllFiveOriginNamesRoundTrip) {
  // Every origin the writer can emit reads back as itself; anything else,
  // the empty field included, is malformed rather than filed as synthetic.
  std::string text;
  const alerts::Origin origins[] = {alerts::Origin::kZeek, alerts::Origin::kOsquery,
                                    alerts::Origin::kAuditd, alerts::Origin::kRsyslog,
                                    alerts::Origin::kSynthetic};
  for (const auto origin : origins) {
    alerts::Alert alert;
    alert.ts = 42;
    alert.type = alerts::AlertType::kPortScan;
    alert.origin = origin;
    text += alerts::to_notice_line(alert) + "\n";
  }
  text += "0\talert_logout\t\t\t-\t\t-\n";         // empty origin
  text += "0\talert_logout\t-\t-\t-\tZeek\t-\n";    // names are case-sensitive
  text += "0\talert_logout\t-\t-\t-\tzeek \t-\n";   // no inner trimming
  expect_batch_agrees(text);
  const auto batch = alerts::parse_notice_batch(text);
  ASSERT_EQ(batch.size(), std::size(origins));
  for (std::size_t i = 0; i < std::size(origins); ++i) {
    EXPECT_EQ(batch.origin[i], origins[i]) << alerts::to_string(origins[i]);
    EXPECT_EQ(batch.materialize(i).origin, origins[i]);
  }
  EXPECT_EQ(batch.malformed, 3u);
}

TEST(ParseNoticeBatchTest, MovedBatchKeepsItsViews) {
  // The shortest parseable row (25 bytes) as a whole log: bare, with a
  // trailing newline, and after a header line. The batch is moved out of a
  // heap object that is then freed, so a view left in an SSO buffer would
  // read freed memory (ASan reports it).
  const std::string row = "0\talert_logout\t\t\t-\tzeek\t-";
  ASSERT_EQ(row.size(), 25u);
  for (const std::string& text : {row, row + "\n", "#fields\n" + row}) {
    SCOPED_TRACE(text);
    const alerts::Alert want = alerts::oracle::read_notice_log(text).alerts.at(0);
    auto source = std::make_unique<alerts::AlertBatch>(alerts::parse_notice_batch(text));
    alerts::AlertBatch moved(std::move(*source));
    source.reset();
    alerts::AlertBatch assigned;
    assigned = std::move(moved);
    ASSERT_EQ(assigned.size(), 1u);
    EXPECT_EQ(assigned.malformed, 0u);
    const alerts::Alert got = assigned.materialize(0);
    EXPECT_EQ(got.ts, want.ts);
    EXPECT_EQ(got.type, alerts::AlertType::kLogout);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.host, want.host);
    EXPECT_EQ(got.user, want.user);
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.origin, want.origin);
    EXPECT_EQ(got.metadata, want.metadata);
  }
}

TEST(ParseNoticeBatchTest, EmptyAndCommentOnlyLogs) {
  expect_batch_agrees("");
  expect_batch_agrees("\n\n\n");
  expect_batch_agrees("#separator \\t\n#fields ts note\n");
}

}  // namespace
}  // namespace at::testbed
