// Zeek notice-log serialization round trips and incident report
// generation/parsing — the dataset's archival formats.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "alerts/zeeklog.hpp"
#include "incidents/generator.hpp"
#include "incidents/report.hpp"
#include "notice_line_oracle.hpp"

namespace at {
namespace {

alerts::Alert sample_alert() {
  alerts::Alert alert;
  alert.ts = 1730259852;
  alert.type = alerts::AlertType::kDownloadSensitive;
  alert.host = "pg-3";
  alert.user = "postgres";
  alert.src = net::Ipv4(194, 145, 7, 8);
  alert.origin = alerts::Origin::kZeek;
  alert.add_meta("url", "194.145.7.8/sys.x86_64");
  return alert;
}

/// `text` through the notice-log reader: its materialized row when the text
/// is exactly one well-formed row, otherwise nullopt.
std::optional<alerts::Alert> parse_one_row(std::string text) {
  const auto batch = alerts::parse_notice_batch(std::move(text));
  if (batch.size() != 1 || batch.malformed != 0) return std::nullopt;
  return batch.materialize(0);
}

TEST(ZeekLog, SingleLineRoundTrip) {
  const auto alert = sample_alert();
  const auto line = alerts::to_notice_line(alert);
  const auto parsed = parse_one_row(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ts, alert.ts);
  EXPECT_EQ(parsed->type, alert.type);
  EXPECT_EQ(parsed->host, alert.host);
  EXPECT_EQ(parsed->user, alert.user);
  EXPECT_EQ(parsed->src, alert.src);
  EXPECT_EQ(parsed->origin, alert.origin);
  ASSERT_EQ(parsed->metadata.size(), 1u);
  EXPECT_EQ(parsed->metadata[0].first, "url");
  EXPECT_EQ(parsed->metadata[0].second, "194.145.7.8/sys.x86_64");
}

TEST(ZeekLog, EmptyFieldsRoundTrip) {
  alerts::Alert alert;
  alert.ts = 5;
  alert.type = alerts::AlertType::kPortScan;
  const auto parsed = parse_one_row(alerts::to_notice_line(alert));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->host.empty());
  EXPECT_TRUE(parsed->user.empty());
  EXPECT_FALSE(parsed->src.has_value());
  EXPECT_TRUE(parsed->metadata.empty());
}

TEST(ZeekLog, EmbeddedSeparatorsAreNeutralized) {
  alerts::Alert alert;
  alert.ts = 1;
  alert.type = alerts::AlertType::kCompileSource;
  alert.host = "evil\thost\nname";
  alert.add_meta("cmd", "a\tb|c");
  const auto line = alerts::to_notice_line(alert);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 6);  // exactly the field seps
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = parse_one_row(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->host, "evil host name");
}

TEST(ZeekLog, RejectsMalformed) {
  // Blank and comment lines yield no row and are not counted...
  for (const char* skipped : {"", "# a comment"}) {
    SCOPED_TRACE(skipped);
    const auto batch = alerts::parse_notice_batch(skipped);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.malformed, 0u);
  }
  // ...every other unparseable line is one malformed line.
  for (const char* bad : {"not\tenough\tfields",
                          "xyz\talert_port_scan\t-\t-\t-\tzeek\t-",  // bad ts
                          "1\talert_unknown_type\t-\t-\t-\tzeek\t-",
                          "1\talert_port_scan\t-\t-\tnot-an-ip\tzeek\t-"}) {
    SCOPED_TRACE(bad);
    const auto batch = alerts::parse_notice_batch(bad);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.malformed, 1u);
    alerts::oracle::expect_batch_agrees(bad);
  }
}

TEST(ZeekLog, WholeLogRoundTrip) {
  std::vector<alerts::Alert> alerts_in;
  for (int i = 0; i < 50; ++i) {
    auto alert = sample_alert();
    alert.ts += i;
    alert.type = static_cast<alerts::AlertType>(i % static_cast<int>(alerts::kNumAlertTypes));
    alerts_in.push_back(alert);
  }
  const auto text = alerts::write_notice_log(alerts_in);
  const auto result = alerts::parse_notice_batch(text);
  EXPECT_EQ(result.malformed, 0u);
  ASSERT_EQ(result.size(), alerts_in.size());
  for (std::size_t i = 0; i < alerts_in.size(); ++i) {
    const auto row = result.materialize(i);
    EXPECT_EQ(row.ts, alerts_in[i].ts);
    EXPECT_EQ(row.type, alerts_in[i].type);
  }
  alerts::oracle::expect_batch_agrees(text);
}

TEST(ZeekLog, ReaderCountsMalformedLines) {
  const std::string text =
      "#fields ...\n"
      "1\talert_port_scan\t-\t-\t-\tzeek\t-\n"
      "garbage line\n"
      "\n"
      "2\talert_port_scan\t-\t-\t-\tzeek\t-\n";
  const auto result = alerts::parse_notice_batch(text);
  EXPECT_EQ(result.size(), 2u);
  EXPECT_EQ(result.malformed, 1u);
  alerts::oracle::expect_batch_agrees(text);
}

TEST(ZeekLog, CorpusExportScales) {
  incidents::CorpusConfig config;
  config.repetition_scale = 0.01;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  std::vector<alerts::Alert> all;
  for (const auto& incident : corpus.incidents) {
    for (const auto& entry : incident.timeline) all.push_back(entry.alert);
  }
  const auto text = alerts::write_notice_log(all);
  const auto result = alerts::parse_notice_batch(text);
  EXPECT_EQ(result.malformed, 0u);
  EXPECT_EQ(result.size(), all.size());
}

// --- incident reports ---

TEST(ReportTest, WriteContainsGroundTruthAndSequence) {
  incidents::CorpusConfig config;
  config.repetition_scale = 0.01;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  const auto& incident = corpus.incidents[0];
  const auto text = incidents::write_report(incident);
  EXPECT_NE(text.find("SECURITY INCIDENT REPORT"), std::string::npos);
  EXPECT_NE(text.find(incident.family), std::string::npos);
  EXPECT_NE(text.find(incident.truth.compromised_user), std::string::npos);
  // Core alerts are listed in order.
  for (const auto type : incident.core_sequence()) {
    EXPECT_NE(text.find(alerts::symbol(type)), std::string::npos);
  }
  // Anonymized by default: the attacker's full address never appears.
  EXPECT_EQ(text.find(incident.truth.attacker.str()), std::string::npos);
  EXPECT_NE(text.find(incident.truth.attacker.anonymized()), std::string::npos);
}

TEST(ReportTest, RoundTripHeader) {
  incidents::CorpusConfig config;
  config.repetition_scale = 0.01;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& incident = corpus.incidents[i * 20];
    incidents::ReportOptions options;
    options.anonymize = false;  // keep the address parsable
    const auto text = incidents::write_report(incident, options);
    const auto parsed = incidents::parse_report(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id, incident.id);
    EXPECT_EQ(parsed->family, incident.family);
    EXPECT_EQ(parsed->truth.attacker, incident.truth.attacker);
    EXPECT_EQ(parsed->truth.compromised_user, incident.truth.compromised_user);
    EXPECT_EQ(parsed->truth.compromised_hosts, incident.truth.compromised_hosts);
    EXPECT_EQ(parsed->core_alerts, incident.core_sequence().size());
    EXPECT_EQ(parsed->damage_recorded, incident.damage_ts.has_value());
  }
}

TEST(ReportTest, ParseRejectsNonReports) {
  EXPECT_FALSE(incidents::parse_report("just some text").has_value());
  EXPECT_FALSE(incidents::parse_report("").has_value());
  EXPECT_FALSE(
      incidents::parse_report("== SECURITY INCIDENT REPORT ==\nno id here\n").has_value());
}

}  // namespace
}  // namespace at
