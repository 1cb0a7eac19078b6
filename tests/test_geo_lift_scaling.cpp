// Geo/ASN attribution, alert lift (Remark 2 quantified), the cross-monitor
// correlator, and the auto-scaling policy.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lift.hpp"
#include "incidents/noise.hpp"
#include "net/geo.hpp"
#include "testbed/autoscaler.hpp"
#include "testbed/correlator.hpp"
#include "util/rng.hpp"

namespace at {
namespace {

// --- GeoDb ---

TEST(GeoDb, Fig1ScannerAttribution) {
  // The paper: "the mass scanner's IP address 103.102 ... indicating a
  // cloud provider from Indonesia".
  net::GeoDb geo;
  const auto origin = geo.lookup(net::Ipv4(103, 102, 47, 9));
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(origin->country, "ID");
  EXPECT_EQ(origin->asn_name, "cloud-provider");
}

TEST(GeoDb, LongestPrefixWins) {
  net::GeoDb geo;
  // 45.155.204.0/24 (bulletproof) is nested under no broader 45/8 entry,
  // but add one and confirm the /24 still wins.
  geo.add(net::Cidr(net::Ipv4(45, 0, 0, 0), 8), {"XX", "broad"});
  const auto origin = geo.lookup(net::Ipv4(45, 155, 204, 7));
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(origin->asn_name, "bulletproof-hosting");
  // Elsewhere in 45/8 the broad entry answers.
  EXPECT_EQ(geo.lookup(net::Ipv4(45, 1, 1, 1))->asn_name, "broad");
}

TEST(GeoDb, UnknownSpaceIsNullopt) {
  net::GeoDb geo;
  EXPECT_FALSE(geo.lookup(net::Ipv4(203, 0, 113, 1)).has_value());
}

TEST(GeoDb, InternalSpaceIsNcsa) {
  net::GeoDb geo;
  EXPECT_EQ(geo.lookup(net::Ipv4(141, 142, 5, 5))->asn_name, "ncsa");
}

// --- lift ---

TEST(LiftTest, CriticalAlertsHaveHugeLiftScansNearOne) {
  incidents::CorpusConfig config;
  config.repetition_scale = 0.02;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  // Normal-condition side: a sampled day of background alerts (Fig 2).
  incidents::DailyNoiseModel noise;
  const auto day = noise.sample_month(0, 1);
  const auto background = noise.materialize_day(day[0], 20'000);
  const auto table = analysis::measure_lift(corpus, background);
  ASSERT_EQ(table.rows.size(), alerts::kNumAlertTypes);
  // Rows are in descending lift.
  for (std::size_t i = 1; i < table.rows.size(); ++i) {
    EXPECT_GE(table.rows[i - 1].lift, table.rows[i].lift);
  }
  // Remark 2 / Insight 4: a critical alert is (near-)certain evidence.
  const auto* privesc = table.find(alerts::AlertType::kPrivilegeEscalation);
  ASSERT_NE(privesc, nullptr);
  EXPECT_GT(privesc->lift, 5.0);
  EXPECT_EQ(privesc->benign_count, 0u);
  // Benign operations appear overwhelmingly legitimately.
  const auto* login = table.find(alerts::AlertType::kJobSubmitted);
  ASSERT_NE(login, nullptr);
  EXPECT_LT(login->lift, 1.0);
  // Remark 2's core point: scans flood normal conditions too, so a scan
  // alert alone is a weak signal (lift near 1, nothing like the criticals).
  const auto* scan = table.find(alerts::AlertType::kPortScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_LT(scan->lift, privesc->lift / 2.0);
}

TEST(LiftTest, CountsAddUp) {
  incidents::CorpusConfig config;
  config.repetition_scale = 0.01;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  const auto table = analysis::measure_lift(corpus);
  std::uint64_t attack = 0;
  std::uint64_t benign = 0;
  for (const auto& row : table.rows) {
    attack += row.attack_count;
    benign += row.benign_count;
  }
  EXPECT_EQ(attack, table.attack_alerts);
  EXPECT_EQ(benign, table.benign_alerts);
  EXPECT_EQ(attack + benign, corpus.stats.filtered_alerts);
}

// --- correlator ---

TEST(CorrelatorTest, MergesCrossMonitorDuplicates) {
  alerts::BufferSink sink;
  testbed::AlertCorrelator correlator({.window = 30}, sink);
  alerts::Alert osquery_view;
  osquery_view.ts = 100;
  osquery_view.type = alerts::AlertType::kFileDroppedTmp;
  osquery_view.host = "pg-0";
  osquery_view.origin = alerts::Origin::kOsquery;
  correlator.on_alert(osquery_view);
  // auditd sees the same execve two seconds later.
  auto auditd_view = osquery_view;
  auditd_view.ts = 102;
  auditd_view.origin = alerts::Origin::kAuditd;
  correlator.on_alert(auditd_view);
  EXPECT_EQ(sink.alerts().size(), 1u);
  EXPECT_EQ(correlator.merged(), 1u);
  // Outside the window it is a new event.
  auditd_view.ts = 200;
  correlator.on_alert(auditd_view);
  EXPECT_EQ(sink.alerts().size(), 2u);
}

TEST(CorrelatorTest, DifferentHostsOrTypesPassThrough) {
  alerts::BufferSink sink;
  testbed::AlertCorrelator correlator({.window = 30}, sink);
  alerts::Alert alert;
  alert.ts = 1;
  alert.type = alerts::AlertType::kFileDroppedTmp;
  alert.host = "a";
  correlator.on_alert(alert);
  alert.host = "b";
  correlator.on_alert(alert);
  alert.host = "a";
  alert.type = alerts::AlertType::kSshKeyTheft;
  correlator.on_alert(alert);
  EXPECT_EQ(sink.alerts().size(), 3u);
  EXPECT_EQ(correlator.merged(), 0u);
}

// The correlator's dedup rule restated over a node-based map keyed by
// the (host, type) pair itself rather than its 64-bit hash.
class ReferenceCorrelator {
 public:
  explicit ReferenceCorrelator(util::SimTime window) : window_(window) {}
  bool admit(const alerts::Alert& alert) {
    const auto key = std::make_pair(alert.host, alert.type);
    const auto it = last_forwarded_.find(key);
    if (it != last_forwarded_.end() && alert.ts - it->second < window_ &&
        alert.ts >= it->second) {
      return false;
    }
    last_forwarded_[key] = alert.ts;
    return true;
  }

 private:
  util::SimTime window_;
  std::map<std::pair<std::string, alerts::AlertType>, util::SimTime> last_forwarded_;
};

TEST(CorrelatorTest, FlatTableMatchesReference) {
  const alerts::AlertType types[] = {alerts::AlertType::kDbPortProbe,
                                     alerts::AlertType::kAddressScan,
                                     alerts::AlertType::kFileDroppedTmp,
                                     alerts::AlertType::kSshBruteforce};
  for (const std::uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    alerts::BufferSink sink;
    testbed::AlertCorrelator correlator({.window = 30}, sink);
    ReferenceCorrelator reference(30);
    std::vector<alerts::Alert> want;
    util::SimTime clock = 0;
    for (int i = 0; i < 30000; ++i) {
      // Mostly advancing, sometimes stepping back past the window, so the
      // `ts >= last` guard and re-forwarding of late alerts both run.
      clock += rng.uniform_int(0, 3);
      alerts::Alert alert;
      alert.ts = rng.bernoulli(0.1) ? clock - rng.uniform_int(0, 60) : clock;
      alert.type = types[rng.uniform_int(0, 3)];
      alert.host = rng.bernoulli(0.5)
                       ? "pg-" + std::to_string(rng.uniform_int(0, 15))
                       : net::Ipv4(141, 142, static_cast<std::uint8_t>(rng.uniform_int(0, 40)),
                                   static_cast<std::uint8_t>(rng()))
                             .str();
      if (reference.admit(alert)) want.push_back(alert);
      if (rng.bernoulli(0.5)) {
        correlator.on_alert(alert);
      } else {
        correlator.on_alert(alerts::Alert(alert));
      }
    }
    ASSERT_EQ(sink.alerts().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(sink.alerts()[i].ts, want[i].ts) << "alert " << i;
      ASSERT_EQ(sink.alerts()[i].host, want[i].host) << "alert " << i;
      ASSERT_EQ(sink.alerts()[i].type, want[i].type) << "alert " << i;
    }
    EXPECT_EQ(correlator.forwarded(), want.size());
    EXPECT_EQ(correlator.received(), 30000u);
    EXPECT_GT(correlator.merged(), 1000u);  // the window absorbs a real share
  }
}

// --- autoscaler ---

TEST(AutoScalerTest, ScalesOnCapturePressure) {
  testbed::VmManager vms;
  vms.provision_entry_points(0);
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, nullptr);
  testbed::AutoScalerConfig config;
  config.capture_pressure_threshold = 0.2;
  config.step = 4;
  testbed::AutoScaler scaler(config, vms, pipeline);
  // No pressure: no scaling.
  EXPECT_EQ(scaler.tick(10), 0u);
  // Mark a quarter of the fleet as capturing attacks.
  for (std::uint32_t id = 1; id <= 4; ++id) vms.mark_capturing(id);
  EXPECT_EQ(scaler.tick(20), 4u);
  EXPECT_EQ(vms.instances().size(), 20u);
  EXPECT_EQ(scaler.scale_events(), 1u);
}

TEST(AutoScalerTest, ScalesOnNotificationBurst) {
  testbed::VmManager vms;
  vms.provision_entry_points(0);
  bhr::BlackHoleRouter router;
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
  pipeline.add_detector("critical", [] {
    return std::make_unique<detect::CriticalAlertDetector>();
  });
  testbed::AutoScalerConfig config;
  config.notification_burst = 3;
  testbed::AutoScaler scaler(config, vms, pipeline);
  // Three pages on three hosts within the window.
  alerts::Alert alert;
  alert.type = alerts::AlertType::kPrivilegeEscalation;
  for (int i = 0; i < 3; ++i) {
    alert.ts = 10 + i;
    alert.host = "h" + std::to_string(i);
    pipeline.on_alert(alert);
  }
  EXPECT_GT(scaler.tick(60), 0u);
}

TEST(AutoScalerTest, RespectsFleetCeiling) {
  testbed::LifecycleConfig lifecycle;
  lifecycle.entry_points = 16;
  lifecycle.max_instances = 18;
  testbed::VmManager vms(lifecycle);
  vms.provision_entry_points(0);
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, nullptr);
  testbed::AutoScalerConfig config;
  config.capture_pressure_threshold = 0.0;  // always under pressure
  config.step = 10;
  testbed::AutoScaler scaler(config, vms, pipeline);
  EXPECT_EQ(scaler.tick(1), 2u);  // ceiling allows only 2 more
  EXPECT_EQ(scaler.tick(2), 0u);
}

}  // namespace
}  // namespace at
