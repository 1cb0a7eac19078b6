// Failure injection beyond monitor tampering: out-of-order alert
// delivery, duplicated alerts, degenerate training corpora, hostile log
// input, and empty-world edge cases. The pipeline must degrade, never
// crash or page spuriously.

#include <gtest/gtest.h>

#include "alerts/zeeklog.hpp"
#include "detect/eval.hpp"
#include "notice_line_oracle.hpp"
#include "replay/ransomware.hpp"

namespace at {
namespace {

using alerts::Alert;
using alerts::AlertType;

const incidents::Corpus& corpus() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

TEST(FailureInjection, OutOfOrderDeliveryStillDetects) {
  // Network reordering: the motif's alerts arrive with timestamps out of
  // order. The forward filter consumes arrival order; detection still
  // happens (the paper's monitors deliver near-real-time, but the
  // pipeline must not depend on perfect ordering to fire at all).
  auto detector = detect::FactorGraphDetector::train(corpus(), 0.75);
  detector.reset();
  const AlertType shuffled[] = {AlertType::kCompileSource, AlertType::kDownloadSensitive,
                                AlertType::kLogTampering};
  const util::SimTime times[] = {200, 100, 300};  // ts not monotone
  std::optional<detect::Detection> hit;
  for (std::size_t i = 0; i < 3 && !hit; ++i) {
    Alert alert;
    alert.ts = times[i];
    alert.type = shuffled[i];
    alert.host = "h";
    hit = detector.observe(alert, i);
  }
  EXPECT_TRUE(hit.has_value());
}

TEST(FailureInjection, DuplicatedAlertsDoNotInflateConfidenceForever) {
  // A stuck monitor re-emitting the same suspicious alert must not walk
  // the posterior into the firing region.
  auto detector = detect::FactorGraphDetector::train(corpus(), 0.75);
  detector.reset();
  Alert alert;
  alert.type = AlertType::kSshBruteforce;
  alert.host = "h";
  for (std::size_t i = 0; i < 500; ++i) {
    alert.ts = static_cast<util::SimTime>(i);
    EXPECT_FALSE(detector.observe(alert, i).has_value()) << "fired at duplicate " << i;
  }
}

TEST(FailureInjection, DroppedAlertsDegradeGracefully) {
  // Drop every other alert from attack streams: recall may fall, but
  // whatever is detected must still be a true positive (precision holds).
  const auto split = detect::split_corpus(corpus());
  auto detector = detect::FactorGraphDetector::train(split.train, 0.75);
  std::vector<detect::Stream> attacks;
  for (const auto& incident : split.test) {
    auto stream = detect::attack_stream(incident);
    detect::Stream dropped;
    dropped.is_attack = true;
    dropped.damage_ts = stream.damage_ts;
    for (std::size_t i = 0; i < stream.alerts.size(); i += 2) {
      dropped.alerts.push_back(stream.alerts[i]);
    }
    attacks.push_back(std::move(dropped));
  }
  incidents::DailyNoiseModel noise;
  const auto benign = detect::benign_streams(noise, 0, 10, 300);
  const auto result = detect::evaluate(detector, attacks, benign);
  EXPECT_EQ(result.false_positives, 0u);
  EXPECT_GT(result.recall(), 0.5);  // half the evidence still catches most
}

TEST(FailureInjection, DegenerateEmptyTrainingCorpus) {
  // Training on an empty corpus yields the uniform (Laplace-only) model;
  // the detector must not crash and must not fire on benign traffic.
  incidents::Corpus empty;
  auto detector = detect::FactorGraphDetector::train(empty, 0.75);
  detector.reset();
  Alert alert;
  alert.type = AlertType::kLoginSuccess;
  alert.host = "h";
  for (std::size_t i = 0; i < 20; ++i) {
    alert.ts = static_cast<util::SimTime>(i);
    EXPECT_FALSE(detector.observe(alert, i).has_value());
  }
}

TEST(FailureInjection, SingleIncidentTrainingCorpus) {
  incidents::Corpus tiny;
  tiny.incidents.push_back(corpus().incidents[0]);
  const auto params = fg::learn_params(tiny);
  fg::EntityFilter filter(fg::compile_params(params));
  filter.observe(AlertType::kDownloadSensitive);
  double total = 0.0;
  for (const auto p : filter.last_stage()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FailureInjection, HostileNoticeLogInput) {
  // Parser fuzz-ish: binary garbage, oversized fields, half-lines.
  std::string hostile;
  hostile += std::string(1024, '\xff') + "\n";
  hostile += "1\talert_port_scan\t" + std::string(100'000, 'a') + "\t-\t-\tzeek\t-\n";
  hostile += "2\talert_port_scan\t-\t-\t-\tzeek\tk=v|k2\n";  // bad metadata pair
  hostile += "99999999999999999999999999\talert_port_scan\t-\t-\t-\tzeek\t-\n";  // ts overflow
  const auto result = alerts::parse_notice_batch(hostile);
  // The huge-host line is structurally valid; everything else is rejected.
  EXPECT_EQ(result.size(), 1u);
  EXPECT_EQ(result.malformed, 3u);
  alerts::oracle::expect_batch_agrees(hostile);
}

TEST(FailureInjection, PipelineSurvivesAlertStorm) {
  // A burst of one million identical scan alerts: the filter suppresses,
  // memory stays bounded (one entity), no pages.
  bhr::BlackHoleRouter router;
  testbed::PipelineConfig config;
  testbed::AlertPipeline pipeline(config, &router);
  pipeline.add_detector("critical", [] {
    return std::make_unique<detect::CriticalAlertDetector>();
  });
  Alert probe;
  probe.type = AlertType::kPortScan;
  probe.src = net::Ipv4(9, 9, 9, 9);
  probe.host = "h";
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    probe.ts = static_cast<util::SimTime>(i / 1000);  // 1000 alerts/s
    pipeline.on_alert(probe);
  }
  EXPECT_EQ(pipeline.tracked_entities(), 1u);
  EXPECT_TRUE(pipeline.notifications().empty());
  // The filter absorbed almost everything.
  EXPECT_LT(pipeline.alerts_after_filter(), 10u);
}

TEST(FailureInjection, AllMonitorsTamperedOnEntryHostDelaysButLateralHostsCatch) {
  // Worst case on patient zero: every monitor silenced there. Lateral
  // movement to *untampered* hosts still produces the evidence — the
  // paper's "challenging to manipulate all monitors" argument.
  testbed::Testbed bed(testbed::TestbedConfig{}, corpus());
  bed.deploy(0);
  bed.osquery().tamper("pg-0");
  bed.auditd().tamper("pg-0");
  // (Zeek is a network monitor; per-host tampering of it means the host's
  //  label, which inbound flow alerts carry.)
  bed.zeek().tamper("pg-0");

  replay::RansomwareScenario ransomware;
  std::vector<replay::Scenario*> scenarios{&ransomware};
  replay::run_scenarios(bed, scenarios, 0);
  bool paged_on_lateral_host = false;
  for (const auto& note : bed.pipeline().notifications()) {
    if (note.entity != "host:pg-0") paged_on_lateral_host = true;
  }
  EXPECT_TRUE(paged_on_lateral_host);
}

}  // namespace
}  // namespace at
