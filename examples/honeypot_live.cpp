// A week in the life of the testbed: continuous exposure to scanning and
// legitimate traffic, three distinct attack campaigns arriving on
// different days, VM fleet recycling on TTL, BHR block expiry, and a daily
// operations digest — the view a security operator would have.
//
// The operator view here is the daemon one (docs/daemon.md): a
// DetectionDaemon tapped off the correlator's post-dedup stream runs as an
// always-on console beside the testbed's in-process pipeline, and the
// daily digest drains its typed alert queue by category mask instead of
// re-reading a notifications vector.
//
// Run: ./build/examples/example_honeypot_live

#include <cstdio>
#include <utility>

#include "replay/background.hpp"
#include "replay/campaigns.hpp"
#include "replay/ransomware.hpp"
#include "testbed/autoscaler.hpp"
#include "testbed/daemon.hpp"
#include "testbed/deployed.hpp"

namespace {

/// The correlator's downstream in this example: every post-dedup alert goes
/// to the testbed's pipeline, then to the operator console. The pipeline
/// gets a copy and the console takes the moved alert.
class ConsoleTap final : public at::alerts::AlertSink {
 public:
  ConsoleTap(at::alerts::AlertSink& pipeline, at::alerts::AlertSink& console)
      : pipeline_(&pipeline), console_(&console) {}
  // The correlator holds this tap's address.
  ConsoleTap(const ConsoleTap&) = delete;
  ConsoleTap& operator=(const ConsoleTap&) = delete;

  using at::alerts::AlertSink::on_alert;
  void on_alert(const at::alerts::Alert& alert) override {
    pipeline_->on_alert(alert);
    console_->on_alert(alert);
  }
  void on_alert(at::alerts::Alert&& alert) override {
    pipeline_->on_alert(alert);
    console_->on_alert(std::move(alert));
  }

 private:
  at::alerts::AlertSink* pipeline_;
  at::alerts::AlertSink* console_;
};

}  // namespace

int main() {
  using namespace at;

  incidents::CorpusConfig corpus_config;
  corpus_config.repetition_scale = 0.02;
  const auto corpus = incidents::CorpusGenerator(corpus_config).generate();

  testbed::TestbedConfig config;
  config.lifecycle.instance_ttl = 12 * util::kHour;  // short-lived by design
  testbed::Testbed bed(config, corpus);

  // The operator console: an always-on daemon fed the same post-dedup
  // alert stream as the in-process pipeline (tap before any traffic).
  // The same deployed stack and threshold as the testbed's own pipeline.
  testbed::DetectionDaemon console(testbed::DaemonConfig{}, /*router=*/nullptr);
  for (auto& [name, factory] :
       testbed::deployed_detectors(testbed::train_model(corpus), config.fg_threshold)) {
    console.add_detector(std::move(name), std::move(factory));
  }
  ConsoleTap tap(bed.pipeline(), console);
  bed.correlator().retarget(tap);

  const util::SimTime t0 = util::to_sim_time(util::CivilDate{2024, 10, 1});
  bed.deploy(t0);
  std::printf("deployed: %zu entry points on %s, image %s\n\n",
              bed.vms().instances().size(),
              bed.vms().config().entry_block.str().c_str(),
              bed.vms().config().image.c_str());

  // Background pressure every day; attacks on days 2, 4, and 5.
  std::vector<std::unique_ptr<replay::Scenario>> owned;
  std::vector<std::pair<replay::Scenario*, util::SimTime>> schedule;
  for (int day = 0; day < 7; ++day) {
    auto scan = std::make_unique<replay::MassScanScenario>();
    auto legit = std::make_unique<replay::LegitTrafficScenario>();
    schedule.emplace_back(scan.get(), t0 + day * util::kDay);
    schedule.emplace_back(legit.get(), t0 + day * util::kDay + 6 * util::kHour);
    owned.push_back(std::move(scan));
    owned.push_back(std::move(legit));
  }
  auto struts = std::make_unique<replay::StrutsCampaign>();
  auto keylogger = std::make_unique<replay::SshKeyloggerCampaign>();
  replay::RansomwareConfig ransom_config;
  ransom_config.probe_lead = util::kDay;  // compressed for the week view
  auto ransomware = std::make_unique<replay::RansomwareScenario>(ransom_config);
  schedule.emplace_back(struts.get(), t0 + 2 * util::kDay + 3 * util::kHour);
  schedule.emplace_back(keylogger.get(), t0 + 4 * util::kDay + 11 * util::kHour);
  schedule.emplace_back(ransomware.get(), t0 + 4 * util::kDay);

  for (const auto& [scenario, when] : schedule) {
    scenario->schedule(bed, when);
  }

  // Auto-scaling policy: widen the net when attacks land (Section IV-C).
  testbed::AutoScaler scaler(testbed::AutoScalerConfig{}, bed.vms(), bed.pipeline());

  // Drive the week day by day, ticking lifecycle, scaler and BHR daily;
  // each evening the operator pulls the console's verdict/error alerts.
  std::uint64_t last_flows = 0;
  for (int day = 0; day < 8; ++day) {
    const util::SimTime day_end = t0 + (day + 1) * util::kDay;
    bed.engine().run_until(day_end);
    const std::size_t recycled = bed.vms().tick(day_end);
    const std::size_t scaled = scaler.tick(day_end);
    if (scaled > 0) {
      std::printf("  ** auto-scaled +%zu instances (fleet now %zu)\n", scaled,
                  bed.vms().instances().size());
    }
    const std::size_t expired = bed.router().expire(day_end);

    std::printf("day %d (%s):\n", day + 1,
                util::format_datetime(t0 + day * util::kDay).substr(0, 10).c_str());
    std::printf("  flows seen: %llu (+%llu), BHR drops: %llu, active blocks: %zu (-%zu expired)\n",
                static_cast<unsigned long long>(bed.zeek().flows_seen()),
                static_cast<unsigned long long>(bed.zeek().flows_seen() - last_flows),
                static_cast<unsigned long long>(bed.router().dropped_flows()),
                bed.router().active_blocks(day_end), expired);
    std::printf("  VMs recycled: %zu (total %llu), entities tracked: %zu (evicted %llu)\n",
                recycled, static_cast<unsigned long long>(bed.vms().total_recycled()),
                bed.pipeline().tracked_entities(),
                static_cast<unsigned long long>(bed.pipeline().evicted_entities()));
    const auto pages = console.drain_alerts(alerts::DaemonAlert::kVerdict |
                                            alerts::DaemonAlert::kError);
    for (const auto& page : pages) {
      std::printf("  >> PAGE %s\n", page->str().substr(0, 96).c_str());
    }
    if (pages.empty()) std::printf("  (no pages)\n");
    last_flows = bed.zeek().flows_seen();
  }
  bed.engine().run();

  // Shut the console down gracefully: drain in-flight work, then read the
  // final lifecycle/stats alerts off the queue.
  console.stop();
  std::printf("\noperator console shutdown stream:\n");
  for (const auto& alert : console.drain_alerts(alerts::DaemonAlert::kLifecycle |
                                                alerts::DaemonAlert::kProgress)) {
    std::printf("  %s\n", alert->str().c_str());
  }

  std::printf("\nweek summary (testbed):\n%s",
              bed.stats().to_table().render().c_str());
  std::printf("\noperator console counters:\n%s",
              console.stats().to_table().render().c_str());
  std::printf("\n  operator pages: %zu\n", bed.pipeline().notifications().size());
  std::printf("  sandbox egress drops: %llu\n",
              static_cast<unsigned long long>(bed.sandbox().dropped()));
  std::printf("  struts campaign exploited a VRT-built service: %s\n",
              struts->exploited() ? "yes (pre-fix snapshot)" : "no");
  std::printf("  ransomware instances compromised: %zu\n", ransomware->compromised().size());
  return 0;
}
