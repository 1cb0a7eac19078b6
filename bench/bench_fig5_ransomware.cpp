// Figure 5 + Section V — the PostgreSQL ransomware case study: recursive
// lateral movement over stolen SSH keys, preemptive detection at the
// C2-communication stage, and the twelve-day early warning before the
// matching production incident. Prints the replayed case-study timeline,
// and the lead each factor-graph mode (stage chain / entity, untimed /
// timed) would buy on the same replay.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "replay/background.hpp"
#include "replay/ransomware.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace at;

const incidents::Corpus& training() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

struct CaseStudyRun {
  replay::ReplayReport report;
  util::SimTime entry = 0;
  util::SimTime second_wave = 0;
  std::optional<testbed::Notification> first_note;
  std::size_t compromised = 0;
  std::vector<std::size_t> spread;
  std::uint64_t beacons_dropped = 0;
  std::size_t notifications = 0;
};

CaseStudyRun run_case_study(bool with_noise) {
  testbed::Testbed bed(testbed::TestbedConfig{}, training());
  bed.deploy(0);
  replay::RansomwareScenario ransomware;
  replay::MassScanScenario scan;
  replay::LegitTrafficScenario legit;
  std::vector<replay::Scenario*> scenarios{&ransomware};
  if (with_noise) {
    scenarios.push_back(&scan);
    scenarios.push_back(&legit);
  }
  CaseStudyRun run;
  run.report = replay::run_scenarios(bed, scenarios, 0);
  run.entry = ransomware.entry_time();
  run.second_wave = ransomware.second_wave_time();
  run.first_note = replay::first_notification_after(bed, 0, "factor-graph");
  run.compromised = ransomware.compromised().size();
  run.spread = ransomware.spread_by_depth();
  run.beacons_dropped = bed.sandbox().dropped();
  run.notifications = bed.pipeline().notifications().size();
  return run;
}

void report(const CaseStudyRun& run) {
  static std::once_flag once;
  std::call_once(once, [&] {
    util::TextTable table({"case-study event", "paper", "measured"});
    table.add_row({"entry via PostgreSQL port 5432", "Oct 30",
                   "t+" + util::fmt_double(static_cast<double>(run.entry) / util::kDay, 1) +
                       " days (after a week of probing)"});
    if (run.first_note) {
      const double minutes =
          static_cast<double>(run.first_note->ts - run.entry) / util::kMinute;
      table.add_row({"model detects & notifies operators",
                     "upon C2 communication attempt",
                     util::fmt_double(minutes, 1) + " min after entry (" +
                         run.first_note->reason + ")"});
      const double lead =
          static_cast<double>(run.second_wave - run.first_note->ts) / util::kDay;
      table.add_row({"lead before matching production attack", "12 days",
                     util::fmt_double(lead, 2) + " days"});
    }
    table.add_row({"instances infected by lateral movement", "federation-wide",
                   std::to_string(run.compromised) + " of 16"});
    std::string spread;
    for (std::size_t d = 0; d < run.spread.size(); ++d) {
      if (d) spread += " -> ";
      spread += std::to_string(run.spread[d]);
    }
    table.add_row({"Fig 5 spread by recursion depth", "exponential fan-out", spread});
    table.add_row({"C2 beacons contained by egress sandbox", "dropped before the Internet",
                   util::fmt_count(run.beacons_dropped) + " dropped (still observed by Zeek)"});
    table.add_row({"operator notifications", "early warning",
                   util::fmt_count(run.notifications)});
    std::printf("\n=== Figure 5 / Section V: ransomware case study replay ===\n%s\n",
                table.render().c_str());
  });
}

void BM_Fig5_CaseStudyReplay(benchmark::State& state) {
  CaseStudyRun run;
  for (auto _ : state) {
    run = run_case_study(/*with_noise=*/false);
    benchmark::DoNotOptimize(run.report.events_executed);
  }
  state.counters["events"] = static_cast<double>(run.report.events_executed);
  state.counters["lead_days"] =
      run.first_note
          ? static_cast<double>(run.second_wave - run.first_note->ts) / util::kDay
          : 0.0;
  report(run);
}
BENCHMARK(BM_Fig5_CaseStudyReplay)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Fig5_CaseStudyUnderNoise(benchmark::State& state) {
  // Same replay with a mass scanner and legitimate traffic interleaved —
  // detection quality must not degrade (Fig 1's needle-in-haystack).
  CaseStudyRun run;
  for (auto _ : state) {
    run = run_case_study(/*with_noise=*/true);
    benchmark::DoNotOptimize(run.report.events_executed);
  }
  state.counters["events"] = static_cast<double>(run.report.events_executed);
  state.counters["detected"] = run.first_note ? 1.0 : 0.0;
  state.counters["lead_days"] =
      run.first_note
          ? static_cast<double>(run.second_wave - run.first_note->ts) / util::kDay
          : 0.0;
}
BENCHMARK(BM_Fig5_CaseStudyUnderNoise)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Fig5_LeadByModel(benchmark::State& state) {
  // One replay with the timed stage chain registered beside the deployed
  // set (TestbedConfig{}: stage chain, untimed). Each model's first page
  // gives its lead; the timed detector's pages block sources too, so this
  // is a separate run from the headline replay above.
  for (auto _ : state) {
    testbed::Testbed bed(testbed::TestbedConfig{}, training());
    const auto compiled = fg::compile_params(fg::learn_params(training()));
    auto make_timed = [compiled] {
      return std::make_unique<detect::FactorGraphDetector>(
          compiled, 0.75, alerts::AttackStage::kInProgress, /*use_timing=*/true);
    };
    const std::vector<std::string> names = {"factor-graph", make_timed()->name()};
    bed.pipeline().add_detector(names.back(), make_timed);
    bed.deploy(0);
    replay::RansomwareScenario ransomware;
    std::vector<replay::Scenario*> scenarios{&ransomware};
    replay::run_scenarios(bed, scenarios, 0);
    util::TextTable table({"factor-graph mode", "pages after entry", "lead (days)"});
    for (const std::string& name : names) {
      const auto note = replay::first_notification_after(bed, 0, name);
      if (!note) {
        table.add_row({name, "never", "-"});
        continue;
      }
      const double lead = static_cast<double>(ransomware.second_wave_time() - note->ts) /
                          util::kDay;
      state.counters[name] = lead;
      table.add_row(
          {name,
           util::fmt_double(static_cast<double>(note->ts - ransomware.entry_time()) /
                                util::kMinute,
                            1) +
               " min",
           util::fmt_double(lead, 2)});
    }
    std::printf("=== Figure 5 lead by factor-graph mode ===\n%s\n", table.render().c_str());
  }
}
BENCHMARK(BM_Fig5_LeadByModel)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig5_SpreadScaling(benchmark::State& state) {
  // Lateral-movement fan-out vs federation size (Fig 5's recursion).
  const auto instances = static_cast<std::size_t>(state.range(0));
  std::size_t compromised = 0;
  for (auto _ : state) {
    testbed::TestbedConfig config;
    config.lifecycle.entry_points = instances;
    config.lifecycle.max_instances = instances + 8;
    testbed::Testbed bed(config, training());
    bed.deploy(0);
    replay::RansomwareScenario ransomware;
    std::vector<replay::Scenario*> scenarios{&ransomware};
    replay::run_scenarios(bed, scenarios, 0);
    compromised = ransomware.compromised().size();
    benchmark::DoNotOptimize(compromised);
  }
  state.counters["compromised"] = static_cast<double>(compromised);
}
BENCHMARK(BM_Fig5_SpreadScaling)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace
