// Figure 4 — testbed workflow and architecture. Measures the end-to-end
// alert path: monitors -> periodic-scan filter -> per-entity detectors ->
// operator notification + BHR response, at production-like alert rates,
// plus the filtering ablation (pipeline cost with and without the
// 25M->191K scan filter).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>

#include "incidents/noise.hpp"
#include "testbed/testbed.hpp"
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

std::vector<alerts::Alert> day_stream(std::size_t budget) {
  incidents::DailyNoiseModel model;
  const auto month = model.sample_month(0, 1);
  return model.materialize_day(month[0], budget);
}

void BM_Fig4_PipelineThroughput(benchmark::State& state) {
  // A full simulated day of background alerts through the live pipeline.
  const auto stream = day_stream(static_cast<std::size_t>(state.range(0)));
  double kept = 0.0;
  double entities = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    bhr::BlackHoleRouter router;
    auto params = fg::learn_params(training());
    testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
    pipeline.add_detector("factor-graph", [&params] {
      return std::make_unique<detect::FactorGraphDetector>(params, 0.75);
    });
    state.ResumeTiming();
    for (const auto& alert : stream) pipeline.on_alert(alert);
    kept = static_cast<double>(pipeline.alerts_after_filter());
    entities = static_cast<double>(pipeline.tracked_entities());
    benchmark::DoNotOptimize(pipeline.notifications().size());
  }
  state.counters["alerts_kept"] = kept;
  state.counters["entities"] = entities;
  state.SetItemsProcessed(static_cast<std::int64_t>(stream.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fig4_PipelineThroughput)
    ->Arg(10'000)
    ->Arg(94'238)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_Fig4_FilterAblation(benchmark::State& state) {
  // Ablation: per-entity detector load with the periodic-scan filter on
  // vs off. Without it every repeated probe hits the detectors — the
  // "analysts would have to analyze all 94K daily alerts" regime.
  const bool filtered = state.range(0) != 0;
  const auto stream = day_stream(40'000);
  auto params = fg::learn_params(training());
  double detector_observations = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    incidents::ScanFilter filter(util::kHour);
    std::unordered_map<std::string, detect::FactorGraphDetector> per_entity;
    state.ResumeTiming();
    std::uint64_t observed = 0;
    for (const auto& alert : stream) {
      if (filtered && !filter.keep(alert)) continue;
      const std::string key = alert.src ? alert.src->str() : alert.host;
      auto [it, inserted] =
          per_entity.try_emplace(key, params, 0.75);
      it->second.observe(alert, observed);
      ++observed;
    }
    detector_observations = static_cast<double>(observed);
    benchmark::DoNotOptimize(observed);
  }
  state.counters["detector_observations"] = detector_observations;
  state.SetLabel(filtered ? "with-scan-filter" : "without-scan-filter");
  state.SetItemsProcessed(static_cast<std::int64_t>(stream.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fig4_FilterAblation)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_Fig4_TestbedDeploy(benchmark::State& state) {
  // Cost of standing up the full deployment: detector training, monitor
  // wiring, 16 entry-point VMs, credential leaks, federation seeding.
  for (auto _ : state) {
    testbed::Testbed bed(testbed::TestbedConfig{}, training());
    bed.deploy(0);
    benchmark::DoNotOptimize(bed.postgres().size());
  }
}
BENCHMARK(BM_Fig4_TestbedDeploy)->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_Fig4_Report(benchmark::State& state) {
  // Summary table for EXPERIMENTS.md.
  const auto stream = day_stream(94'238);
  bhr::BlackHoleRouter router;
  auto params = fg::learn_params(training());
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
  pipeline.add_detector("factor-graph", [&params] {
    return std::make_unique<detect::FactorGraphDetector>(params, 0.75);
  });
  for (auto _ : state) {
    for (const auto& alert : stream) pipeline.on_alert(alert);
  }
  static std::once_flag once;
  std::call_once(once, [&] {
    util::TextTable table({"pipeline stage", "value"});
    table.add_row({"alerts in (one day)", util::fmt_count(pipeline.alerts_in())});
    table.add_row({"after periodic-scan filter", util::fmt_count(pipeline.alerts_after_filter())});
    table.add_row({"tracked entities", util::fmt_count(pipeline.tracked_entities())});
    table.add_row({"operator notifications", util::fmt_count(pipeline.notifications().size())});
    // Accepted block() calls, ever: the audit ring also holds refusals
    // and unblocks, and keeps only the newest 65,536 records.
    table.add_row({"BHR blocks issued", util::fmt_count(router.stats(0).blocks_accepted)});
    std::printf("\n=== Figure 4: one day of background traffic through the pipeline ===\n%s\n",
                table.render().c_str());
  });
}
BENCHMARK(BM_Fig4_Report)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
