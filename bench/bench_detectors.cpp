// Detector ablation — the paper's central comparative argument (Remark 2,
// Insight 2, Insight 4): a conditional-probability (factor-graph) model
// preempts attacks that the critical-alert baseline only confirms after
// damage, and keeps precision where single-alert thresholds drown. Also
// runs the Insight-2 prefix sweep (recall vs observed core alerts 1..8)
// and a factor-graph threshold sweep. The factor-graph rows run the stage
// chain with and without timing.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <mutex>

#include "detect/eval.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace at;

struct Workbench {
  detect::Split split;
  std::vector<detect::Stream> attacks;
  std::vector<detect::Stream> benign;
};

const Workbench& workbench() {
  static const Workbench bench = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.05;
    const auto corpus = incidents::CorpusGenerator(config).generate();
    Workbench w;
    w.split = detect::split_corpus(corpus);
    for (const auto& incident : w.split.test) {
      w.attacks.push_back(detect::attack_stream(incident));
    }
    incidents::DailyNoiseModel noise;
    w.benign = detect::benign_streams(noise, 0, 30, 1000);
    return w;
  }();
  return bench;
}

std::unique_ptr<detect::Detector> make_detector(int which) {
  switch (which) {
    case 0:
      return std::make_unique<detect::FactorGraphDetector>(
          detect::FactorGraphDetector::train(workbench().split.train, 0.75));
    case 1:
      return std::make_unique<detect::RuleBasedDetector>(
          detect::RuleBasedDetector::train(workbench().split.train.incidents));
    case 2:
      return std::make_unique<detect::CriticalAlertDetector>();
    case 3:
      return std::make_unique<detect::ThresholdDetector>(alerts::Severity::kWarning);
    default:
      // Insight-3 ablation: factor graph conditioned on gap buckets too.
      return std::make_unique<detect::FactorGraphDetector>(
          detect::FactorGraphDetector::train(workbench().split.train, 0.75,
                                             /*use_timing=*/true));
  }
}

constexpr int kDetectors = 5;

void report_all() {
  static std::once_flag once;
  std::call_once(once, [] {
    util::TextTable table({"detector", "precision", "recall", "preemption rate",
                           "mean lead (events)", "mean lead (days)", "benign-day FPs"});
    for (int which = 0; which < kDetectors; ++which) {
      auto detector = make_detector(which);
      const auto result =
          detect::evaluate(*detector, workbench().attacks, workbench().benign);
      table.add_row({result.detector, util::fmt_double(result.precision(), 3),
                     util::fmt_double(result.recall(), 3),
                     util::fmt_double(result.preemption_rate(), 3),
                     util::fmt_double(result.lead_events.mean(), 1),
                     util::fmt_double(result.lead_seconds.mean() / util::kDay, 2),
                     std::to_string(result.false_positives) + "/" +
                         std::to_string(result.benign_streams)});
    }
    std::printf("\n=== Detector ablation (test half of the corpus, 30 benign days) ===\n%s\n",
                table.render().c_str());

    // Insight 2: recall vs number of observed core alerts.
    util::TextTable prefix({"observed core alerts", "factor-graph recall",
                            "rule-based recall", "critical-alert recall"});
    auto fg = make_detector(0);
    auto rules = make_detector(1);
    auto crit = make_detector(2);
    for (const std::size_t k : {1u, 2u, 3u, 4u, 5u, 6u, 8u}) {
      prefix.add_row({std::to_string(k),
                      util::fmt_double(detect::recall_at_prefix(*fg, workbench().attacks, k), 3),
                      util::fmt_double(detect::recall_at_prefix(*rules, workbench().attacks, k), 3),
                      util::fmt_double(detect::recall_at_prefix(*crit, workbench().attacks, k), 3)});
    }
    std::printf("=== Insight 2: recall vs observed prefix (effective range 2-4) ===\n%s\n",
                prefix.render().c_str());

    // Threshold sweep for the factor-graph detector.
    util::TextTable sweep({"fg threshold", "precision", "recall", "preemption", "lead (days)"});
    for (const double threshold : {0.3, 0.5, 0.75, 0.9, 0.97}) {
      detect::FactorGraphDetector detector(
          detect::FactorGraphDetector::train(workbench().split.train, threshold));
      const auto result =
          detect::evaluate(detector, workbench().attacks, workbench().benign);
      sweep.add_row({util::fmt_double(threshold, 2), util::fmt_double(result.precision(), 3),
                     util::fmt_double(result.recall(), 3),
                     util::fmt_double(result.preemption_rate(), 3),
                     util::fmt_double(result.lead_seconds.mean() / util::kDay, 2)});
    }
    std::printf("=== Ablation: factor-graph firing threshold ===\n%s\n", sweep.render().c_str());
  });
}

void BM_Detector_Evaluate(benchmark::State& state) {
  auto detector = make_detector(static_cast<int>(state.range(0)));
  detect::EvalResult result;
  for (auto _ : state) {
    result = detect::evaluate(*detector, workbench().attacks, workbench().benign);
    benchmark::DoNotOptimize(result.true_positives);
  }
  state.SetLabel(result.detector);
  state.counters["precision"] = result.precision();
  state.counters["recall"] = result.recall();
  state.counters["preemption"] = result.preemption_rate();
  std::int64_t alerts = 0;
  for (const auto& s : workbench().attacks) alerts += static_cast<std::int64_t>(s.alerts.size());
  for (const auto& s : workbench().benign) alerts += static_cast<std::int64_t>(s.alerts.size());
  state.SetItemsProcessed(alerts * static_cast<std::int64_t>(state.iterations()));
  report_all();
}
BENCHMARK(BM_Detector_Evaluate)->DenseRange(0, kDetectors - 1)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_Detector_Training(benchmark::State& state) {
  // Model learning cost (counts + smoothing over the training half).
  const bool rules = state.range(0) != 0;
  for (auto _ : state) {
    if (rules) {
      benchmark::DoNotOptimize(
          detect::RuleBasedDetector::train(workbench().split.train.incidents)
              .signatures().size());
    } else {
      benchmark::DoNotOptimize(
          fg::learn_params(workbench().split.train).log_emission.data());
    }
  }
  state.SetLabel(rules ? "rule-based" : "factor-graph");
}
BENCHMARK(BM_Detector_Training)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
