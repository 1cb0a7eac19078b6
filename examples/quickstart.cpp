// Quickstart: the library in ~80 lines.
//
// 1. Generate the calibrated incident corpus (the stand-in for NCSA's
//    24-year dataset).
// 2. Train the factor-graph preemption model on half of it.
// 3. Stream a held-out attack through the detector and watch it fire
//    *before* the damage-stage alert.
// 4. Run the same stream through the always-on DetectionDaemon, with the
//    deployed detector stack, and pull the typed alert queue the way a
//    live operator would (docs/daemon.md).
//
// Build & run:  cmake --build build && ./build/examples/example_quickstart

#include <cstdio>
#include <utility>

#include "detect/eval.hpp"
#include "testbed/daemon.hpp"
#include "testbed/deployed.hpp"

int main() {
  using namespace at;

  // --- 1. a corpus with the paper's aggregate statistics -----------------
  incidents::CorpusConfig config;
  config.repetition_scale = 0.05;  // smaller repeated-scan bursts for a demo
  const incidents::Corpus corpus = incidents::CorpusGenerator(config).generate();
  std::printf("corpus: %zu incidents, %llu raw alerts, %llu filtered\n",
              corpus.stats.incidents,
              static_cast<unsigned long long>(corpus.stats.raw_alerts),
              static_cast<unsigned long long>(corpus.stats.filtered_alerts));

  // --- 2. train the AttackTagger factor-graph detector -------------------
  const detect::Split split = detect::split_corpus(corpus);
  detect::FactorGraphDetector detector =
      detect::FactorGraphDetector::train(split.train, /*threshold=*/0.75);
  std::printf("trained on %zu incidents; evaluating on %zu held-out attacks\n",
              split.train.incidents.size(), split.test.size());

  // --- 3. stream one held-out attack through the detector ----------------
  const detect::Stream stream = detect::attack_stream(split.test.front());
  std::printf("\nreplaying '%s' (%zu alerts)...\n", stream.label.c_str(),
              stream.alerts.size());
  detector.reset();
  for (std::size_t i = 0; i < stream.alerts.size(); ++i) {
    const auto detection = detector.observe(stream.alerts[i], i);
    if (!detection) continue;
    std::printf("  DETECTED at alert %zu/%zu: %s\n", i + 1, stream.alerts.size(),
                detection->reason.c_str());
    std::printf("    alert: %s\n", stream.alerts[i].str().c_str());
    if (stream.damage_ts) {
      const double lead_h =
          static_cast<double>(*stream.damage_ts - detection->ts) / util::kHour;
      std::printf("    damage would land %.1f hours later -> attack preempted\n", lead_h);
    } else {
      std::printf("    (this incident recorded no critical alert at all)\n");
    }
    break;
  }

  // --- 4. the same stream, daemon-style ----------------------------------
  // Production runs the deployed stack (factor graph, then rule-based)
  // inside the always-on DetectionDaemon: submit alerts as they arrive,
  // pull typed results by category mask.
  testbed::DetectionDaemon daemon(testbed::DaemonConfig{}, /*router=*/nullptr);
  for (auto& [name, factory] :
       testbed::deployed_detectors(testbed::train_model(split.train), 0.75)) {
    daemon.add_detector(std::move(name), std::move(factory));
  }
  for (const auto& alert : stream.alerts) daemon.submit(alert);
  daemon.drain_idle();
  std::printf("\noperator queue for the same attack:\n");
  for (const auto& out : daemon.drain_alerts(alerts::DaemonAlert::kVerdict |
                                             alerts::DaemonAlert::kLifecycle)) {
    std::printf("  [%s] %s\n", alerts::category_name(out->category()),
                out->str().c_str());
  }
  daemon.stop();

  // --- bonus: the whole test set in two lines -----------------------------
  std::vector<detect::Stream> attacks;
  for (const auto& incident : split.test) attacks.push_back(detect::attack_stream(incident));
  const auto result = detect::evaluate(detector, attacks, {});
  std::printf("\ntest set: recall %.3f, preemption rate %.3f, mean lead %.2f days\n",
              result.recall(), result.preemption_rate(),
              result.lead_seconds.mean() / util::kDay);
  return 0;
}
