// Always-on daemon throughput: sustained alerts/s through DetectionDaemon
// under continuous zero-copy batch submits, plus an ingest-ring depth
// histogram showing the backpressure envelope (bounded rings, never
// unbounded queueing). Two phases:
//
//   1. Oracle: the daemon's released verdict stream over one day of
//      synthetic traffic must be byte-identical to the serial
//      AlertPipeline's notifications (same detectors, same input). The
//      process exits nonzero on any divergence — this bench is a
//      correctness gate first and a stopwatch second.
//   2. Steady state: repeated passes of the same parsed batch through a
//      fresh daemon (cheap critical-alert detector) until enough wall time
//      has accumulated, sampling ring depths every 256 submits into log2
//      buckets and draining the typed alert queue as an operator would.
//
// Standalone main (not google-benchmark): the artifact is a machine-
// readable BENCH_daemon.json at the repo root.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
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
#include "testbed/pipeline.hpp"
#include "util/strings.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Same day-of-traffic shape as bench_ingest_pipeline: background noise
/// with incident timelines folded in, time-sorted.
std::vector<alerts::Alert> synthesize(std::size_t budget) {
  incidents::DailyNoiseModel noise;
  const auto month = noise.sample_month(0, 1);
  auto stream = noise.materialize_day(month[0], budget);
  incidents::CorpusConfig config;
  config.repetition_scale = 0.05;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  for (const auto& incident : corpus.incidents) {
    for (const auto& entry : incident.timeline) {
      auto alert = entry.alert;
      alert.ts = ((alert.ts % util::kDay) + util::kDay) % util::kDay;
      stream.push_back(std::move(alert));
    }
  }
  sort_timeline(stream);
  return stream;
}

void add_detectors(auto& sink, const fg::ModelParams& params) {
  sink.add_detector("critical-alert",
                    [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  auto compiled = fg::compile_params(params);
  sink.add_detector("factor-graph", [compiled = std::move(compiled)] {
    return std::make_unique<detect::FactorGraphDetector>(compiled, 0.75);
  });
}

std::string render_serial(const std::vector<testbed::Notification>& notes) {
  std::ostringstream out;
  for (const auto& note : notes) {
    out << note.ts << '\t' << note.entity << '\t' << note.detector << '\t' << note.reason
        << '\t' << note.score << '\t' << (note.source ? note.source->str() : "-") << '\n';
  }
  return out.str();
}

std::string render_verdicts(const std::vector<alerts::AlertQueue::Ptr>& verdicts) {
  std::ostringstream out;
  for (const auto& alert : verdicts) {
    const auto& v = static_cast<const alerts::VerdictAlert&>(*alert);
    out << v.ts << '\t' << v.entity << '\t' << v.detector << '\t' << v.reason << '\t'
        << v.score << '\t' << (v.source ? v.source->str() : "-") << '\n';
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t budget = 1'000'000;
  double min_seconds = 1.0;  // steady-state measurement window
  std::string out_path = "BENCH_daemon.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--alerts") == 0) budget = std::stoull(argv[i + 1]);
    if (std::strcmp(argv[i], "--seconds") == 0) min_seconds = std::stod(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("synthesizing ~%zu alerts...\n", budget);
  const auto stream = synthesize(budget);
  const std::string log_text = alerts::write_notice_log(stream);
  const auto batch = alerts::parse_notice_batch(log_text);
  std::printf("%zu alerts, %s of notice log\n", batch.size(),
              util::fmt_bytes(log_text.size()).c_str());

  incidents::CorpusConfig train_config;
  train_config.repetition_scale = 0.02;
  train_config.seed = 7;
  const auto params =
      fg::learn_params(incidents::CorpusGenerator(train_config).generate());

  // --- phase 1: verdict-stream oracle against the serial pipeline --------
  bhr::BlackHoleRouter serial_router;
  testbed::AlertPipeline serial(testbed::PipelineConfig{}, &serial_router);
  add_detectors(serial, params);
  const auto serial_start = Clock::now();
  for (const auto& alert : stream) serial.on_alert(alert);
  const double serial_seconds = seconds_since(serial_start);

  bhr::BlackHoleRouter daemon_router;
  testbed::DetectionDaemon oracle_daemon(testbed::DaemonConfig{}, &daemon_router);
  add_detectors(oracle_daemon, params);
  const auto oracle_start = Clock::now();
  for (std::size_t row = 0; row < batch.size(); ++row) {
    oracle_daemon.submit(batch, row);
  }
  oracle_daemon.drain_idle();
  const double oracle_seconds = seconds_since(oracle_start);
  const auto verdicts = oracle_daemon.drain_alerts(alerts::DaemonAlert::kVerdict);

  const std::string serial_rendered = render_serial(serial.notifications());
  const std::string daemon_rendered = render_verdicts(verdicts);
  const bool identical = serial_rendered == daemon_rendered &&
                         daemon_router.audit_log().size() ==
                             serial_router.audit_log().size();
  std::printf("serial:  %.2fs  %.0f alerts/s  (%zu notifications)\n", serial_seconds,
              static_cast<double>(stream.size()) / serial_seconds,
              serial.notifications().size());
  std::printf("daemon:  %.2fs  %.0f alerts/s  verdict stream %s\n", oracle_seconds,
              static_cast<double>(batch.size()) / oracle_seconds,
              identical ? "identical" : "DIFFERS");

  // --- phase 2: sustained throughput + ring-depth histogram --------------
  // Cheap detector so the stopwatch times the daemon (routing, rings,
  // merge), not factor-graph math; repeated passes of the same batch give
  // a steady-state stream of arbitrary length.
  testbed::DaemonConfig steady_config;
  testbed::DetectionDaemon steady(steady_config, nullptr);
  steady.add_detector("critical-alert",
                      [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  std::vector<std::uint64_t> depth_histogram(1, 0);  // log2 buckets, grown on demand
  const auto bucket_of = [](std::size_t depth) {
    std::size_t bucket = 0;
    while (depth != 0) {
      ++bucket;
      depth >>= 1;
    }
    return bucket;  // 0 -> empty ring, k -> depth in [2^(k-1), 2^k)
  };
  std::uint64_t submitted = 0;
  std::uint64_t drained_alerts = 0;
  std::size_t passes = 0;
  const auto steady_start = Clock::now();
  do {
    ++passes;
    for (std::size_t row = 0; row < batch.size(); ++row) {
      steady.submit(batch, row);
      if (++submitted % 256 == 0) {
        const auto depths = steady.ring_depths();
        const std::size_t deepest = *std::max_element(depths.begin(), depths.end());
        const std::size_t bucket = bucket_of(deepest);
        if (bucket >= depth_histogram.size()) depth_histogram.resize(bucket + 1, 0);
        ++depth_histogram[bucket];
      }
    }
    // Operator pull: keep the (unbounded-by-design) typed queue drained.
    drained_alerts += steady.drain_alerts().size();
  } while (seconds_since(steady_start) < min_seconds);
  steady.drain_idle();
  const double steady_seconds = seconds_since(steady_start);
  drained_alerts += steady.drain_alerts().size();
  const auto stats = steady.stats();
  const double sustained = static_cast<double>(submitted) / steady_seconds;
  std::printf("steady:  %zu passes, %llu submits in %.2fs -> %.0f alerts/s sustained\n",
              passes, static_cast<unsigned long long>(submitted), steady_seconds,
              sustained);
  std::printf("         max ring depth %llu / %llu, %llu rejected, %llu queue alerts\n",
              static_cast<unsigned long long>(stats.max_ring_depth),
              static_cast<unsigned long long>(stats.ring_capacity),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(drained_alerts));
  std::printf("         %llu worker parks, %llu wakeups\n",
              static_cast<unsigned long long>(stats.worker_parks),
              static_cast<unsigned long long>(stats.worker_wakeups));

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"daemon\",\n"
       << "  \"alerts\": " << batch.size() << ",\n"
       << "  \"serial\": {\"seconds\": " << serial_seconds << ", \"alerts_per_s\": "
       << static_cast<double>(stream.size()) / serial_seconds << "},\n"
       << "  \"oracle\": {\"seconds\": " << oracle_seconds << ", \"alerts_per_s\": "
       << static_cast<double>(batch.size()) / oracle_seconds
       << ", \"verdicts\": " << verdicts.size()
       << ", \"identical_output\": " << (identical ? "true" : "false") << "},\n"
       << "  \"steady\": {\"passes\": " << passes << ", \"submitted\": " << submitted
       << ", \"seconds\": " << steady_seconds << ", \"alerts_per_s\": " << sustained
       << ", \"rejected\": " << stats.rejected
       << ", \"max_ring_depth\": " << stats.max_ring_depth
       << ", \"ring_capacity\": " << stats.ring_capacity
       << ", \"worker_parks\": " << stats.worker_parks
       << ", \"worker_wakeups\": " << stats.worker_wakeups
       << ", \"queue_alerts_drained\": " << drained_alerts << "},\n"
       << "  \"ring_depth_histogram_log2\": [";
  for (std::size_t i = 0; i < depth_histogram.size(); ++i) {
    if (i != 0) json << ", ";
    json << depth_histogram[i];
  }
  json << "],\n"
       << "  \"identical_output\": " << (identical ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return identical ? 0 : 1;
}
