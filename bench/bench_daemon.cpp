// Detection-path bench: one synthetic day of notices (~1M lines of
// background noise with incident timelines folded in) through the serial
// oracle and through DetectionDaemon, then the daemon's routing ceiling. The
// day is synthesized, serialized and parsed once. Three phases:
//
//   1. Serial baseline: parse_notice_batch, then an owning Alert per row
//      (materialize), then AlertPipeline one alert at a time — the
//      reference oracle. Phases 1 and 2 run the deployed detector stack
//      (testbed::deployed_detectors: factor-graph, then rule-based).
//   2. Daemon at 1, 2, 4 and 8 shards over the one parse_notice_batch
//      (zero-copy columns): blocking batch-row submits, then drain to idle.
//      Each run's verdict stream, kept count and BHR audit trail must be
//      byte-identical to the serial run's; the process exits 1 on any
//      divergence — this bench is a correctness gate first and a
//      stopwatch second. End-to-end time is the batch parse plus the run.
//   3. Routing ceiling: repeated passes of the same parsed batch through a
//      fresh daemon until enough wall time has accumulated, sampling ring
//      depths every 256 submits into log2 buckets and draining the typed
//      alert queue as an operator would. It runs the cheap critical-alert
//      detector, not the deployed stack, so its alerts/s bounds what
//      routing, rings and merge sustain; it is not detection throughput.
//
// Standalone main (not google-benchmark): the artifact is a machine-
// readable BENCH_daemon.json at the repo root that records the host and
// build it came from.
//
//   bench_daemon [--alerts N] [--seconds S] [--out FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alerts/queue.hpp"
#include "alerts/zeeklog.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "incidents/generator.hpp"
#include "incidents/noise.hpp"
#include "net/ipv4.hpp"
#include "testbed/daemon.hpp"
#include "testbed/deployed.hpp"
#include "testbed/pipeline.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

#include "host_info.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ~`budget` alerts of background noise with attack-incident timelines
/// spliced in, time-sorted — the shape of one heavy day on the /16.
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
      // Fold the multi-year corpus into the bench day so incidents
      // interleave with noise instead of trailing it.
      alert.ts = ((alert.ts % util::kDay) + util::kDay) % util::kDay;
      stream.push_back(std::move(alert));
    }
  }
  sort_timeline(stream);
  return stream;
}

void add_detectors(auto& sink, const testbed::DeployedModel& model) {
  for (auto& [name, factory] : testbed::deployed_detectors(model, 0.75)) {
    sink.add_detector(std::move(name), std::move(factory));
  }
}

// Verdicts in release order, then the BHR audit trail: the bytes every
// daemon run must reproduce (scores at round-trip precision).
void render_verdict(std::ostringstream& out, util::SimTime ts, const std::string& entity,
                    const std::string& detector, const std::string& reason, double score,
                    const std::optional<net::Ipv4>& source) {
  out << ts << '\t' << entity << '\t' << detector << '\t' << reason << '\t' << score
      << '\t' << (source ? source->str() : "-") << '\n';
}

void render_audit(std::ostringstream& out, const std::vector<bhr::ApiCall>& audit) {
  for (const auto& call : audit) {
    out << call.ts << '\t' << call.method << '\t' << call.source.str() << '/'
        << call.prefix_len << '\t' << call.client << '\t' << call.ok << '\n';
  }
}

struct SerialRun {
  double parse_seconds = 0.0;
  double detect_seconds = 0.0;
  std::size_t alerts = 0;
  std::size_t verdicts = 0;
  std::size_t bhr_calls = 0;
  std::uint64_t kept = 0;
  std::string rendered;
};

SerialRun run_serial(const std::string& log_text, const testbed::DeployedModel& model) {
  SerialRun run;
  const auto parse_start = Clock::now();
  std::vector<alerts::Alert> parsed;
  {
    const auto batch = alerts::parse_notice_batch(log_text);
    parsed.reserve(batch.size());
    for (std::size_t row = 0; row < batch.size(); ++row) parsed.push_back(batch.materialize(row));
  }
  run.parse_seconds = seconds_since(parse_start);
  bhr::BlackHoleRouter router;
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
  add_detectors(pipeline, model);
  const auto detect_start = Clock::now();
  for (const auto& alert : parsed) pipeline.on_alert(alert);
  run.detect_seconds = seconds_since(detect_start);

  run.alerts = parsed.size();
  run.verdicts = pipeline.notifications().size();
  run.kept = pipeline.alerts_after_filter();
  const auto audit = router.audit_log();
  run.bhr_calls = audit.size();
  std::ostringstream out;
  out.precision(17);
  for (const auto& note : pipeline.notifications()) {
    render_verdict(out, note.ts, note.entity, note.detector, note.reason, note.score,
                   note.source);
  }
  render_audit(out, audit);
  run.rendered = out.str();
  return run;
}

struct DaemonRun {
  std::size_t shards = 0;
  double detect_seconds = 0.0;
  bool identical = false;
};

DaemonRun run_daemon(const alerts::AlertBatch& batch, const testbed::DeployedModel& model,
                     std::size_t shards, const SerialRun& serial) {
  testbed::DaemonConfig config;
  config.shards = shards;
  bhr::BlackHoleRouter router;
  testbed::DetectionDaemon daemon(config, &router);
  add_detectors(daemon, model);
  const auto start = Clock::now();
  for (std::size_t row = 0; row < batch.size(); ++row) daemon.submit(batch, row);
  daemon.drain_idle();
  DaemonRun run;
  run.shards = shards;
  run.detect_seconds = seconds_since(start);

  std::ostringstream out;
  out.precision(17);
  for (const auto& alert : daemon.drain_alerts(alerts::DaemonAlert::kVerdict)) {
    const auto& v = static_cast<const alerts::VerdictAlert&>(*alert);
    render_verdict(out, v.ts, v.entity, v.detector, v.reason, v.score, v.source);
  }
  render_audit(out, router.audit_log());
  run.identical = out.str() == serial.rendered && daemon.stats().kept == serial.kept;
  return run;
}

struct SteadyRun {
  std::size_t passes = 0;
  std::uint64_t submitted = 0;
  std::uint64_t drained_alerts = 0;
  double seconds = 0.0;
  std::vector<std::uint64_t> depth_histogram;  ///< log2 buckets of the deepest ring
  alerts::DaemonStats stats;
};

/// Cheap detector so the stopwatch times the daemon (routing, rings,
/// merge), not factor-graph math; repeated passes of the same batch give
/// a steady-state stream of arbitrary length.
SteadyRun run_steady(const alerts::AlertBatch& batch, double min_seconds) {
  testbed::DetectionDaemon daemon(testbed::DaemonConfig{}, nullptr);
  daemon.add_detector("critical-alert",
                      [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  const auto bucket_of = [](std::size_t depth) {
    std::size_t bucket = 0;
    while (depth != 0) {
      ++bucket;
      depth >>= 1;
    }
    return bucket;  // 0 -> empty ring, k -> depth in [2^(k-1), 2^k)
  };
  SteadyRun run;
  run.depth_histogram.assign(1, 0);
  const auto start = Clock::now();
  do {
    ++run.passes;
    for (std::size_t row = 0; row < batch.size(); ++row) {
      daemon.submit(batch, row);
      if (++run.submitted % 256 == 0) {
        const auto depths = daemon.ring_depths();
        const std::size_t bucket = bucket_of(*std::max_element(depths.begin(), depths.end()));
        if (bucket >= run.depth_histogram.size()) run.depth_histogram.resize(bucket + 1, 0);
        ++run.depth_histogram[bucket];
      }
    }
    // Operator pull: keep the (unbounded-by-design) typed queue drained.
    run.drained_alerts += daemon.drain_alerts().size();
  } while (seconds_since(start) < min_seconds);
  daemon.drain_idle();
  run.seconds = seconds_since(start);
  run.drained_alerts += daemon.drain_alerts().size();
  run.stats = daemon.stats();
  return run;
}

int usage_error(const char* flag, const char* value) {
  std::fprintf(stderr, "bench_daemon: %s expects a number, got '%s'\n", flag, value);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t budget = 1'000'000;
  double min_seconds = 1.0;  // steady-state measurement window
  std::string out_path = "BENCH_daemon.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--alerts") == 0) {
      const auto value = util::parse_num<std::size_t>(argv[i + 1]);
      if (!value) return usage_error(argv[i], argv[i + 1]);
      budget = *value;
    }
    if (std::strcmp(argv[i], "--seconds") == 0) {
      const auto value = util::parse_double(argv[i + 1]);
      if (!value) return usage_error(argv[i], argv[i + 1]);
      min_seconds = *value;
    }
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("synthesizing ~%zu alerts...\n", budget);
  const std::string log_text = alerts::write_notice_log(synthesize(budget));

  incidents::CorpusConfig train_config;
  train_config.repetition_scale = 0.02;
  train_config.seed = 7;
  const auto model =
      testbed::train_model(incidents::CorpusGenerator(train_config).generate());

  // --- phase 1: serial baseline -----------------------------------------
  const SerialRun serial = run_serial(log_text, model);
  const double serial_seconds = serial.parse_seconds + serial.detect_seconds;
  const auto alert_count = static_cast<double>(serial.alerts);
  std::printf("%zu alerts, %s of notice log\n", serial.alerts,
              util::fmt_bytes(log_text.size()).c_str());
  std::printf("serial:     %.2fs (parse %.2fs)  %.0f alerts/s  (%zu verdicts, %zu BHR calls)\n",
              serial_seconds, serial.parse_seconds, alert_count / serial_seconds,
              serial.verdicts, serial.bhr_calls);

  // --- phase 2: daemon at 1..8 shards against the serial oracle -----------
  const auto parse_start = Clock::now();
  const auto batch = alerts::parse_notice_batch(log_text);  // the copy is timed too
  const double parse_seconds = seconds_since(parse_start);
  std::vector<DaemonRun> runs;
  bool identical = batch.size() == serial.alerts;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    const DaemonRun run = run_daemon(batch, model, shards, serial);
    const double seconds = parse_seconds + run.detect_seconds;
    identical = identical && run.identical;
    std::printf("daemon(%zu): %.2fs (parse %.2fs)  %.0f alerts/s  speedup %.2fx  output %s\n",
                shards, seconds, parse_seconds, alert_count / seconds, serial_seconds / seconds,
                run.identical ? "identical" : "DIFFERS");
    runs.push_back(run);
  }

  // --- phase 3: routing ceiling + ring-depth histogram -------------------
  const SteadyRun steady = run_steady(batch, min_seconds);
  const double sustained = static_cast<double>(steady.submitted) / steady.seconds;
  std::printf("routing ceiling (critical-alert detector, not detection throughput):\n");
  std::printf("            %zu passes, %llu submits in %.2fs -> %.0f alerts/s sustained\n",
              steady.passes, static_cast<unsigned long long>(steady.submitted),
              steady.seconds, sustained);
  std::printf("            max ring depth %llu / %llu, %llu rejected, %llu queue alerts\n",
              static_cast<unsigned long long>(steady.stats.max_ring_depth),
              static_cast<unsigned long long>(steady.stats.ring_capacity),
              static_cast<unsigned long long>(steady.stats.rejected),
              static_cast<unsigned long long>(steady.drained_alerts));
  std::printf("            %llu worker parks, %llu wakeups\n",
              static_cast<unsigned long long>(steady.stats.worker_parks),
              static_cast<unsigned long long>(steady.stats.worker_wakeups));

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"daemon\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"alerts\": " << serial.alerts << ",\n"
       << "  \"log_bytes\": " << log_text.size() << ",\n"
       << "  \"serial\": {\"parse_seconds\": " << serial.parse_seconds
       << ", \"detect_seconds\": " << serial.detect_seconds
       << ", \"seconds\": " << serial_seconds
       << ", \"alerts_per_s\": " << alert_count / serial_seconds
       << ", \"verdicts\": " << serial.verdicts << ", \"bhr_calls\": " << serial.bhr_calls
       << "},\n"
       << "  \"batch_parse_seconds\": " << parse_seconds << ",\n"
       << "  \"sharded\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double seconds = parse_seconds + runs[i].detect_seconds;
    json << (i == 0 ? "\n" : ",\n") << "    {\"shards\": " << runs[i].shards
         << ", \"detect_seconds\": " << runs[i].detect_seconds
         << ", \"seconds\": " << seconds << ", \"alerts_per_s\": " << alert_count / seconds
         << ", \"speedup_vs_serial\": " << serial_seconds / seconds
         << ", \"identical_output\": " << (runs[i].identical ? "true" : "false") << "}";
  }
  json << "\n  ],\n"
       << "  \"routing_ceiling\": {\"detector\": \"critical-alert\", \"passes\": "
       << steady.passes
       << ", \"submitted\": " << steady.submitted << ", \"seconds\": " << steady.seconds
       << ", \"alerts_per_s\": " << sustained << ", \"rejected\": " << steady.stats.rejected
       << ", \"max_ring_depth\": " << steady.stats.max_ring_depth
       << ", \"ring_capacity\": " << steady.stats.ring_capacity
       << ", \"worker_parks\": " << steady.stats.worker_parks
       << ", \"worker_wakeups\": " << steady.stats.worker_wakeups
       << ", \"queue_alerts_drained\": " << steady.drained_alerts << "},\n"
       << "  \"ring_depth_histogram_log2\": [";
  for (std::size_t i = 0; i < steady.depth_histogram.size(); ++i) {
    if (i != 0) json << ", ";
    json << steady.depth_histogram[i];
  }
  json << "],\n"
       << "  \"identical_output\": " << (identical ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  if (!identical) {
    std::fprintf(stderr, "bench_daemon: daemon output differs from the serial pipeline\n");
  }
  return identical ? 0 : 1;
}
