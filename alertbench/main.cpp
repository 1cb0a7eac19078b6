// Alert-path benchmark binary. Usage:
//
//   alertbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <path>] [--source-id <id>]
//
// Builds the workload's inputs from the seed and computes its oracle
// outputs, then runs repetitions in this process (each: program set-up,
// timed phase, output checks). The first repetition warms the allocator
// and measures peak_rss_mb; the timed repetitions that follow reuse the
// memory it faulted in, so a repetition's time is the program's work and
// not the host's page-fault cost. --trace 0 repeats until --seconds of
// timed work has accumulated and reports the end-to-end metrics; --trace 1
// runs untraced repetitions and one traced repetition and reports the
// per-layer metrics. Prints every metric with its unit, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when any output check or workload-shape guard fails.

#include <malloc.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "recorder.hpp"
#include "workloads.hpp"

namespace {

using alertbench::RepResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Order and units match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"inputs_per_s", "1/s"},
    {"verdict_latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"incidents.filter_ns_per_alert", "ns"},
    {"incidents.filter_keep_ratio", "ratio"},
    {"testbed.submit_ns_per_alert", "ns"},
    {"testbed.coordinator_share", "ratio"},
    {"testbed.reject_ratio", "ratio"},
    {"testbed.drain_wait_s", "s"},
    {"testbed.worker_busy_share", "ratio"},
    {"testbed.ring_depth_p50", "count"},
    {"testbed.ring_depth_max", "count"},
    {"testbed.pump_ns_per_verdict", "ns"},
    {"testbed.tracked_entities", "count"},
    {"testbed.evicted_entities", "count"},
    {"testbed.checkpoints", "count"},
    {"testbed.serial_inputs_per_s", "1/s"},
    {"testbed.correlator_ns_per_alert", "ns"},
    {"testbed.correlator_forward_ratio", "ratio"},
    {"testbed.pipeline_ns_per_alert", "ns"},
    {"testbed.ssh_audit_ns_per_flow", "ns"},
    {"detect.rules_observe_ns", "ns"},
    {"detect.factory_ns", "ns"},
    {"detect.fire_ratio", "ratio"},
    {"fg.forward_observe_ns", "ns"},
    {"fg.learn_s", "s"},
    {"bhr.block_ns", "ns"},
    {"bhr.filter_batch_ns_per_flow", "ns"},
    {"bhr.drop_ratio", "ratio"},
    {"bhr.scan_record_ns_per_flow", "ns"},
    {"bhr.expire_ns_per_call", "ns"},
    {"bhr.populate_s", "s"},
    {"monitors.zeek_self_ns_per_flow", "ns"},
    {"monitors.notices_per_kflow", "count"},
    {"monitors.zeek_tracked_sources", "count"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.events_executed", "count"},
    {"bench.verdict_latency_p99_us", "us"},
    {"bench.span_coverage", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.failed_share", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  std::string source_id = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (key == "--spans") {
      args.spans = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

/// One repetition in this process; a repetition that throws counts as one
/// failed operation.
RepResult run_rep(alertbench::Workload& workload, bool traced, bool setup_only = false) {
  RepResult r;
  try {
    if (setup_only) {
      workload.setup_only(r);
    } else {
      workload.run_rep(traced, r);
    }
  } catch (const std::exception& error) {
    r = RepResult{};
    r.failed = 1;
    r.failures.push_back(std::string("repetition threw: ") + error.what());
  }
  return r;
}

/// The host probe's median time on the reference box in a quiet stretch
/// (see README.md): a host factor of 1.
constexpr double kProbeReferenceMs = 15.0;

/// A fixed, program-independent kernel shaped like the testbed's hot
/// paths: 100,000 inserts into a fresh hash map, then 200,000 random
/// lookups. On the shared reference box its time follows the load other
/// tenants put on the caches and memory the way live_flows' time does, so
/// it measures how fast the host is right now.
double host_probe_ms() {
  const std::int64_t start = alertbench::now_ns();
  std::uint64_t x = 7;
  std::uint64_t found = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> map;
  for (int i = 0; i < 100'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    map[static_cast<std::uint32_t>(x >> 32)] = x;
  }
  for (int i = 0; i < 200'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto it = map.find(static_cast<std::uint32_t>(x >> 32));
    if (it != map.end()) found += it->second;
  }
  const double ms = static_cast<double>(alertbench::now_ns() - start) * 1e-6;
  // Keep the lookups observable so they are not optimised away.
  return found == 1 ? ms + 1e-12 : ms;
}

/// Return the garbage of input generation to the system, keep every later
/// free inside the process, and restart the peak-RSS count: the first
/// repetition then measures the memory the program adds, and the ones
/// after it reuse that memory without faulting.
void settle_allocator() {
  malloc_trim(0);
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: alertbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>] [--source-id <id>]\n");
    return 2;
  }
  auto workload = alertbench::make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "alertbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const std::int64_t gen_start = alertbench::now_ns();
  workload->prepare(args.seed);
  const double gen_s = static_cast<double>(alertbench::now_ns() - gen_start) * 1e-9;

  // Provenance: which machine, build and inputs produced these numbers.
  std::ostringstream provenance;
  provenance << "{\"provenance\": {\"workload\": \"" << args.workload << "\", \"seed\": "
             << args.seed << ", \"seconds\": " << number(args.seconds)
             << ", \"trace\": " << (args.trace ? 1 : 0)
             << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
             << json_escape(cpu_model()) << "\", \"compiler\": \"" << ALERTBENCH_COMPILER
             << "\", \"build_type\": \"" << ALERTBENCH_BUILD_TYPE << "\", \"source_id\": \""
             << json_escape(args.source_id) << "\", \"input_gen_s\": " << number(gen_s);
  for (const auto& [key, value] : workload->params()) {
    provenance << ", \"" << key << "\": \"" << json_escape(value) << "\"";
  }
  provenance << "}}";
  std::printf("%s\n", provenance.str().c_str());

  // The warm-up repetition: its outputs are checked and its peak RSS kept,
  // its times are not.
  settle_allocator();
  std::vector<RepResult> reps;
  reps.push_back(run_rep(*workload, false));
  const double peak_rss_mb = reps.front().rss_mb;

  std::map<std::string, double> metrics;
  if (args.trace) {
    // Untraced repetitions until the verdict-latency p99 has support, then
    // one traced repetition of the same input.
    std::vector<alertbench::Weighted> latency;
    std::uint64_t samples = 0;
    do {
      reps.push_back(run_rep(*workload, false));
      for (const auto& sample : reps.back().latency_us) {
        latency.push_back(sample);
        samples += sample.second;
      }
    } while (reps.back().timed_s > 0.0 && samples < 1000 && reps.size() < 9);
    const RepResult plain = reps[1];
    reps.push_back(run_rep(*workload, true));
    const RepResult& traced = reps.back();
    if (!args.spans.empty() && !alertbench::recorder().write_tsv(args.spans)) {
      std::fprintf(stderr, "alertbench: cannot write spans to %s\n", args.spans.c_str());
    }
    for (const auto& spec : kPerLayer) metrics[spec.name] = 0.0;
    for (const auto& [name, value] : traced.layer) metrics[name] = value;
    metrics["testbed.serial_inputs_per_s"] = workload->serial_inputs_per_s();
    const double plain_rate = plain.timed_s > 0 ? plain.inputs / plain.timed_s : 0.0;
    const double traced_rate = traced.timed_s > 0 ? traced.inputs / traced.timed_s : 0.0;
    metrics["bench.trace_overhead"] = plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0.0;
    if (const auto lag = alertbench::percentile(plain.gen_lag_ms, 0.99)) {
      metrics["bench.gen_lag_p99_ms"] = *lag;
    }
    if (const auto p99 = alertbench::percentile(latency, 0.99)) {
      metrics["bench.verdict_latency_p99_us"] = *p99;
    } else {
      metrics.erase("bench.verdict_latency_p99_us");
    }
  } else {
    double timed = 0.0;
    std::vector<double> probes;
    while (reps.back().timed_s > 0.0 && timed < args.seconds) {
      probes.push_back(host_probe_ms());
      reps.push_back(run_rep(*workload, false));
      const RepResult& last = reps.back();
      timed += last.timed_s;
      // Stop early rather than overrun the budget by most of a repetition.
      if (timed + 0.5 * last.timed_s > args.seconds) break;
    }
    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<alertbench::Weighted> latency;
    std::uint64_t samples = 0;
    std::printf("timed repetitions (inputs/s, minor faults):");
    for (std::size_t i = 1; i < reps.size(); ++i) {
      const RepResult& r = reps[i];
      if (r.timed_s <= 0.0) continue;
      setups.push_back(r.setup_s);
      rates.push_back(static_cast<double>(r.inputs) / r.timed_s);
      std::printf(" %.4g/%llu", rates.back(), static_cast<unsigned long long>(r.faults));
      for (const auto& sample : r.latency_us) {
        latency.push_back(sample);
        samples += sample.second;
      }
    }
    std::printf("\nlatency samples %llu\n", static_cast<unsigned long long>(samples));
    // Set-up is short (about 1 ms for the daemon) and noisy: take at least
    // 51 samples.
    while (setups.size() < 51) {
      const RepResult extra = run_rep(*workload, false, true);
      if (extra.failed != 0) {
        reps.push_back(extra);
        break;
      }
      setups.push_back(extra.setup_s);
    }
    if (!setups.empty()) metrics["setup_s"] = alertbench::median(setups);
    if (!rates.empty()) metrics["inputs_per_s"] = alertbench::median(rates);
    metrics["peak_rss_mb"] = peak_rss_mb;
    if (const auto p50 = alertbench::percentile(latency, 0.5)) {
      metrics["verdict_latency_p50_us"] = *p50;
    }
    const double host_factor = alertbench::median(probes) / kProbeReferenceMs;
    std::printf("host probe %.4g ms (factor %.4g); unscaled setup_s %.6g, inputs_per_s %.6g, "
                "verdict_latency_p50_us %.6g\n",
                alertbench::median(probes), host_factor, metrics["setup_s"],
                metrics["inputs_per_s"], metrics["verdict_latency_p50_us"]);
    if (workload->host_scaled() && host_factor > 0.0) {
      metrics["setup_s"] /= host_factor;
      metrics["inputs_per_s"] *= host_factor;
      if (metrics.count("verdict_latency_p50_us") != 0) {
        metrics["verdict_latency_p50_us"] /= host_factor;
      }
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  for (const auto& r : reps) {
    attempted += r.inputs;
    failed += r.failed;
    for (const auto& f : r.failures) std::printf("FAILED %s\n", f.c_str());
    for (const auto& f : r.shape_failures) {
      std::printf("SHAPE %s\n", f.c_str());
      correct = false;
    }
  }
  if (failed != 0) correct = false;
  if (args.trace) {
    metrics["bench.failed_share"] =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  }

  std::ostringstream body;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end()) {
      std::printf("MISSING %s (too few samples)\n", spec.name);
      correct = false;
      return;
    }
    std::printf("%-34s %16.6g %s\n", spec.name, it->second, spec.unit);
    body << (body.tellp() > 0 ? ", " : "") << "\"" << spec.name
         << "\": {\"value\": " << number(it->second) << ", \"unit\": \"" << spec.unit << "\"}";
  };
  if (args.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted > 0 ? attempted : 1),
              static_cast<unsigned long long>(failed), body.str().c_str());
  return correct ? 0 : 1;
}
