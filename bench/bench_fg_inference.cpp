// Per-alert entity inference at pipeline scale: exact streaming inference
// (fg::EntityFilter, one per tracked entity) vs loopy re-inference
// (build_entity_graph + damped run_bp over the entity's whole history),
// swept across tracked-entity counts. Every sweep drives one structured
// multi-entity alert stream through:
//
//   * exact  — EntityFilter::observe for every alert
//   * loopy  — for ~500 sampled alerts, rebuild the entity graph over the
//              history and run loopy BP (workspace reused, so the cost is
//              inference + graph build, not allocation). Loopy BP is only
//              an approximation here: its max |dp| from the exact
//              posterior and the share of sampled verdicts that flip at
//              threshold 0.75 are reported as information.
//   * oracle — sampled prefixes of at most 9 alerts are enumerated
//              exactly (enumerate_exact over build_entity_graph); the bench
//              exits 1 if the filter's P(malicious) or last-stage marginal
//              differs by more than 1e-9.
//
// Standalone main (not google-benchmark): the artifact is a machine-
// readable JSON file (default BENCH_fg.json at the repo root) that also
// records the host and build it came from.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fg/bp.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/rng.hpp"

#include "host_info.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

constexpr double kThreshold = 0.75;
constexpr double kOracleGate = 1e-9;
constexpr std::size_t kOracleMaxLength = 9;
constexpr std::size_t kOracleChecks = 200;
constexpr std::size_t kLoopySamples = 500;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Stream {
  std::vector<std::uint32_t> entity;
  std::vector<alerts::AlertType> type;
};

/// Structured multi-entity trace shaped like the testbed's: most entities
/// produce benign-stage noise, a minority run attack campaigns with some
/// benign chatter mixed in.
Stream make_stream(std::size_t entities, std::size_t alerts, std::uint64_t seed) {
  std::vector<alerts::AlertType> benign_pool;
  std::vector<alerts::AlertType> attack_pool;
  for (const auto& info : alerts::all_alert_info()) {
    if (info.typical_stage >= alerts::AttackStage::kInProgress) {
      attack_pool.push_back(info.type);
    } else {
      benign_pool.push_back(info.type);
    }
  }
  auto draw = [](util::Rng& rng, const std::vector<alerts::AlertType>& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  Stream stream;
  stream.entity.reserve(alerts);
  stream.type.reserve(alerts);
  util::Rng rng(seed);
  std::vector<bool> malicious(entities);
  for (std::size_t e = 0; e < entities; ++e) {
    malicious[e] = rng.uniform_int(0, 99) < 15;
  }
  for (std::size_t i = 0; i < alerts; ++i) {
    const auto entity = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(entities) - 1));
    stream.entity.push_back(entity);
    const bool attack_draw = malicious[entity] ? rng.uniform_int(0, 99) < 60
                                               : rng.uniform_int(0, 99) < 5;
    stream.type.push_back(draw(rng, attack_draw ? attack_pool : benign_pool));
  }
  return stream;
}

struct SweepResult {
  std::size_t entities = 0;
  std::size_t alerts = 0;
  double exact_us_per_alert = 0.0;
  double alerts_per_s = 0.0;
  double loopy_us_per_alert = 0.0;
  double speedup = 0.0;
  std::size_t loopy_samples = 0;
  double loopy_max_abs_dp = 0.0;
  double loopy_flip_share = 0.0;
  std::size_t oracle_checks = 0;
  double oracle_max_error = 0.0;
  bool oracle_ok = true;
};

SweepResult run_sweep(const std::shared_ptr<const fg::CompiledParams>& compiled,
                      std::size_t entities, std::size_t per_entity) {
  SweepResult result;
  result.entities = entities;
  result.alerts = entities * per_entity;
  const Stream stream = make_stream(entities, result.alerts, 0x5eed + entities);

  // --- exact: every alert through its entity's filter.
  {
    std::vector<fg::EntityFilter> filters(entities, fg::EntityFilter(compiled));
    const auto start = Clock::now();
    for (std::size_t i = 0; i < result.alerts; ++i) {
      filters[stream.entity[i]].observe(stream.type[i]);
    }
    const double spent = seconds_since(start);
    result.exact_us_per_alert = spent * 1e6 / static_cast<double>(result.alerts);
    result.alerts_per_s = static_cast<double>(result.alerts) / spent;
  }

  // --- loopy (timed, sampled) and the enumeration oracle (untimed), both
  // against a second set of exact filters replaying the same stream.
  std::vector<fg::EntityFilter> filters(entities, fg::EntityFilter(compiled));
  std::vector<std::vector<alerts::AlertType>> hist(entities);
  fg::BpWorkspace workspace;
  fg::BpResult bp;
  fg::BpOptions options;
  options.damping = 0.3;  // the entity graph is loopy
  const std::size_t stride = std::max<std::size_t>(1, result.alerts / kLoopySamples);
  const std::size_t oracle_stride = std::max<std::size_t>(1, result.alerts / kOracleChecks);
  double spent = 0.0;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < result.alerts; ++i) {
    fg::EntityFilter& filter = filters[stream.entity[i]];
    auto& h = hist[stream.entity[i]];
    filter.observe(stream.type[i]);
    h.push_back(stream.type[i]);
    const double exact = filter.p_malicious();

    if (i % stride == 0) {
      options.max_iterations = std::max<std::size_t>(50, 4 * h.size() + 20);
      const auto start = Clock::now();
      const fg::FactorGraph graph = fg::build_entity_graph(compiled->params, h);
      fg::run_bp(graph, options, workspace, bp);
      spent += seconds_since(start);
      const double loopy = bp.marginals.back()[1];
      result.loopy_max_abs_dp = std::max(result.loopy_max_abs_dp, std::fabs(loopy - exact));
      if ((loopy >= kThreshold) != (exact >= kThreshold)) ++flips;
      ++result.loopy_samples;
    }

    // Oracle on the first short-enough prefix at or after each stride mark.
    if (h.size() <= kOracleMaxLength && i / oracle_stride >= result.oracle_checks) {
      const fg::ExactResult truth =
          fg::enumerate_exact(fg::build_entity_graph(compiled->params, h));
      double error = std::fabs(exact - truth.marginals.back()[1]);
      const auto last = filter.last_stage();
      for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
        error = std::max(error, std::fabs(last[s] - truth.marginals[h.size() - 1][s]));
      }
      result.oracle_max_error = std::max(result.oracle_max_error, error);
      ++result.oracle_checks;
    }
  }
  result.loopy_us_per_alert = spent * 1e6 / static_cast<double>(result.loopy_samples);
  result.loopy_flip_share =
      static_cast<double>(flips) / static_cast<double>(result.loopy_samples);
  result.oracle_ok = result.oracle_checks > 0 && result.oracle_max_error <= kOracleGate;
  result.speedup = result.loopy_us_per_alert / result.exact_us_per_alert;
  return result;
}

void emit_json(std::ostringstream& json, const SweepResult& s, bool last) {
  json << "    {\"entities\": " << s.entities << ", \"alerts\": " << s.alerts
       << ", \"exact_us_per_alert\": " << s.exact_us_per_alert
       << ", \"alerts_per_s\": " << s.alerts_per_s
       << ", \"loopy_us_per_alert\": " << s.loopy_us_per_alert
       << ", \"speedup\": " << s.speedup << ", \"loopy_samples\": " << s.loopy_samples
       << ", \"loopy_max_abs_dp\": " << s.loopy_max_abs_dp
       << ", \"loopy_flip_share\": " << s.loopy_flip_share
       << ", \"oracle_checks\": " << s.oracle_checks
       << ", \"oracle_max_error\": " << s.oracle_max_error << "}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> entity_counts = {1'000, 10'000, 100'000};
  std::size_t per_entity = 8;
  std::string out_path = "BENCH_fg.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--entities") == 0) {
      entity_counts.clear();
      std::stringstream list(argv[i + 1]);
      std::string item;
      while (std::getline(list, item, ',')) entity_counts.push_back(std::stoull(item));
    }
    if (std::strcmp(argv[i], "--per-entity") == 0) per_entity = std::stoull(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  incidents::CorpusConfig config;
  config.repetition_scale = 0.02;
  const auto compiled = fg::compile_params(
      fg::learn_params(incidents::CorpusGenerator(config).generate()));

  std::vector<SweepResult> sweeps;
  bool oracle_ok = true;
  for (const std::size_t entities : entity_counts) {
    const SweepResult sweep = run_sweep(compiled, entities, per_entity);
    std::printf(
        "entities %8zu: exact %6.3f us/alert (%.0f alerts/s), loopy %8.2f us/alert "
        "(%.0fx), loopy max |dp| %.3f, flips %.2f%%, oracle %zu checks max err %.2e\n",
        sweep.entities, sweep.exact_us_per_alert, sweep.alerts_per_s,
        sweep.loopy_us_per_alert, sweep.speedup, sweep.loopy_max_abs_dp,
        100.0 * sweep.loopy_flip_share, sweep.oracle_checks, sweep.oracle_max_error);
    oracle_ok = oracle_ok && sweep.oracle_ok;
    sweeps.push_back(sweep);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"fg_inference\",\n  \"host\": " << bench::host_json()
       << ",\n  \"alerts_per_entity\": " << per_entity << ",\n  \"threshold\": "
       << kThreshold << ",\n  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    emit_json(json, sweeps[i], i + 1 == sweeps.size());
  }
  json << "  ],\n  \"oracle_ok\": " << (oracle_ok ? "true" : "false") << "\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  if (!oracle_ok) std::fprintf(stderr, "bench_fg_inference: exact-vs-enumeration oracle FAILED\n");
  return oracle_ok ? 0 : 1;
}
