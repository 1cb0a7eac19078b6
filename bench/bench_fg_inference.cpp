// Per-alert factor-graph inference at pipeline scale: the kernel
// FactorGraphDetector runs (fg::EntityFilter, one per tracked entity),
// swept across tracked-entity counts. Every sweep drives one structured
// multi-entity alert stream, each alert carrying a gap bucket, through:
//
//   * untimed — EntityFilter::observe for every alert, gap ignored
//               (factor-graph)
//   * timed   — the same with the gap factor on (factor-graph-timed)
//   * oracle  — sampled prefixes of at most 9 alerts, untimed and timed,
//               are enumerated exactly (enumerate_exact over the
//               gap-augmented build_chain from tests/fg_oracle); the bench
//               exits 1 if the filter's last-stage marginal differs by more
//               than 1e-9.
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
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fg/model.hpp"
#include "fg_oracle/chain.hpp"
#include "incidents/generator.hpp"
#include "util/rng.hpp"

#include "host_info.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

constexpr double kOracleGate = 1e-9;
constexpr std::size_t kOracleMaxLength = 9;
constexpr std::size_t kOracleChecks = 200;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Stream {
  std::vector<std::uint32_t> entity;
  std::vector<alerts::AlertType> type;
  std::vector<fg::GapBucket> gap;  ///< since the entity's previous alert
};

/// Structured multi-entity trace shaped like the testbed's: most entities
/// produce benign-stage noise, a minority run attack campaigns with some
/// benign chatter mixed in. Gap buckets are drawn uniformly.
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
  stream.gap.reserve(alerts);
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
    stream.gap.push_back(static_cast<fg::GapBucket>(
        rng.uniform_int(0, static_cast<std::int64_t>(fg::kNumGapBuckets) - 1)));
  }
  return stream;
}

struct SweepResult {
  std::size_t entities = 0;
  std::size_t alerts = 0;
  double us_per_alert = 0.0;
  double alerts_per_s = 0.0;
  double timed_us_per_alert = 0.0;
  std::size_t oracle_checks = 0;
  double oracle_max_error = 0.0;
  bool oracle_ok = true;
};

/// Wall time of every alert through its entity's filter, in microseconds
/// per alert.
double time_filters(const std::shared_ptr<const fg::CompiledParams>& compiled,
                    const Stream& stream, std::size_t entities, bool timed) {
  std::vector<fg::EntityFilter> filters(entities, fg::EntityFilter(compiled));
  const auto start = Clock::now();
  for (std::size_t i = 0; i < stream.type.size(); ++i) {
    filters[stream.entity[i]].observe(stream.type[i],
                                      timed ? std::optional(stream.gap[i]) : std::nullopt);
  }
  return seconds_since(start) * 1e6 / static_cast<double>(stream.type.size());
}

SweepResult run_sweep(const std::shared_ptr<const fg::CompiledParams>& compiled,
                      std::size_t entities, std::size_t per_entity) {
  SweepResult result;
  result.entities = entities;
  result.alerts = entities * per_entity;
  const Stream stream = make_stream(entities, result.alerts, 0x5eed + entities);

  result.us_per_alert = time_filters(compiled, stream, entities, false);
  result.alerts_per_s = 1e6 / result.us_per_alert;
  result.timed_us_per_alert = time_filters(compiled, stream, entities, true);

  // The enumeration oracle, against untimed and timed filters replaying
  // the same stream.
  std::vector<fg::EntityFilter> plain(entities, fg::EntityFilter(compiled));
  std::vector<fg::EntityFilter> timed(entities, fg::EntityFilter(compiled));
  std::vector<std::vector<alerts::AlertType>> hist(entities);
  std::vector<std::vector<std::optional<fg::GapBucket>>> gaps(entities);
  const std::size_t oracle_stride = std::max<std::size_t>(1, result.alerts / kOracleChecks);
  auto check = [&](const fg::EntityFilter& filter, const std::vector<alerts::AlertType>& prefix,
                   const std::vector<std::optional<fg::GapBucket>>& prefix_gaps) {
    const fg::ExactResult truth =
        fg::enumerate_exact(fg::build_chain(compiled->params, prefix, prefix_gaps));
    double error = 0.0;
    for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
      error = std::max(error, std::fabs(filter.last_stage()[s] - truth.marginals.back()[s]));
    }
    result.oracle_max_error = std::max(result.oracle_max_error, error);
  };
  for (std::size_t i = 0; i < result.alerts; ++i) {
    const std::uint32_t e = stream.entity[i];
    plain[e].observe(stream.type[i]);
    timed[e].observe(stream.type[i], stream.gap[i]);
    hist[e].push_back(stream.type[i]);
    gaps[e].push_back(stream.gap[i]);

    // Oracle on the first short-enough prefix at or after each stride mark.
    if (hist[e].size() > kOracleMaxLength || i / oracle_stride < result.oracle_checks) continue;
    check(plain[e], hist[e], std::vector<std::optional<fg::GapBucket>>(hist[e].size()));
    check(timed[e], hist[e], gaps[e]);
    ++result.oracle_checks;
  }
  result.oracle_ok = result.oracle_checks > 0 && result.oracle_max_error <= kOracleGate;
  return result;
}

void emit_json(std::ostringstream& json, const SweepResult& s, bool last) {
  json << "    {\"entities\": " << s.entities << ", \"alerts\": " << s.alerts
       << ", \"us_per_alert\": " << s.us_per_alert
       << ", \"alerts_per_s\": " << s.alerts_per_s
       << ", \"timed_us_per_alert\": " << s.timed_us_per_alert
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
        "entities %8zu: untimed %6.3f us/alert (%.0f alerts/s), timed %6.3f us/alert, "
        "oracle %zu checks (untimed + timed) max err %.2e\n",
        sweep.entities, sweep.us_per_alert, sweep.alerts_per_s,
        sweep.timed_us_per_alert, sweep.oracle_checks, sweep.oracle_max_error);
    oracle_ok = oracle_ok && sweep.oracle_ok;
    sweeps.push_back(sweep);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"fg_inference\",\n  \"host\": " << bench::host_json()
       << ",\n  \"alerts_per_entity\": " << per_entity << ",\n  \"sweeps\": [\n";
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
