// Notice-log serialization throughput — the archival path for the
// dataset's "25 million alerts collected in Zeek notice logs". Measures
// write and parse rates and the implied time to (de)serialize the full
// 25M-alert corpus, plus symbolization throughput for raw-log ingestion.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "alerts/symbolizer.hpp"
#include "alerts/zeeklog.hpp"
#include "incidents/noise.hpp"

namespace {

using namespace at;

std::vector<alerts::Alert> sample_alerts(std::size_t count) {
  incidents::DailyNoiseModel model;
  const auto month = model.sample_month(0, 1);
  return model.materialize_day(month[0], count);
}

void BM_ZeekLog_Write(benchmark::State& state) {
  const auto alerts = sample_alerts(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto text = alerts::write_notice_log(alerts);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(alerts.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZeekLog_Write)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_ZeekLog_Parse(benchmark::State& state) {
  const auto alerts = sample_alerts(static_cast<std::size_t>(state.range(0)));
  const auto text = alerts::write_notice_log(alerts);
  std::size_t parsed = 0;
  for (auto _ : state) {
    // Owning Alerts, as an archive re-ingest that keeps every row needs.
    const auto batch = alerts::parse_notice_batch(text);
    std::vector<alerts::Alert> rows;
    rows.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) rows.push_back(batch.materialize(i));
    parsed = rows.size();
    benchmark::DoNotOptimize(rows.data());
  }
  state.counters["parsed"] = static_cast<double>(parsed);
  state.SetItemsProcessed(static_cast<std::int64_t>(alerts.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZeekLog_Parse)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

bool same_alert(const alerts::Alert& a, const alerts::Alert& b) {
  return a.ts == b.ts && a.type == b.type && a.host == b.host && a.user == b.user &&
         a.src == b.src && a.origin == b.origin && a.metadata == b.metadata;
}

void BM_ZeekLog_RoundTripFidelity(benchmark::State& state) {
  // Round-trip the stream and verify nothing is lost or altered (the
  // archival invariant, measured rather than assumed): loss_fraction is the
  // share of written alerts whose re-read row is missing or differs in any
  // field.
  const auto alerts = sample_alerts(10'000);
  double loss = 1.0;
  for (auto _ : state) {
    const auto batch = alerts::parse_notice_batch(alerts::write_notice_log(alerts));
    const std::size_t reread = std::min(alerts.size(), batch.size());
    std::size_t lost = alerts.size() - reread;
    for (std::size_t i = 0; i < reread; ++i) {
      if (!same_alert(batch.materialize(i), alerts[i])) ++lost;
    }
    loss = static_cast<double>(lost) / static_cast<double>(alerts.size());
    benchmark::DoNotOptimize(batch.malformed);
  }
  state.counters["loss_fraction"] = loss;
}
BENCHMARK(BM_ZeekLog_RoundTripFidelity)->Unit(benchmark::kMillisecond);

void BM_Symbolizer_RawLogIngestion(benchmark::State& state) {
  // Raw syslog-style lines through the symbolization pattern library.
  const std::vector<std::string> lines = {
      R"(23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK") [7036])",
      "23:15:40 [internal-host] gcc -o mod abs.c",
      "23:16:02 [internal-host] insmod mod.ko",
      "23:16:30 [internal-host] rm -f /var/log/wtmp",
      "23:17:00 [node-12] sbatch run.sl",
      "23:17:10 [node-12] some unmatched application chatter",
      "23:17:20 [pg-3] SELECT lo_export(16385, '/tmp/kp')",
      "23:17:25 [pg-3] cat /home/u/.ssh/known_hosts",
  };
  alerts::Symbolizer symbolizer;
  for (auto _ : state) {
    for (const auto& line : lines) {
      benchmark::DoNotOptimize(symbolizer.symbolize(line));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lines.size()) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Symbolizer_RawLogIngestion);

}  // namespace
