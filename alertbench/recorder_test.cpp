// Self-tests for the benchmark's recorder: nearest-rank percentile selection
// with the ten-samples-beyond rule, median, and span self time. Exits 1 on
// the first failed check.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "recorder.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "recorder_test:%d: FAILED %s\n", line, what);
  ++failures;
}
#define CHECK(expr) check((expr), #expr, __LINE__)

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  // Reverse order so selection cannot rely on sorted input.
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  // 1000 samples: rank 990 is the p99, exactly ten samples above it.
  const auto p99 = alertbench::percentile(iota(1000), 0.99);
  CHECK(p99.has_value() && *p99 == 990.0);
  // 999 samples leave only nine above rank 990: p99 is withheld.
  CHECK(!alertbench::percentile(iota(999), 0.99).has_value());
  // p50 of 100: nearest rank 50, fifty above it.
  const auto p50 = alertbench::percentile(iota(100), 0.5);
  CHECK(p50.has_value() && *p50 == 50.0);
  // p50 of 19 samples: rank 10 leaves nine beyond; withheld.
  CHECK(!alertbench::percentile(iota(19), 0.5).has_value());
  CHECK(alertbench::percentile(iota(20), 0.5).has_value());
  // The rule is configurable: with min_beyond = 0 the maximum is p100.
  const auto p100 = alertbench::percentile(iota(7), 1.0, 0);
  CHECK(p100.has_value() && *p100 == 7.0);
  CHECK(!alertbench::percentile(std::vector<double>{}, 0.5).has_value());
  // Weighted samples select as if each value were repeated weight times:
  // 990 x 1.0 then 10 x 2.0 puts the p99 rank on the last 1.0.
  const auto weighted = alertbench::percentile(
      std::vector<alertbench::Weighted>{{2.0, 10}, {1.0, 990}}, 0.99);
  CHECK(weighted.has_value() && *weighted == 1.0);
  CHECK(!alertbench::percentile(std::vector<alertbench::Weighted>{{1.0, 999}}, 0.99)
             .has_value());
  CHECK(alertbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(alertbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_self_time() {
  using alertbench::Span;
  // root [0,100) with children [10,30) and [40,90); the second child has a
  // grandchild [50,60).
  std::vector<Span> spans(4);
  spans[0] = {0, -1, 1, 0, 100};
  spans[1] = {1, 0, 1, 10, 30};
  spans[2] = {1, 0, 1, 40, 90};
  spans[3] = {2, 2, 1, 50, 60};
  const auto self = alertbench::span_self_ns(spans);
  CHECK(self[0] == 30);  // 100 - 20 - 50
  CHECK(self[1] == 20);
  CHECK(self[2] == 40);  // 50 - 10
  CHECK(self[3] == 10);
}

void test_recorder() {
  alertbench::Recorder& rec = alertbench::recorder();
  const auto outer = rec.intern("outer");
  const auto inner = rec.intern("inner");
  const auto hits = rec.intern("hits");
  rec.set_enabled(true);
  const std::int64_t from = alertbench::now_ns();
  {
    alertbench::ScopedSpan a(outer, 7);
    for (int i = 0; i < 3; ++i) {
      alertbench::ScopedSpan b(inner, 7);
      rec.add(hits, 2);
    }
  }
  const std::int64_t to = alertbench::now_ns();
  rec.set_enabled(false);
  { alertbench::ScopedSpan ignored(outer); }  // disabled: not recorded
  const auto totals = rec.summarize();
  CHECK(totals.at("outer").spans == 1);
  CHECK(totals.at("inner").spans == 3);
  CHECK(totals.at("hits").counter == 6);
  CHECK(totals.at("outer").self_ns + totals.at("inner").total_ns ==
        totals.at("outer").total_ns);
  const double covered = rec.coverage(rec.local().thread, from, to);
  CHECK(covered > 0.0 && covered <= 1.0);
}

void spin_ns(std::int64_t ns) {
  const std::int64_t until = alertbench::now_ns() + ns;
  while (alertbench::now_ns() < until) {
  }
}

void test_coverage() {
  // A bench-owned span (a schedule wait) holding one layer call, then a
  // layer call at the root: the wait leaves the window, both calls count.
  // Without the bench rule the share would be about 2/3.
  alertbench::Recorder& rec = alertbench::recorder();
  const auto wait = rec.intern("bench.wait");
  const auto call = rec.intern("layer.call");
  rec.set_enabled(true);
  const std::int64_t from = alertbench::now_ns();
  {
    alertbench::ScopedSpan bench(wait);
    {
      alertbench::ScopedSpan inner(call);
      spin_ns(5'000'000);
    }
    spin_ns(5'000'000);
  }
  {
    alertbench::ScopedSpan outer(call);
    spin_ns(5'000'000);
  }
  const std::int64_t to = alertbench::now_ns();
  rec.set_enabled(false);
  const double covered = rec.coverage(rec.local().thread, from, to);
  CHECK(covered > 0.95 && covered <= 1.0);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_recorder();
  test_coverage();
  if (failures != 0) return 1;
  std::printf("recorder_test: all checks passed\n");
  return 0;
}
