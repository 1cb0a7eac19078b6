#pragma once
// In-memory span and counter recorder for the alert-path benchmark.
//
// Spans are recorded per thread into buffers the recorder owns (one lock
// per thread registration, none per span), so shard workers and the
// producer record concurrently without contention. A span carries its
// name, the input id it belongs to, start/end on the steady clock and the
// index of its enclosing span on the same thread; self time is a span's
// duration minus what its direct children cover. Nothing is written until
// write_tsv() runs at the end of the benchmark.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alertbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;   ///< index into Recorder::names()
  std::int32_t parent = -1; ///< index of the enclosing span in the same thread log
  std::uint64_t id = 0;     ///< input the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans plus its open-span stack and counters.
struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
  std::vector<std::uint64_t> counters;  ///< indexed by name id
};

class Recorder {
 public:
  /// Stable id for a span/counter name; call before recording starts.
  std::uint32_t intern(std::string_view name);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// The calling thread's log (registered on first use).
  ThreadLog& local();
  /// Size the calling thread's span buffer for `spans` more spans and touch
  /// its pages, so recording in the timed phase takes no page faults.
  void prefault(std::size_t spans);

  void add(std::uint32_t counter, std::uint64_t value) {
    if (!enabled_) return;
    ThreadLog& log = local();
    if (log.counters.size() <= counter) log.counters.resize(names_.size(), 0);
    log.counters[counter] += value;
  }

  struct Totals {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t counter = 0;
  };
  /// Per-name totals over every thread (self time per span_self_ns()).
  [[nodiscard]] std::map<std::string, Totals> summarize() const;
  /// Share of [from, to] on `thread` that layer spans cover. Spans named
  /// "bench.*" are the benchmark's own work (an open loop's schedule check
  /// and wait, depth sampling): their self time leaves the window, and
  /// layer spans directly inside them count as covered.
  [[nodiscard]] double coverage(std::uint32_t thread, std::int64_t from, std::int64_t to) const;

  /// Tab-separated dump: thread, span index, parent, name, id, start, end.
  bool write_tsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<std::string> names_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

Recorder& recorder();

/// RAII span on the calling thread; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(std::uint32_t name, std::uint64_t id = 0) {
    Recorder& rec = recorder();
    if (!rec.enabled()) return;
    log_ = &rec.local();
    index_ = static_cast<std::int32_t>(log_->spans.size());
    Span span;
    span.name = name;
    span.id = id;
    span.parent = log_->open.empty() ? -1 : log_->open.back();
    log_->open.push_back(index_);
    log_->spans.push_back(span);
    start_ns_ = now_ns();
    log_->spans.back().start_ns = start_ns_;
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    log_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Start of an open span, or a fresh clock read while disabled: lets a
  /// caller time-stamp its input without a second clock read.
  [[nodiscard]] std::int64_t start_ns() const noexcept {
    return log_ != nullptr ? start_ns_ : now_ns();
  }

 private:
  ThreadLog* log_ = nullptr;
  std::int32_t index_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Self time of every span in one thread's log: duration minus the
/// durations of its direct children (children nest inside their parent on
/// the same thread, so they never overlap each other).
[[nodiscard]] std::vector<std::int64_t> span_self_ns(const std::vector<Span>& spans);

/// A sample value and how many samples share it.
using Weighted = std::pair<double, std::uint64_t>;

/// Nearest-rank percentile q in (0, 1] of weighted samples, emitted only
/// when at least `min_beyond` samples lie above the selected rank.
[[nodiscard]] std::optional<double> percentile(std::vector<Weighted> samples, double q,
                                               std::uint64_t min_beyond = 10);
[[nodiscard]] std::optional<double> percentile(const std::vector<double>& samples, double q,
                                               std::uint64_t min_beyond = 10);

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace alertbench
