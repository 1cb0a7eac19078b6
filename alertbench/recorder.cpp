#include "recorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace alertbench {

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

std::uint32_t Recorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

ThreadLog& Recorder::local() {
  // One recorder per process (recorder()), so one log per thread.
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<std::uint32_t>(logs_.size() - 1);
    log->spans.reserve(1 << 16);
  }
  return *log;
}

void Recorder::prefault(std::size_t spans) {
  ThreadLog& log = local();
  const std::size_t used = log.spans.size();
  log.spans.resize(used + spans);  // value-initializes: every page is written
  log.spans.resize(used);
}

std::vector<std::int64_t> span_self_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::map<std::string, Recorder::Totals> Recorder::summarize() const {
  std::vector<Totals> by_id(names_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (std::size_t id = 0; id < log->counters.size() && id < by_id.size(); ++id) {
      by_id[id].counter += log->counters[id];
    }
    const std::vector<std::int64_t> self = span_self_ns(log->spans);
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      Totals& totals = by_id[span.name];
      ++totals.spans;
      totals.total_ns += span.end_ns - span.start_ns;
      totals.self_ns += self[i];
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t id = 0; id < names_.size(); ++id) out[names_[id]] = by_id[id];
  return out;
}

double Recorder::coverage(std::uint32_t thread, std::int64_t from, std::int64_t to) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread >= logs_.size()) return 0.0;
  const std::vector<Span>& spans = logs_[thread]->spans;
  const auto bench = [this](const Span& span) {
    return names_[span.name].rfind("bench.", 0) == 0;
  };
  const auto clipped = [from, to](const Span& span) {
    return std::max<std::int64_t>(0, std::min(span.end_ns, to) - std::max(span.start_ns, from));
  };
  std::int64_t window = to - from;
  std::int64_t covered = 0;
  for (const Span& span : spans) {
    const Span* parent =
        span.parent >= 0 ? &spans[static_cast<std::size_t>(span.parent)] : nullptr;
    if (bench(span)) {
      if (parent == nullptr) window -= clipped(span);
    } else if (parent == nullptr) {
      covered += clipped(span);
    } else if (parent->parent < 0 && bench(*parent)) {
      // A layer call inside a bench-owned root span: give it back.
      covered += clipped(span);
      window += clipped(span);
    }
  }
  return window > 0 ? static_cast<double>(covered) / static_cast<double>(window) : 0.0;
}

bool Recorder::write_tsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tspan\tparent\tname\tid\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      std::fprintf(out, "%u\t%zu\t%d\t%s\t%llu\t%lld\t%lld\n", log->thread, i, span.parent,
                   names_[span.name].c_str(), static_cast<unsigned long long>(span.id),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

std::optional<double> percentile(std::vector<Weighted> samples, double q,
                                 std::uint64_t min_beyond) {
  std::uint64_t total = 0;
  for (const auto& sample : samples) total += sample.second;
  if (total == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  // Nearest rank: the smallest rank k with k >= q * total (1-based).
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total) - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, total);
  if (total - rank < min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  std::uint64_t seen = 0;
  for (const auto& [value, weight] : samples) {
    seen += weight;
    if (seen >= rank) return value;
  }
  return samples.back().first;
}

std::optional<double> percentile(const std::vector<double>& samples, double q,
                                 std::uint64_t min_beyond) {
  std::vector<Weighted> weighted;
  weighted.reserve(samples.size());
  for (const double value : samples) weighted.emplace_back(value, 1);
  return percentile(std::move(weighted), q, min_beyond);
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace alertbench
