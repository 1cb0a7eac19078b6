#pragma once
// Streaming and batch statistics used by every analysis in the paper:
// daily-volume mean/stddev (Fig 2), similarity CDFs (Fig 3a), sequence
// frequency histograms (Fig 3b), and benchmark summaries.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace at::util {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance (n), matching how the paper reports sigma.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample (linear interpolation); q in [0,1]. Copies + sorts.
[[nodiscard]] double quantile(std::span<const double> values, double q);

/// Empirical CDF as (value, fraction <= value) points, one per distinct value.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;
};
[[nodiscard]] std::vector<CdfPoint> empirical_cdf(std::span<const double> values);

/// Fraction of samples <= threshold.
[[nodiscard]] double fraction_at_or_below(std::span<const double> values, double threshold);

/// Fixed-width histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  /// Underflow/overflow are clamped into the edge bins.
  [[nodiscard]] std::string ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Counter keyed by string label, with deterministic sorted output.
class LabelCounter {
 public:
  void add(const std::string& label, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t count(const std::string& label) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t distinct() const noexcept { return labels_.size(); }
  /// Entries sorted by descending count, then label.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> sorted() const;

 private:
  std::vector<std::string> labels_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace at::util
