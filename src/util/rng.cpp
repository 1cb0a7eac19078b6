#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace at::util {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Lemire-style rejection-free mapping is fine here; modulo bias is
  // negligible for simulation ranges but we debias with rejection anyway.
  const std::uint64_t limit = (~0ULL) - ((~0ULL) % range);
  std::uint64_t draw = (*this)();
  while (draw >= limit) draw = (*this)();
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal() noexcept {
  // Box-Muller; draw u1 away from 0 to keep log finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's product method for small means.
    const double threshold = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > threshold);
    return k - 1;
  }
  // Normal approximation for large means, clamped at zero.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0ULL : static_cast<std::uint64_t>(std::llround(draw));
}

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return ~0ULL;
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) noexcept {
  if (n <= 1) return 1;
  // Inverse-CDF over the normalized harmonic weights; O(log n) via binary
  // search on a locally computed partial-sum estimate would need a table, so
  // use rejection sampling (Devroye) which is table-free and exact enough.
  const double b = std::pow(2.0, s - 1.0);
  // At s == 1 the test below is 0/0 (b - 1 == t - 1 == 0) and would reject
  // forever; use its s -> 1 limit, v * x * ln(1 + 1/x) / ln 2 <= 1, which
  // is the exact acceptance ratio for 1/x against the log-uniform proposal.
  const bool harmonic = s == 1.0;
  for (;;) {
    const double u = uniform();
    const double v = uniform();
    const double x = std::floor(std::pow(static_cast<double>(n) + 1.0, u));
    // x in [1, n+1); clamp into range.
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    if (harmonic) {
      if (v * x * std::log1p(1.0 / x) / std::numbers::ln2 <= 1.0) {
        return static_cast<std::uint64_t>(x);
      }
      continue;
    }
    const double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<std::uint64_t>(x);
    }
  }
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double point = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (point < w) return i;
    point -= w;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) noexcept {
  if (k > n) k = n;
  // Partial Fisher-Yates over an index vector; O(n) memory, fine for our sizes.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    using std::swap;
    swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace at::util
