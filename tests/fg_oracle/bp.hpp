#pragma once
// Belief propagation (sum-product and max-product) over discrete factor
// graphs, in log space. Exact on trees; loopy with damping otherwise. A
// test and bench oracle: the shipped detector runs fg::EntityFilter, whose
// closed form these general engines check.

#include <cstddef>
#include <vector>

#include "fg_oracle/graph.hpp"

namespace at::fg {

struct BpOptions {
  std::size_t max_iterations = 50;
  double tolerance = 1e-9;   ///< max message change for convergence
  double damping = 0.0;      ///< 0 = none; used for loopy graphs
  bool max_product = false;  ///< max-product (MAP) instead of sum-product
};

struct BpResult {
  /// Per-variable normalized beliefs (linear domain, sum to 1).
  std::vector<std::vector<double>> marginals;
  /// Per-variable argmax of belief; the MAP estimate under max-product.
  std::vector<std::size_t> map_assignment;
  bool converged = false;
  std::size_t iterations = 0;
};

/// Run BP to convergence (or max_iterations) and extract beliefs.
[[nodiscard]] BpResult run_bp(const FactorGraph& graph, const BpOptions& options = {});

/// Exact inference by joint enumeration (test oracle; product of
/// cardinalities must be <= 2^22).
struct ExactResult {
  std::vector<std::vector<double>> marginals;
  std::vector<std::size_t> map_assignment;
  double log_partition = 0.0;
};
[[nodiscard]] ExactResult enumerate_exact(const FactorGraph& graph);

}  // namespace at::fg
