#include "fg_oracle/bp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/logdomain.hpp"

namespace at::fg {

namespace {

using util::kLogZero;
using util::log_add;

/// Normalize a log-domain message so its max entry is 0 (stability).
void normalize_log(double* message, std::size_t size) {
  double peak = kLogZero;
  for (std::size_t i = 0; i < size; ++i) peak = std::max(peak, message[i]);
  if (peak == kLogZero) return;
  for (std::size_t i = 0; i < size; ++i) message[i] -= peak;
}

/// Convert a log-domain belief into a normalized linear distribution,
/// written in place over `out` (no allocation when capacity suffices).
void to_distribution(const double* log_belief, std::size_t size, std::vector<double>& out) {
  double peak = kLogZero;
  for (std::size_t i = 0; i < size; ++i) peak = std::max(peak, log_belief[i]);
  out.assign(size, 0.0);
  if (peak == kLogZero) {
    // Degenerate: uniform.
    std::fill(out.begin(), out.end(), 1.0 / static_cast<double>(size));
    return;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = std::exp(log_belief[i] - peak);
    total += out[i];
  }
  for (double& v : out) v /= total;
}

/// BP storage: the SoA edge layout over a FactorGraph plus the flat
/// log-domain message pools and inner-loop scratch.
struct Workspace {
  // One edge per (factor, scope-slot) pair; edges of a factor are
  // contiguous, so factor f's slot k is edge factor_edge[f] + k.
  std::vector<VarId> edge_var;          ///< target variable of each edge
  std::vector<std::uint32_t> edge_card; ///< its cardinality
  std::vector<std::size_t> edge_off;    ///< offset into the message pools
  std::vector<std::size_t> factor_edge; ///< size num_factors + 1
  // Incident CSR: edge ids touching each variable.
  std::vector<std::size_t> var_edge_off;  ///< size num_variables + 1
  std::vector<std::uint32_t> var_edge;
  // Flat message pools (log domain), one `edge_card` slice per edge.
  std::vector<double> to_var;     ///< factor -> variable
  std::vector<double> to_factor;  ///< variable -> factor
  // Inner-loop scratch.
  std::vector<double> message;
  std::vector<double> log_belief;
  std::vector<std::size_t> cards;
  std::vector<std::size_t> idx;

  /// Build the layout for `graph` and zero all messages.
  void bind(const FactorGraph& graph);
};

void Workspace::bind(const FactorGraph& graph) {
  const std::size_t num_vars = graph.num_variables();
  const std::size_t num_factors = graph.num_factors();

  factor_edge.assign(num_factors + 1, 0);
  edge_var.clear();
  edge_card.clear();
  edge_off.clear();
  std::size_t pool = 0;
  for (FactorId f = 0; f < num_factors; ++f) {
    factor_edge[f] = edge_var.size();
    for (const VarId v : graph.factor(f).scope) {
      edge_var.push_back(v);
      edge_card.push_back(static_cast<std::uint32_t>(graph.variable(v).cardinality));
      edge_off.push_back(pool);
      pool += graph.variable(v).cardinality;
    }
  }
  factor_edge[num_factors] = edge_var.size();

  // Incident CSR via counting sort (stable in factor order, which matches
  // the emplace_back order of the pre-SoA implementation exactly).
  var_edge_off.assign(num_vars + 1, 0);
  for (const VarId v : edge_var) ++var_edge_off[v + 1];
  for (std::size_t v = 1; v <= num_vars; ++v) var_edge_off[v] += var_edge_off[v - 1];
  var_edge.assign(edge_var.size(), 0);
  cards.assign(num_vars, 0);  // reused as per-var fill cursor during bind
  for (std::size_t e = 0; e < edge_var.size(); ++e) {
    const VarId v = edge_var[e];
    var_edge[var_edge_off[v] + cards[v]++] = static_cast<std::uint32_t>(e);
  }

  to_var.assign(pool, 0.0);
  to_factor.assign(pool, 0.0);
}

}  // namespace

BpResult run_bp(const FactorGraph& graph, const BpOptions& options) {
  const std::size_t num_vars = graph.num_variables();
  const std::size_t num_factors = graph.num_factors();
  Workspace ws;
  ws.bind(graph);
  BpResult result;

  result.converged = false;
  result.iterations = 0;
  double delta = 0.0;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    delta = 0.0;

    // Variable -> factor messages.
    for (VarId v = 0; v < num_vars; ++v) {
      const std::size_t begin = ws.var_edge_off[v];
      const std::size_t end = ws.var_edge_off[v + 1];
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t e = ws.var_edge[i];
        const std::size_t card = ws.edge_card[e];
        ws.message.assign(card, 0.0);
        for (std::size_t j = begin; j < end; ++j) {
          if (j == i) continue;
          const double* in = ws.to_var.data() + ws.edge_off[ws.var_edge[j]];
          for (std::size_t x = 0; x < card; ++x) ws.message[x] += in[x];
        }
        normalize_log(ws.message.data(), card);
        double* slot = ws.to_factor.data() + ws.edge_off[e];
        for (std::size_t x = 0; x < card; ++x) {
          delta = std::max(delta, std::abs(ws.message[x] - slot[x]));
          slot[x] = ws.message[x];
        }
      }
    }

    // Factor -> variable messages.
    for (FactorId f = 0; f < num_factors; ++f) {
      const auto& factor = graph.factor(f);
      const std::size_t first = ws.factor_edge[f];
      const std::size_t arity = factor.scope.size();
      ws.cards.assign(arity, 0);
      for (std::size_t k = 0; k < arity; ++k) ws.cards[k] = ws.edge_card[first + k];
      for (std::size_t k = 0; k < arity; ++k) {
        ws.message.assign(ws.cards[k], kLogZero);
        // Walk every table entry; accumulate into the target variable slot.
        ws.idx.assign(arity, 0);
        for (std::size_t flat = 0; flat < factor.log_table.size(); ++flat) {
          double score = factor.log_table[flat];
          for (std::size_t j = 0; j < arity; ++j) {
            if (j == k) continue;
            score += ws.to_factor[ws.edge_off[first + j] + ws.idx[j]];
          }
          double& slot = ws.message[ws.idx[k]];
          slot = options.max_product ? std::max(slot, score) : log_add(slot, score);
          // Increment the mixed-radix index (last scope var fastest).
          for (std::size_t j = arity; j-- > 0;) {
            if (++ws.idx[j] < ws.cards[j]) break;
            ws.idx[j] = 0;
          }
        }
        normalize_log(ws.message.data(), ws.cards[k]);
        double* slot = ws.to_var.data() + ws.edge_off[first + k];
        if (options.damping > 0.0) {
          for (std::size_t x = 0; x < ws.cards[k]; ++x) {
            ws.message[x] = options.damping * slot[x] + (1.0 - options.damping) * ws.message[x];
          }
          normalize_log(ws.message.data(), ws.cards[k]);
        }
        for (std::size_t x = 0; x < ws.cards[k]; ++x) {
          delta = std::max(delta, std::abs(ws.message[x] - slot[x]));
          slot[x] = ws.message[x];
        }
      }
    }

    result.iterations = iter + 1;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  // Beliefs.
  result.marginals.resize(num_vars);
  result.map_assignment.assign(num_vars, 0);
  for (VarId v = 0; v < num_vars; ++v) {
    const std::size_t card = graph.variable(v).cardinality;
    ws.log_belief.assign(card, 0.0);
    const std::size_t begin = ws.var_edge_off[v];
    const std::size_t end = ws.var_edge_off[v + 1];
    for (std::size_t i = begin; i < end; ++i) {
      const double* in = ws.to_var.data() + ws.edge_off[ws.var_edge[i]];
      for (std::size_t x = 0; x < card; ++x) ws.log_belief[x] += in[x];
    }
    to_distribution(ws.log_belief.data(), card, result.marginals[v]);
    result.map_assignment[v] = static_cast<std::size_t>(
        std::max_element(ws.log_belief.begin(), ws.log_belief.begin() + static_cast<std::ptrdiff_t>(card)) -
        ws.log_belief.begin());
  }
  return result;
}

ExactResult enumerate_exact(const FactorGraph& graph) {
  const std::size_t num_vars = graph.num_variables();
  std::size_t total = 1;
  for (VarId v = 0; v < num_vars; ++v) {
    total *= graph.variable(v).cardinality;
    if (total > (1ULL << 22)) throw std::invalid_argument("enumerate_exact: too large");
  }

  ExactResult result;
  result.marginals.resize(num_vars);
  for (VarId v = 0; v < num_vars; ++v) {
    result.marginals[v].assign(graph.variable(v).cardinality, 0.0);
  }
  result.map_assignment.assign(num_vars, 0);

  std::vector<std::size_t> assignment(num_vars, 0);
  double best = util::kLogZero;
  double log_z = util::kLogZero;
  std::vector<std::vector<double>> log_marginals(num_vars);
  for (VarId v = 0; v < num_vars; ++v) {
    log_marginals[v].assign(graph.variable(v).cardinality, util::kLogZero);
  }
  for (std::size_t flat = 0; flat < total; ++flat) {
    const double score = graph.joint_log_score(assignment);
    log_z = util::log_add(log_z, score);
    if (score > best) {
      best = score;
      result.map_assignment = assignment;
    }
    for (VarId v = 0; v < num_vars; ++v) {
      auto& slot = log_marginals[v][assignment[v]];
      slot = util::log_add(slot, score);
    }
    for (std::size_t v = num_vars; v-- > 0;) {
      if (++assignment[v] < graph.variable(static_cast<VarId>(v)).cardinality) break;
      assignment[v] = 0;
    }
  }
  result.log_partition = log_z;
  for (VarId v = 0; v < num_vars; ++v) {
    for (std::size_t x = 0; x < result.marginals[v].size(); ++x) {
      result.marginals[v][x] = util::safe_exp(log_marginals[v][x] - log_z);
    }
  }
  return result;
}

}  // namespace at::fg
