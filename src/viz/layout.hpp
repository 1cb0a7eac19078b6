#pragma once
// Force-directed layout in the style the paper uses for Fig 1 (Gephi's
// Yifan-Hu / Fruchterman-Reingold family, ref [4]): spring attraction on
// edges, n-body repulsion between all nodes approximated with a
// Barnes-Hut quadtree (theta-criterion), cooled over a fixed iteration
// schedule. Repulsion is parallelized across a thread pool of hardware
// concurrency.

#include <cstddef>

#include "viz/graph.hpp"

namespace at::viz {

struct LayoutOptions {
  std::size_t iterations = 60;
  double area = 1.0e6;        ///< layout square area (k = sqrt(area / n))
  double theta = 0.9;         ///< Barnes-Hut accuracy/speed tradeoff
  std::uint64_t seed = 1;     ///< initial placement
};

/// First iteration's cap on a node's move, as a fraction of sqrt(area);
/// later iterations cool it.
inline constexpr double kLayoutInitialStep = 0.1;

struct LayoutStats {
  std::size_t iterations = 0;
  double final_max_move = 0.0;
  /// Mean distance of part-A scan targets to the mass scanner, vs mean
  /// pairwise scale — a "hub compactness" diagnostic for the star shape.
  double bounding_radius = 0.0;
};

/// Compute node coordinates in place.
LayoutStats run_layout(Graph& graph, const LayoutOptions& options = {});

}  // namespace at::viz
