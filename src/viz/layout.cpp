#include "viz/layout.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace at::viz {

namespace {

/// Barnes-Hut quadtree over 2-D points with unit masses.
class QuadTree {
 public:
  QuadTree(double min_x, double min_y, double size) {
    nodes_.push_back(Cell{min_x, min_y, size});
  }

  void insert(double x, double y) { insert_into(0, x, y, 0); }

  /// Accumulate repulsive force on (x, y) with strength k^2 / d.
  void accumulate(double x, double y, double k2, double theta, double& fx,
                  double& fy) const {
    accumulate_from(0, x, y, k2, theta, fx, fy);
  }

 private:
  struct Cell {
    double min_x = 0.0;
    double min_y = 0.0;
    double size = 0.0;
    double mass = 0.0;
    double com_x = 0.0;  ///< center of mass
    double com_y = 0.0;
    int children[4] = {-1, -1, -1, -1};
    bool leaf = true;
    bool occupied = false;
    double px = 0.0;  ///< the single point if leaf && occupied
    double py = 0.0;
  };

  static constexpr int kMaxDepth = 32;

  int quadrant(const Cell& cell, double x, double y) const {
    const double mx = cell.min_x + cell.size / 2.0;
    const double my = cell.min_y + cell.size / 2.0;
    return (x >= mx ? 1 : 0) | (y >= my ? 2 : 0);
  }

  void insert_into(int index, double x, double y, int depth) {
    for (;;) {
      Cell& cell = nodes_[static_cast<std::size_t>(index)];
      // Update aggregate mass/center.
      const double total = cell.mass + 1.0;
      cell.com_x = (cell.com_x * cell.mass + x) / total;
      cell.com_y = (cell.com_y * cell.mass + y) / total;
      cell.mass = total;

      if (cell.leaf && !cell.occupied) {
        cell.occupied = true;
        cell.px = x;
        cell.py = y;
        return;
      }
      if (cell.leaf && cell.occupied) {
        if (depth >= kMaxDepth ||
            (std::abs(cell.px - x) < 1e-12 && std::abs(cell.py - y) < 1e-12)) {
          // Coincident points: keep them aggregated in this leaf.
          return;
        }
        // Split: push the resident point down, then continue inserting.
        const double old_x = cell.px;
        const double old_y = cell.py;
        cell.leaf = false;
        cell.occupied = false;
        const int child_old = child_for(index, old_x, old_y);
        Cell& reloaded = nodes_[static_cast<std::size_t>(index)];
        (void)reloaded;
        Cell& old_child = nodes_[static_cast<std::size_t>(child_old)];
        old_child.occupied = true;
        old_child.px = old_x;
        old_child.py = old_y;
        old_child.mass = 1.0;
        old_child.com_x = old_x;
        old_child.com_y = old_y;
      }
      const int child = child_for(index, x, y);
      index = child;
      ++depth;
    }
  }

  /// Child cell index for a point, creating it if needed.
  int child_for(int index, double x, double y) {
    const int quad = quadrant(nodes_[static_cast<std::size_t>(index)], x, y);
    if (nodes_[static_cast<std::size_t>(index)].children[quad] < 0) {
      Cell child;
      const Cell& parent = nodes_[static_cast<std::size_t>(index)];
      child.size = parent.size / 2.0;
      child.min_x = parent.min_x + ((quad & 1) ? child.size : 0.0);
      child.min_y = parent.min_y + ((quad & 2) ? child.size : 0.0);
      nodes_.push_back(child);
      nodes_[static_cast<std::size_t>(index)].children[quad] =
          static_cast<int>(nodes_.size() - 1);
    }
    return nodes_[static_cast<std::size_t>(index)].children[quad];
  }

  void accumulate_from(int index, double x, double y, double k2, double theta,
                       double& fx, double& fy) const {
    const Cell& cell = nodes_[static_cast<std::size_t>(index)];
    if (cell.mass <= 0.0) return;
    const double dx = x - cell.com_x;
    const double dy = y - cell.com_y;
    const double dist2 = dx * dx + dy * dy + 1e-9;
    const double dist = std::sqrt(dist2);
    if (cell.leaf || cell.size / dist < theta) {
      // Repulsion k^2/d per unit mass (Fruchterman-Reingold).
      const double force = k2 * cell.mass / dist2;
      fx += dx * force;
      fy += dy * force;
      return;
    }
    for (const int child : cell.children) {
      if (child >= 0) accumulate_from(child, x, y, k2, theta, fx, fy);
    }
  }

  std::vector<Cell> nodes_;
};

}  // namespace

LayoutStats run_layout(Graph& graph, const LayoutOptions& options) {
  auto& nodes = graph.nodes();
  const std::size_t n = nodes.size();
  LayoutStats stats;
  if (n == 0) return stats;

  const double side = std::sqrt(options.area);
  const double k = std::sqrt(options.area / static_cast<double>(n));
  const double k2 = k * k;

  util::Rng rng(options.seed);
  for (auto& node : nodes) {
    node.x = rng.uniform(0.0, side);
    node.y = rng.uniform(0.0, side);
  }

  std::vector<double> fx(n, 0.0);
  std::vector<double> fy(n, 0.0);
  util::ThreadPool pool;  // hardware concurrency

  double step = kLayoutInitialStep * side;
  for (std::size_t iter = 0; iter < options.iterations; ++iter) {
    // Build the quadtree over current positions.
    double min_x = nodes[0].x;
    double min_y = nodes[0].y;
    double max_x = min_x;
    double max_y = min_y;
    for (const auto& node : nodes) {
      min_x = std::min(min_x, node.x);
      min_y = std::min(min_y, node.y);
      max_x = std::max(max_x, node.x);
      max_y = std::max(max_y, node.y);
    }
    const double extent = std::max(max_x - min_x, max_y - min_y) + 1e-6;
    QuadTree tree(min_x, min_y, extent);
    for (const auto& node : nodes) tree.insert(node.x, node.y);

    // Repulsion (parallel, read-only tree).
    pool.parallel_for(0, n, [&](std::size_t i) {
      double rx = 0.0;
      double ry = 0.0;
      tree.accumulate(nodes[i].x, nodes[i].y, k2, options.theta, rx, ry);
      fx[i] = rx;
      fy[i] = ry;
    });

    // Attraction along edges: d^2 / k.
    for (const auto& edge : graph.edges()) {
      const double dx = nodes[edge.dst].x - nodes[edge.src].x;
      const double dy = nodes[edge.dst].y - nodes[edge.src].y;
      const double dist = std::sqrt(dx * dx + dy * dy) + 1e-9;
      const double force = dist / k;  // F_a(d) = d^2/k, normalized by d
      fx[edge.src] += dx * force;
      fy[edge.src] += dy * force;
      fx[edge.dst] -= dx * force;
      fy[edge.dst] -= dy * force;
    }

    // Displace, capped by the cooling step.
    double max_move = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double mag = std::sqrt(fx[i] * fx[i] + fy[i] * fy[i]) + 1e-12;
      const double move = std::min(mag, step);
      nodes[i].x += fx[i] / mag * move;
      nodes[i].y += fy[i] / mag * move;
      max_move = std::max(max_move, move);
    }
    step *= 0.92;  // geometric cooling
    stats.final_max_move = max_move;
    stats.iterations = iter + 1;
  }

  // Bounding radius around the centroid.
  double cx = 0.0;
  double cy = 0.0;
  for (const auto& node : nodes) {
    cx += node.x;
    cy += node.y;
  }
  cx /= static_cast<double>(n);
  cy /= static_cast<double>(n);
  for (const auto& node : nodes) {
    const double dx = node.x - cx;
    const double dy = node.y - cy;
    stats.bounding_radius = std::max(stats.bounding_radius, std::sqrt(dx * dx + dy * dy));
  }
  return stats;
}

}  // namespace at::viz
