// Bipartite matching primitives shared by the circuit schedulers.
//
// Ports of a circuit switch form a bipartite graph (inputs vs outputs); a
// valid circuit assignment is a matching. Solstice needs maximum-cardinality
// matchings on thresholded demand graphs (Hopcroft–Karp), Edmonds/TMS need
// maximum-weight assignments (Hungarian).
#pragma once

#include <cstdint>
#include <vector>

namespace sunflow {

/// A matching over a bipartite graph with `n_left` and `n_right` vertices:
/// match_of_left[i] is the matched right vertex or -1.
struct BipartiteMatching {
  std::vector<int> match_of_left;
  std::vector<int> match_of_right;

  int size() const {
    int n = 0;
    for (int m : match_of_left)
      if (m >= 0) ++n;
    return n;
  }
};

/// Adjacency-list bipartite graph (left -> list of right neighbours).
class BipartiteGraph {
 public:
  BipartiteGraph(int n_left, int n_right);

  void AddEdge(int left, int right);
  /// Removes an existing edge; the other neighbours of `left` keep their
  /// order.
  void RemoveEdge(int left, int right);

  int n_left() const { return n_left_; }
  int n_right() const { return n_right_; }
  const std::vector<int>& Neighbors(int left) const {
    return adj_[static_cast<std::size_t>(left)];
  }

 private:
  int n_left_;
  int n_right_;
  std::vector<std::vector<int>> adj_;
};

/// Maximum-cardinality matching in O(E·sqrt(V)) (Hopcroft–Karp).
BipartiteMatching MaxCardinalityMatching(const BipartiteGraph& graph);

/// True iff the graph admits a matching saturating every left vertex.
bool HasPerfectMatching(const BipartiteGraph& graph);

/// Maximum-weight assignment on an n×n weight matrix (weights may be 0 for
/// absent edges; entries must be finite). Returns a *perfect* matching that
/// maximizes total weight — the Hungarian algorithm, O(n³).
/// weight[i][j] is the benefit of assigning left i to right j.
std::vector<int> MaxWeightAssignment(
    const std::vector<std::vector<double>>& weight);

}  // namespace sunflow
