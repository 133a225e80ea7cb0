// Bipartite matching primitives shared by the circuit schedulers.
//
// Ports of a circuit switch form a bipartite graph (inputs vs outputs); a
// valid circuit assignment is a matching. Solstice needs maximum-cardinality
// matchings on thresholded demand graphs (Hopcroft–Karp), Edmonds/TMS need
// maximum-weight assignments (Hungarian).
//
// The graph is one bit row per left vertex, ⌈n_right/64⌉ words each, so a
// left vertex's neighbours are always visited in ascending right order.
// Hopcroft–Karp runs its phases on those words: the BFS ORs each layer's
// rows into a seen-column mask, and the DFS finds a row's admissible
// neighbours with one mask per layer. The matching is bit for bit the one
// the adjacency-list Hopcroft–Karp returns with every list sorted
// ascending: full BFS layers, then a DFS from each free left vertex in
// index order that takes the first neighbour that is free or matched one
// layer deeper, and never retries a vertex that failed in the same phase.
// tests/matching_test.cc keeps that version as the reference.
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

/// Bipartite graph stored as one bit row per left vertex: bit r % 64 of
/// word r / 64 of row l is set iff the edge l -> r exists.
class BipartiteGraph {
 public:
  BipartiteGraph(int n_left, int n_right);

  /// Adds an edge that is not in the graph yet.
  void AddEdge(int left, int right);
  /// Removes an edge that is in the graph.
  void RemoveEdge(int left, int right);

  int n_left() const { return n_left_; }
  int n_right() const { return n_right_; }
  /// Words per row: ⌈n_right / 64⌉.
  int words() const { return words_; }
  /// The `words()` words of left vertex `left`'s row.
  const std::uint64_t* Row(int left) const {
    return bits_.data() + static_cast<std::size_t>(left) *
                              static_cast<std::size_t>(words_);
  }

 private:
  int n_left_;
  int n_right_;
  int words_;
  std::vector<std::uint64_t> bits_;
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
