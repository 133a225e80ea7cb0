#include "matching/bipartite.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/assert.h"

namespace sunflow {

namespace {

constexpr int kWordBits = 64;

std::uint64_t BitOf(int right) {
  return std::uint64_t{1} << (right % kWordBits);
}

std::uint64_t LowestBit(std::uint64_t mask) { return mask & ~(mask - 1); }

// Index of the word holding edge left -> right in rows of `words` words.
std::size_t WordIndex(int words, int left, int right) {
  return static_cast<std::size_t>(left) * static_cast<std::size_t>(words) +
         static_cast<std::size_t>(right / kWordBits);
}

}  // namespace

BipartiteGraph::BipartiteGraph(int n_left, int n_right)
    : n_left_(n_left), n_right_(n_right),
      words_(n_right / kWordBits + (n_right % kWordBits > 0 ? 1 : 0)) {
  SUNFLOW_CHECK(n_left >= 0 && n_right >= 0);
  bits_.assign(
      static_cast<std::size_t>(n_left) * static_cast<std::size_t>(words_), 0);
}

void BipartiteGraph::AddEdge(int left, int right) {
  SUNFLOW_CHECK(left >= 0 && left < n_left_);
  SUNFLOW_CHECK(right >= 0 && right < n_right_);
  std::uint64_t& word = bits_[WordIndex(words_, left, right)];
  SUNFLOW_CHECK_MSG((word & BitOf(right)) == 0,
                    "edge " << left << " -> " << right << " added twice");
  word |= BitOf(right);
}

void BipartiteGraph::RemoveEdge(int left, int right) {
  SUNFLOW_CHECK(left >= 0 && left < n_left_);
  SUNFLOW_CHECK_MSG(right >= 0 && right < n_right_ &&
                        (bits_[WordIndex(words_, left, right)] &
                         BitOf(right)) != 0,
                    "no edge " << left << " -> " << right << " to remove");
  bits_[WordIndex(words_, left, right)] &= ~BitOf(right);
}

namespace {

// Hopcroft–Karp on bit rows. Right vertices ("columns") are tracked in
// masks of graph.words() words:
//   free_cols_  columns no left vertex is matched to;
//   layer d     columns whose partner sits in BFS layer d and has not yet
//               failed a DFS in this phase.
// A left vertex of layer d may step to exactly the columns of
// free_cols_ | layer d+1, the neighbours the adjacency-list DFS accepts: a
// free column, or one whose partner is one layer deeper and still alive.
class HopcroftKarp {
 public:
  explicit HopcroftKarp(const BipartiteGraph& graph)
      : g_(graph),
        words_(static_cast<std::size_t>(graph.words())),
        match_l_(static_cast<std::size_t>(graph.n_left()), -1),
        match_r_(static_cast<std::size_t>(graph.n_right()), -1),
        free_cols_(words_, ~std::uint64_t{0}),
        seen_(words_, 0) {
    if (graph.n_right() % kWordBits != 0)
      free_cols_.back() = BitOf(graph.n_right()) - 1;
  }

  BipartiteMatching Run() {
    Greedy();
    while (Bfs()) {
      for (int u = 0; u < g_.n_left(); ++u)
        if (match_l_[static_cast<std::size_t>(u)] < 0) Dfs(u, 0);
    }
    return {std::move(match_l_), std::move(match_r_)};
  }

 private:
  std::uint64_t* Layer(int d) {
    return layers_.data() + static_cast<std::size_t>(d) * words_;
  }

  static int Column(std::size_t word, std::uint64_t mask) {
    return static_cast<int>(word) * kWordBits + std::countr_zero(mask);
  }

  void Match(int u, int v) {
    match_l_[static_cast<std::size_t>(u)] = v;
    match_r_[static_cast<std::size_t>(v)] = u;
  }

  // Phase 1. From the empty matching every left vertex is free (layer 0)
  // and no column has a partner, so each DFS, in index order, takes the
  // lowest free neighbour; the BFS would only learn whether any edge
  // exists.
  void Greedy() {
    for (int u = 0; u < g_.n_left(); ++u) {
      const std::uint64_t* row = g_.Row(u);
      for (std::size_t k = 0; k < words_; ++k) {
        const std::uint64_t cand = row[k] & free_cols_[k];
        if (cand == 0) continue;
        free_cols_[k] &= ~LowestBit(cand);
        Match(u, Column(k, cand));
        break;
      }
    }
  }

  // Level-synchronous BFS from every free left vertex. A column joins
  // seen_ the first time a row of the frontier reaches it, and its partner,
  // if any, joins the next layer; so the layers are BFS distances. The BFS
  // explores everything reachable, not only up to the first layer that
  // reaches a free column, because the DFS may augment along any layered
  // path. Returns whether some reached column is free.
  bool Bfs() {
    frontier_.clear();
    for (int u = 0; u < g_.n_left(); ++u)
      if (match_l_[static_cast<std::size_t>(u)] < 0) frontier_.push_back(u);
    std::fill(seen_.begin(), seen_.end(), 0);
    layers_.assign(words_, 0);  // layer 0's rows are free: no column yet
    for (int d = 0; !frontier_.empty(); ++d) {
      // The last layer this allocates stays empty, so a vertex of any layer
      // d has a layer d + 1 to read.
      layers_.resize(layers_.size() + words_, 0);
      std::uint64_t* next_layer = Layer(d + 1);
      next_.clear();
      for (int u : frontier_) {
        const std::uint64_t* row = g_.Row(u);
        for (std::size_t k = 0; k < words_; ++k) {
          const std::uint64_t fresh = row[k] & ~seen_[k];
          seen_[k] |= fresh;
          std::uint64_t matched = fresh & ~free_cols_[k];
          next_layer[k] |= matched;
          for (; matched != 0; matched &= matched - 1)
            next_.push_back(
                match_r_[static_cast<std::size_t>(Column(k, matched))]);
        }
      }
      frontier_.swap(next_);
    }
    for (std::size_t k = 0; k < words_; ++k)
      if ((seen_[k] & free_cols_[k]) != 0) return true;
    return false;
  }

  // Searches an augmenting path from u, a vertex of layer d, trying its
  // admissible columns in ascending order. While u scans, a failed partner
  // clears only its own column from layer d + 1 and no column frees up, so
  // dropping each tried column from the candidate word keeps it exact.
  bool Dfs(int u, int d) {
    const std::uint64_t* row = g_.Row(u);
    std::uint64_t* next_layer = Layer(d + 1);
    for (std::size_t k = 0; k < words_; ++k) {
      for (std::uint64_t cand = row[k] & (free_cols_[k] | next_layer[k]);
           cand != 0; cand &= cand - 1) {
        const int v = Column(k, cand);
        const int w = match_r_[static_cast<std::size_t>(v)];
        if (w < 0 || Dfs(w, d + 1)) {
          // v moves from free_cols_ or layer d + 1 to u's layer d.
          const std::uint64_t bit = LowestBit(cand);
          free_cols_[k] &= ~bit;
          next_layer[k] &= ~bit;
          Layer(d)[k] |= bit;
          Match(u, v);
          return true;
        }
      }
    }
    // u is dead for the rest of the phase, even if a later augmentation
    // would let it succeed (the adjacency-list DFS never retries it): no
    // vertex may step to its column.
    const int c = match_l_[static_cast<std::size_t>(u)];
    if (c >= 0)
      Layer(d)[static_cast<std::size_t>(c / kWordBits)] &= ~BitOf(c);
    return false;
  }

  const BipartiteGraph& g_;
  const std::size_t words_;
  std::vector<int> match_l_, match_r_;
  std::vector<std::uint64_t> free_cols_, seen_;
  // Layer d is words_ words at d * words_.
  std::vector<std::uint64_t> layers_;
  std::vector<int> frontier_, next_;
};

}  // namespace

BipartiteMatching MaxCardinalityMatching(const BipartiteGraph& graph) {
  return HopcroftKarp(graph).Run();
}

std::vector<int> MaxWeightAssignment(
    const std::vector<std::vector<double>>& weight) {
  const int n = static_cast<int>(weight.size());
  SUNFLOW_CHECK(n > 0);
  for (const auto& row : weight)
    SUNFLOW_CHECK(static_cast<int>(row.size()) == n);

  // Hungarian algorithm (potentials formulation) on the *cost* matrix
  // cost = -weight, computing a min-cost perfect assignment. 1-based
  // internal arrays per the classic formulation.
  const double INF = std::numeric_limits<double>::infinity();
  std::vector<double> u(static_cast<std::size_t>(n) + 1, 0);
  std::vector<double> v(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> p(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> way(static_cast<std::size_t>(n) + 1, 0);

  auto cost = [&](int i, int j) {
    return -weight[static_cast<std::size_t>(i - 1)]
                  [static_cast<std::size_t>(j - 1)];
  };

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(static_cast<std::size_t>(n) + 1, INF);
    std::vector<char> used(static_cast<std::size_t>(n) + 1, false);
    do {
      used[static_cast<std::size_t>(j0)] = true;
      const int i0 = p[static_cast<std::size_t>(j0)];
      double delta = INF;
      int j1 = -1;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const double cur = cost(i0, j) - u[static_cast<std::size_t>(i0)] -
                           v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      SUNFLOW_CHECK(j1 >= 0);
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<std::size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<std::size_t>(j0)];
      p[static_cast<std::size_t>(j0)] = p[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> assignment(static_cast<std::size_t>(n), -1);
  for (int j = 1; j <= n; ++j) {
    assignment[static_cast<std::size_t>(p[static_cast<std::size_t>(j)]) - 1] =
        j - 1;
  }
  return assignment;
}

}  // namespace sunflow
