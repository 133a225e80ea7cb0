#include "matching/bipartite.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/assert.h"

namespace sunflow {

BipartiteGraph::BipartiteGraph(int n_left, int n_right)
    : n_left_(n_left), n_right_(n_right),
      adj_(static_cast<std::size_t>(n_left)) {
  SUNFLOW_CHECK(n_left >= 0 && n_right >= 0);
}

void BipartiteGraph::AddEdge(int left, int right) {
  SUNFLOW_CHECK(left >= 0 && left < n_left_);
  SUNFLOW_CHECK(right >= 0 && right < n_right_);
  adj_[static_cast<std::size_t>(left)].push_back(right);
}

void BipartiteGraph::RemoveEdge(int left, int right) {
  SUNFLOW_CHECK(left >= 0 && left < n_left_);
  auto& adj = adj_[static_cast<std::size_t>(left)];
  const auto it = std::find(adj.begin(), adj.end(), right);
  SUNFLOW_CHECK_MSG(it != adj.end(),
                    "no edge " << left << " -> " << right << " to remove");
  adj.erase(it);
}

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

// Hopcroft–Karp working state.
struct HkState {
  const BipartiteGraph& g;
  std::vector<int> match_l, match_r, dist;

  explicit HkState(const BipartiteGraph& graph)
      : g(graph),
        match_l(static_cast<std::size_t>(graph.n_left()), -1),
        match_r(static_cast<std::size_t>(graph.n_right()), -1),
        dist(static_cast<std::size_t>(graph.n_left()), 0) {}

  bool Bfs() {
    std::queue<int> q;
    bool found_free = false;
    for (int u = 0; u < g.n_left(); ++u) {
      if (match_l[static_cast<std::size_t>(u)] < 0) {
        dist[static_cast<std::size_t>(u)] = 0;
        q.push(u);
      } else {
        dist[static_cast<std::size_t>(u)] = kInf;
      }
    }
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : g.Neighbors(u)) {
        const int w = match_r[static_cast<std::size_t>(v)];
        if (w < 0) {
          found_free = true;
        } else if (dist[static_cast<std::size_t>(w)] == kInf) {
          dist[static_cast<std::size_t>(w)] =
              dist[static_cast<std::size_t>(u)] + 1;
          q.push(w);
        }
      }
    }
    return found_free;
  }

  bool Dfs(int u) {
    for (int v : g.Neighbors(u)) {
      const int w = match_r[static_cast<std::size_t>(v)];
      if (w < 0 || (dist[static_cast<std::size_t>(w)] ==
                        dist[static_cast<std::size_t>(u)] + 1 &&
                    Dfs(w))) {
        match_l[static_cast<std::size_t>(u)] = v;
        match_r[static_cast<std::size_t>(v)] = u;
        return true;
      }
    }
    dist[static_cast<std::size_t>(u)] = kInf;
    return false;
  }
};

}  // namespace

BipartiteMatching MaxCardinalityMatching(const BipartiteGraph& graph) {
  HkState st(graph);
  while (st.Bfs()) {
    for (int u = 0; u < graph.n_left(); ++u) {
      if (st.match_l[static_cast<std::size_t>(u)] < 0) st.Dfs(u);
    }
  }
  return {std::move(st.match_l), std::move(st.match_r)};
}

bool HasPerfectMatching(const BipartiteGraph& graph) {
  if (graph.n_left() > graph.n_right()) return false;
  return MaxCardinalityMatching(graph).size() == graph.n_left();
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
