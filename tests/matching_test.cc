#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "matching/bipartite.h"
#include "matching/decomposition.h"

namespace sunflow {
namespace {

// Brute-force maximum matching size via permutation search (n <= 7).
int BruteForceMaxMatching(const std::vector<std::vector<char>>& adj) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  int best = 0;
  do {
    int count = 0;
    for (int i = 0; i < n; ++i)
      if (adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(
              perm[static_cast<std::size_t>(i)])])
        ++count;
    best = std::max(best, count);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

double BruteForceMaxWeight(const std::vector<std::vector<double>>& w) {
  const int n = static_cast<int>(w.size());
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  double best = -1e18;
  do {
    double total = 0;
    for (int i = 0; i < n; ++i)
      total += w[static_cast<std::size_t>(i)]
                [static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(HopcroftKarp, SimplePerfectMatching) {
  BipartiteGraph g(3, 3);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 1);
  g.AddEdge(2, 2);
  const auto m = MaxCardinalityMatching(g);
  EXPECT_EQ(m.size(), 3);
}

TEST(HopcroftKarp, DetectsNoPerfectMatching) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 0);  // both compete for right-0
  const auto m = MaxCardinalityMatching(g);
  EXPECT_EQ(m.size(), 1);
}

TEST(HopcroftKarp, EmptyGraph) {
  BipartiteGraph g(3, 3);
  EXPECT_EQ(MaxCardinalityMatching(g).size(), 0);
}

TEST(HopcroftKarp, MatchingIsConsistent) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 9));
    BipartiteGraph g(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (rng.Bernoulli(0.4)) g.AddEdge(i, j);
    const auto m = MaxCardinalityMatching(g);
    // match_of_left and match_of_right must agree and be injective.
    for (int i = 0; i < n; ++i) {
      const int j = m.match_of_left[static_cast<std::size_t>(i)];
      if (j >= 0) {
        EXPECT_EQ(m.match_of_right[static_cast<std::size_t>(j)], i);
      }
    }
  }
}

class RandomGraphMatching : public ::testing::TestWithParam<int> {};

TEST_P(RandomGraphMatching, AgreesWithBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));  // up to 6
  std::vector<std::vector<char>> adj(
      static_cast<std::size_t>(n), std::vector<char>(static_cast<std::size_t>(n), 0));
  BipartiteGraph g(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.45)) {
        adj[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
        g.AddEdge(i, j);
      }
    }
  }
  EXPECT_EQ(MaxCardinalityMatching(g).size(), BruteForceMaxMatching(adj));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphMatching,
                         ::testing::Range(0, 40));

// Test-only reference: the adjacency-list Hopcroft–Karp whose matchings the
// bit-row one must reproduce. adj[u] lists u's right neighbours in the
// order the DFS tries them.
class ReferenceHopcroftKarp {
 public:
  ReferenceHopcroftKarp(const std::vector<std::vector<int>>& adj, int n_right)
      : adj_(adj),
        match_l_(adj.size(), -1),
        match_r_(static_cast<std::size_t>(n_right), -1),
        dist_(adj.size(), 0) {}

  BipartiteMatching Run() {
    while (Bfs()) {
      for (std::size_t u = 0; u < adj_.size(); ++u)
        if (match_l_[u] < 0) Dfs(static_cast<int>(u));
    }
    return {match_l_, match_r_};
  }

 private:
  static constexpr int kInf = std::numeric_limits<int>::max();

  bool Bfs() {
    std::queue<int> q;
    bool found_free = false;
    for (std::size_t u = 0; u < adj_.size(); ++u) {
      if (match_l_[u] < 0) {
        dist_[u] = 0;
        q.push(static_cast<int>(u));
      } else {
        dist_[u] = kInf;
      }
    }
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : adj_[static_cast<std::size_t>(u)]) {
        const int w = match_r_[static_cast<std::size_t>(v)];
        if (w < 0) {
          found_free = true;
        } else if (dist_[static_cast<std::size_t>(w)] == kInf) {
          dist_[static_cast<std::size_t>(w)] =
              dist_[static_cast<std::size_t>(u)] + 1;
          q.push(w);
        }
      }
    }
    return found_free;
  }

  bool Dfs(int u) {
    for (int v : adj_[static_cast<std::size_t>(u)]) {
      const int w = match_r_[static_cast<std::size_t>(v)];
      if (w < 0 || (dist_[static_cast<std::size_t>(w)] ==
                        dist_[static_cast<std::size_t>(u)] + 1 &&
                    Dfs(w))) {
        match_l_[static_cast<std::size_t>(u)] = v;
        match_r_[static_cast<std::size_t>(v)] = u;
        return true;
      }
    }
    dist_[static_cast<std::size_t>(u)] = kInf;
    return false;
  }

  const std::vector<std::vector<int>>& adj_;
  std::vector<int> match_l_, match_r_, dist_;
};

// Sizes around the 64-bit word boundaries, plus paper scale (150 ports).
constexpr int kWordBoundarySizes[] = {1,   2,   63,  64,  65,
                                      127, 128, 129, 150, 200};

class BitRowMatching : public ::testing::TestWithParam<int> {};

// BigSlice's pattern on random graphs: match, drop a random subset of the
// matched edges, match again, up to 30 rounds. Every matching must equal
// the adjacency-list reference's, vertex for vertex.
TEST_P(BitRowMatching, EqualsAdjacencyListReference) {
  const int n_left = GetParam();
  Rng rng(static_cast<std::uint64_t>(n_left) + 1603);
  for (const int n_right : kWordBoundarySizes) {
    // 6–10 edges per row (the BvN-tail graph the next test was shrunk
    // from has 9.6), then sparse, then dense.
    for (const double density :
         {std::min(0.9, rng.Uniform(6.0, 10.0) / n_right),
          rng.Uniform(0.01, 0.1), rng.Uniform(0.1, 0.9)}) {
      SCOPED_TRACE("n_left=" + std::to_string(n_left) +
                   " n_right=" + std::to_string(n_right) +
                   " density=" + std::to_string(density));
      BipartiteGraph g(n_left, n_right);
      std::vector<std::vector<int>> adj(static_cast<std::size_t>(n_left));
      for (int i = 0; i < n_left; ++i) {
        for (int j = 0; j < n_right; ++j) {
          if (!rng.Bernoulli(density)) continue;
          g.AddEdge(i, j);
          adj[static_cast<std::size_t>(i)].push_back(j);
        }
      }
      for (int round = 0; round < 30; ++round) {
        const BipartiteMatching got = MaxCardinalityMatching(g);
        const BipartiteMatching want =
            ReferenceHopcroftKarp(adj, n_right).Run();
        ASSERT_EQ(got.match_of_left, want.match_of_left) << "round " << round;
        ASSERT_EQ(got.match_of_right, want.match_of_right) << "round " << round;
        std::vector<int> matched;
        for (int i = 0; i < n_left; ++i)
          if (want.match_of_left[static_cast<std::size_t>(i)] >= 0)
            matched.push_back(i);
        if (matched.empty()) break;
        // At least one matched edge goes, as in every BigSlice slot.
        const auto must_drop = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(matched.size()) - 1));
        for (std::size_t k = 0; k < matched.size(); ++k) {
          if (k != must_drop && !rng.Bernoulli(0.5)) continue;
          const int i = matched[k];
          const int j = want.match_of_left[static_cast<std::size_t>(i)];
          g.RemoveEdge(i, j);
          auto& row = adj[static_cast<std::size_t>(i)];
          row.erase(std::find(row.begin(), row.end(), j));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, BitRowMatching,
                         ::testing::ValuesIn(kWordBoundarySizes));

// A left vertex whose DFS failed stays dead for the rest of its phase, even
// when a later augmentation would let it succeed. In this graph (shrunk
// from a Solstice BvN-tail graph) the second phase's BFS puts rows 5, 8
// and 9 in layer 0 and row 4 in layer 1, next to column 5, which is free.
// Row 5's path hands column 5 to row 0 (layer 3). Row 8 then tries row 4,
// which fails, and row 8's own path moves column 5 to row 6 (layer 2),
// right below row 4. Row 9 reaches row 4 through column 2 but must not
// retry it, so row 9 waits for the third phase.
TEST(HopcroftKarp, FailedRowStaysDeadForItsPhase) {
  const std::vector<std::pair<int, int>> edges = {
      {0, 3}, {0, 5}, {0, 7}, {1, 1}, {1, 3}, {2, 1},  {2, 6},
      {3, 4}, {3, 9}, {4, 2}, {4, 5}, {5, 6}, {6, 0},  {6, 5},
      {6, 8}, {7, 0}, {7, 4}, {7, 10}, {8, 2}, {8, 10}, {9, 2}};
  BipartiteGraph g(10, 11);
  std::vector<std::vector<int>> adj(10);
  for (const auto& [i, j] : edges) {
    g.AddEdge(i, j);
    adj[static_cast<std::size_t>(i)].push_back(j);
  }
  const BipartiteMatching got = MaxCardinalityMatching(g);
  EXPECT_EQ(got.match_of_left,
            ReferenceHopcroftKarp(adj, 11).Run().match_of_left);
  EXPECT_EQ(got.match_of_left,
            (std::vector<int>{7, 3, 1, 9, 5, 6, 0, 4, 10, 2}));
}

std::string CheckMessage(const std::function<void()>& f) {
  try {
    f();
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(BipartiteGraph, DuplicateEdgeFails) {
  BipartiteGraph g(2, 70);
  g.AddEdge(1, 65);
  EXPECT_NE(CheckMessage([&] { g.AddEdge(1, 65); }).find("added twice"),
            std::string::npos);
}

TEST(BipartiteGraph, RemovingAMissingEdgeNamesIt) {
  BipartiteGraph g(3, 130);
  g.AddEdge(2, 128);
  g.RemoveEdge(2, 128);
  EXPECT_NE(CheckMessage([&] { g.RemoveEdge(2, 128); })
                .find("no edge 2 -> 128 to remove"),
            std::string::npos);
  EXPECT_NE(CheckMessage([&] { g.RemoveEdge(0, 130); })
                .find("no edge 0 -> 130 to remove"),
            std::string::npos);
}

TEST(BipartiteGraph, OutOfRangeIndexFails) {
  BipartiteGraph g(2, 64);
  EXPECT_THROW(g.AddEdge(2, 0), CheckFailure);
  EXPECT_THROW(g.AddEdge(-1, 0), CheckFailure);
  EXPECT_THROW(g.AddEdge(0, 64), CheckFailure);
  EXPECT_THROW(g.AddEdge(0, -1), CheckFailure);
  EXPECT_THROW(g.RemoveEdge(2, 0), CheckFailure);
  EXPECT_THROW(g.RemoveEdge(-1, 0), CheckFailure);
  EXPECT_THROW(BipartiteGraph(-1, 3), CheckFailure);
  EXPECT_THROW(BipartiteGraph(3, -1), CheckFailure);
}

class RandomAssignment : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssignment, HungarianMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
  std::vector<std::vector<double>> w(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0));
  for (auto& row : w)
    for (auto& v : row) v = rng.Uniform(0, 10);
  const auto assignment = MaxWeightAssignment(w);
  // It is a permutation.
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  double total = 0;
  for (int i = 0; i < n; ++i) {
    const int j = assignment[static_cast<std::size_t>(i)];
    ASSERT_GE(j, 0);
    ASSERT_LT(j, n);
    EXPECT_FALSE(used[static_cast<std::size_t>(j)]);
    used[static_cast<std::size_t>(j)] = 1;
    total += w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }
  EXPECT_NEAR(total, BruteForceMaxWeight(w), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssignment, ::testing::Range(0, 40));

TEST(Hungarian, HandlesNegativeWeights) {
  // The potentials formulation must not assume non-negativity.
  std::vector<std::vector<double>> w = {{-5.0, 2.0}, {1.0, -3.0}};
  const auto assignment = MaxWeightAssignment(w);
  // Best total: 2 + 1 = 3 (anti-diagonal).
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
}

TEST(Hungarian, SingleElement) {
  const auto assignment = MaxWeightAssignment({{7.0}});
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_EQ(assignment[0], 0);
}

TEST(QuickStuff, MakesMatrixPerfect) {
  DemandMatrix m({{5.0, 0.0, 0.0}, {0.0, 2.0, 1.0}, {1.0, 0.0, 0.0}});
  const Time target = QuickStuff(m);
  EXPECT_DOUBLE_EQ(target, 6.0);  // max line sum is column 0: 5 + 1
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(m.RowSum(i), target, 1e-9);
    EXPECT_NEAR(m.ColSum(i), target, 1e-9);
  }
}

TEST(QuickStuff, NeverDecreasesEntries) {
  DemandMatrix original({{3.0, 1.0}, {0.0, 2.0}});
  DemandMatrix m = original;
  QuickStuff(m);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      EXPECT_GE(m.at(i, j), original.at(i, j) - 1e-12);
}

TEST(QuickStuff, ZeroMatrixIsNoop) {
  DemandMatrix m({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_DOUBLE_EQ(QuickStuff(m), 0.0);
  EXPECT_TRUE(m.IsZero());
}

TEST(Bvn, DecomposesDoublyStochastic) {
  // 2x2 doubly stochastic: total per line = 1.
  DemandMatrix m({{0.25, 0.75}, {0.75, 0.25}});
  const auto slots = BvnDecompose(m);
  ASSERT_EQ(slots.size(), 2u);
  Time total = 0;
  for (const auto& s : slots) total += s.duration;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Bvn, CoversAllDemandExactly) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
    std::vector<std::vector<Time>> e(
        static_cast<std::size_t>(n),
        std::vector<Time>(static_cast<std::size_t>(n), 0));
    for (auto& row : e)
      for (auto& v : row) v = rng.Bernoulli(0.5) ? rng.Uniform(0.1, 4.0) : 0.0;
    DemandMatrix m(e);
    QuickStuff(m);
    DemandMatrix stuffed = m;  // remember pre-decomposition entries
    const auto slots = BvnDecompose(std::move(m));
    // Re-accumulate and compare.
    std::vector<std::vector<Time>> acc(
        static_cast<std::size_t>(n),
        std::vector<Time>(static_cast<std::size_t>(n), 0));
    for (const auto& s : slots) {
      for (int r = 0; r < n; ++r) {
        const int c = s.col_of_row[static_cast<std::size_t>(r)];
        ASSERT_GE(c, 0);
        acc[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] +=
            s.duration;
      }
    }
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        EXPECT_NEAR(acc[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                    stuffed.at(r, c), 1e-6);
  }
}

TEST(Bvn, SlotCountWithinTheoreticalCap) {
  Rng rng(13);
  const int n = 6;
  std::vector<std::vector<Time>> e(
      static_cast<std::size_t>(n), std::vector<Time>(static_cast<std::size_t>(n), 0));
  for (auto& row : e)
    for (auto& v : row) v = rng.Uniform(0.0, 1.0);
  DemandMatrix m(e);
  QuickStuff(m);
  const auto slots = BvnDecompose(std::move(m));
  EXPECT_LE(static_cast<int>(slots.size()), n * n - 2 * n + 2);
}

TEST(BigSlice, CoversAllDemand) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 5));
    std::vector<std::vector<Time>> e(
        static_cast<std::size_t>(n),
        std::vector<Time>(static_cast<std::size_t>(n), 0));
    for (auto& row : e)
      for (auto& v : row) v = rng.Bernoulli(0.6) ? rng.Uniform(0.1, 8.0) : 0.0;
    DemandMatrix m(e);
    QuickStuff(m);
    DemandMatrix stuffed = m;
    const auto slots = BigSliceDecompose(std::move(m));
    std::vector<std::vector<Time>> acc(
        static_cast<std::size_t>(n),
        std::vector<Time>(static_cast<std::size_t>(n), 0));
    for (const auto& s : slots) {
      for (int r = 0; r < n; ++r) {
        const int c = s.col_of_row[static_cast<std::size_t>(r)];
        if (c >= 0)
          acc[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] +=
              s.duration;
      }
    }
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        EXPECT_GE(acc[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                  stuffed.at(r, c) - 1e-6);
  }
}

TEST(BigSlice, PrefersFewSlotsOnUniformMatrix) {
  // A constant matrix decomposes into exactly n full-length slices.
  const int n = 4;
  DemandMatrix m(std::vector<std::vector<Time>>(
      static_cast<std::size_t>(n),
      std::vector<Time>(static_cast<std::size_t>(n), 2.0)));
  QuickStuff(m);
  const auto slots = BigSliceDecompose(std::move(m));
  EXPECT_EQ(slots.size(), static_cast<std::size_t>(n));
}

TEST(Bvn, DrainsUnbalancedResidue) {
  // Not a perfect matrix (line sums differ): the mop-up must still drain
  // everything above dust rather than demand Hall's condition.
  DemandMatrix m({{0.5, 0.0, 0.2}, {0.0, 0.0, 0.0}, {0.1, 0.0, 0.0}});
  const auto slots = BvnDecompose(m);
  // Re-accumulate: coverage of every positive cell.
  double acc00 = 0, acc02 = 0, acc20 = 0;
  for (const auto& s : slots) {
    if (s.col_of_row[0] == 0) acc00 += s.duration;
    if (s.col_of_row[0] == 2) acc02 += s.duration;
    if (s.col_of_row[2] == 0) acc20 += s.duration;
  }
  EXPECT_NEAR(acc00, 0.5, 1e-6);
  EXPECT_NEAR(acc02, 0.2, 1e-6);
  EXPECT_NEAR(acc20, 0.1, 1e-6);
}

TEST(Bvn, LargeScaleMatrixRemainsExact) {
  // Magnitudes like a 150-port coflow at 1 Gbps (hundreds of seconds):
  // relative dust thresholds must not eat real demand.
  Rng rng(19);
  const int n = 20;
  std::vector<std::vector<Time>> e(
      static_cast<std::size_t>(n),
      std::vector<Time>(static_cast<std::size_t>(n), 0));
  for (auto& row : e)
    for (auto& v : row)
      if (rng.Bernoulli(0.5)) v = rng.Uniform(1.0, 40.0);
  DemandMatrix m(e);
  QuickStuff(m);
  const Time target = m.MaxLineSum();
  DemandMatrix stuffed = m;
  const auto slots = BvnDecompose(std::move(m));
  Time total = 0;
  for (const auto& s : slots) total += s.duration;
  // Exact BvN of a perfect matrix sums to (almost exactly) T.
  EXPECT_NEAR(total, target, target * 1e-6);
  (void)stuffed;
}

TEST(BigSlice, FloorLeavesOnlyDroppableResidue) {
  Rng rng(23);
  const int n = 12;
  std::vector<std::vector<Time>> e(
      static_cast<std::size_t>(n),
      std::vector<Time>(static_cast<std::size_t>(n), 0));
  for (auto& row : e)
    for (auto& v : row)
      if (rng.Bernoulli(0.7)) v = rng.Uniform(0.01, 5.0);
  DemandMatrix m(e);
  QuickStuff(m);
  DemandMatrix stuffed = m;
  const auto slots = BigSliceDecompose(std::move(m));
  std::vector<std::vector<Time>> acc(
      static_cast<std::size_t>(n),
      std::vector<Time>(static_cast<std::size_t>(n), 0));
  for (const auto& s : slots) {
    for (int r = 0; r < n; ++r) {
      const int c = s.col_of_row[static_cast<std::size_t>(r)];
      if (c >= 0)
        acc[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] +=
            s.duration;
    }
  }
  const Time tolerance = stuffed.MaxLineSum() * 1e-6 + 1e-9;
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      EXPECT_GE(acc[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                stuffed.at(r, c) - tolerance);
}

// Test-only oracle: both decompositions as first written, with a fresh
// threshold graph built for every slot. The library keeps one graph per
// threshold and removes only the entries a slot drained below it.
BipartiteGraph OracleThresholdGraph(const DemandMatrix& m, Time threshold) {
  BipartiteGraph g(m.rows(), m.cols());
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j)
      if (m.at(i, j) >= threshold) g.AddEdge(i, j);
  return g;
}

std::vector<WeightedAssignment> OracleBvn(DemandMatrix m, Time eps,
                                          Time reference_scale) {
  const Time scale =
      reference_scale > 0 ? reference_scale : std::max(m.MaxLineSum(), 1.0);
  const Time dust = std::max(eps, scale * 1e-10);
  std::vector<WeightedAssignment> out;
  while (!m.IsZero(dust)) {
    WeightedAssignment slot;
    slot.col_of_row =
        MaxCardinalityMatching(OracleThresholdGraph(m, dust)).match_of_left;
    Time w = kTimeInf;
    for (int i = 0; i < m.rows(); ++i) {
      const int j = slot.col_of_row[static_cast<std::size_t>(i)];
      if (j >= 0) w = std::min(w, m.at(i, j));
    }
    for (int i = 0; i < m.rows(); ++i) {
      const int j = slot.col_of_row[static_cast<std::size_t>(i)];
      if (j >= 0) m.at(i, j) = std::max(0.0, m.at(i, j) - w);
    }
    slot.duration = w;
    out.push_back(std::move(slot));
  }
  return out;
}

std::vector<WeightedAssignment> OracleBigSlice(DemandMatrix m, Time eps) {
  std::vector<WeightedAssignment> out;
  const Time total_target = m.MaxLineSum();
  if (total_target <= eps) return out;
  const Time floor = std::max(eps, total_target * 1e-6);
  int k = 0;
  while (!m.IsZero(eps) && k <= 48) {
    const Time r = total_target / std::pow(2.0, k);
    if (r <= floor) break;
    const auto matching = MaxCardinalityMatching(OracleThresholdGraph(m, r));
    if (matching.size() != m.rows()) {
      ++k;
      continue;
    }
    for (int i = 0; i < m.rows(); ++i) {
      Time& cell = m.at(i, matching.match_of_left[static_cast<std::size_t>(i)]);
      cell = std::max(0.0, cell - r);
    }
    out.push_back({matching.match_of_left, r});
  }
  auto tail = OracleBvn(std::move(m), eps, total_target);
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void ExpectSameSlots(const std::vector<WeightedAssignment>& got,
                     const std::vector<WeightedAssignment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].col_of_row, want[s].col_of_row) << "slot " << s;
    ASSERT_EQ(got[s].duration, want[s].duration) << "slot " << s;
  }
}

TEST(Decomposition, MatchesPerSlotRebuildOracle) {
  Rng rng(20161212);
  // 65 and 129 have a partly filled last row word; they come last so the
  // other sizes keep their draws.
  for (const int n : {2, 8, 40, 150, 65, 129}) {
    // Sparse: about 3 demand entries per row. Dense: about 15 per row, or
    // half the row when n is small (the oracle's per-slot rebuild makes
    // denser 150-port cases slow).
    for (const double density :
         {std::min(1.0, 3.0 / n), std::min(0.5, 15.0 / n)}) {
      std::vector<std::vector<Time>> e(
          static_cast<std::size_t>(n),
          std::vector<Time>(static_cast<std::size_t>(n), 0));
      for (auto& row : e)
        for (auto& v : row)
          if (rng.Bernoulli(density)) v = rng.Uniform(0.01, 5.0);
      DemandMatrix m(e);
      QuickStuff(m);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " density=" + std::to_string(density));
      ExpectSameSlots(BigSliceDecompose(m), OracleBigSlice(m, kTimeEps));
      ExpectSameSlots(BvnDecompose(m), OracleBvn(m, kTimeEps, 0));
    }
  }
}

TEST(Sinkhorn, ApproachesTargetLineSums) {
  DemandMatrix m({{4.0, 1.0}, {1.0, 0.0}});
  const DemandMatrix scaled = SinkhornScale(m, 10.0, 100);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(scaled.RowSum(i), 10.0, 0.2);
    EXPECT_NEAR(scaled.ColSum(i), 10.0, 0.2);
  }
}

TEST(Sinkhorn, FillsEmptyLines) {
  DemandMatrix m({{1.0, 0.0}, {0.0, 0.0}});
  const DemandMatrix scaled = SinkhornScale(m, 4.0, 50);
  EXPECT_GT(scaled.RowSum(1), 0.0);
  EXPECT_GT(scaled.ColSum(1), 0.0);
}

}  // namespace
}  // namespace sunflow
