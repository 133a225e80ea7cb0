#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

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
  EXPECT_TRUE(HasPerfectMatching(g));
}

TEST(HopcroftKarp, DetectsNoPerfectMatching) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 0);  // both compete for right-0
  const auto m = MaxCardinalityMatching(g);
  EXPECT_EQ(m.size(), 1);
  EXPECT_FALSE(HasPerfectMatching(g));
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
  for (const int n : {2, 8, 40, 150}) {
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
