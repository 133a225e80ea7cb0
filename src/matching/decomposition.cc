#include "matching/decomposition.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "matching/bipartite.h"
#include "obs/profiler.h"

namespace sunflow {

namespace {

// Builds the bipartite graph of entries >= threshold, each row's
// neighbours in ascending column order.
BipartiteGraph ThresholdGraph(const DemandMatrix& m, Time threshold) {
  BipartiteGraph g(m.rows(), m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      if (m.at(i, j) >= threshold) g.AddEdge(i, j);
    }
  }
  return g;
}

// Subtracts `r` from each matched entry, clamping tiny negatives, and drops
// from `g` = ThresholdGraph(m, r) the entries that fell below r. No other
// entry changed, so `g` stays equal, neighbour order included, to a fresh
// ThresholdGraph of the updated matrix.
void SubtractMatching(DemandMatrix& m, BipartiteGraph& g,
                      const std::vector<int>& col_of_row, Time r) {
  for (int i = 0; i < m.rows(); ++i) {
    const int j = col_of_row[static_cast<std::size_t>(i)];
    SUNFLOW_CHECK(j >= 0);
    Time& cell = m.at(i, j);
    cell -= r;
    if (cell < 0) {
      SUNFLOW_CHECK_MSG(cell > -1e-6, "matching subtracted below zero");
      cell = 0;
    }
    if (cell < r) g.RemoveEdge(i, j);
  }
}

}  // namespace

Time QuickStuff(DemandMatrix& m) {
  SUNFLOW_CHECK_MSG(m.rows() == m.cols(), "QuickStuff requires square input");
  const int n = m.rows();
  const Time target = m.MaxLineSum();
  if (target <= kTimeEps) return 0;

  std::vector<Time> row_sum(static_cast<std::size_t>(n), 0);
  std::vector<Time> col_sum(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) row_sum[static_cast<std::size_t>(i)] = m.RowSum(i);
  for (int j = 0; j < n; ++j) col_sum[static_cast<std::size_t>(j)] = m.ColSum(j);

  auto stuff_cell = [&](int i, int j) {
    const Time slack =
        std::min(target - row_sum[static_cast<std::size_t>(i)],
                 target - col_sum[static_cast<std::size_t>(j)]);
    if (slack > kTimeEps) {
      m.at(i, j) += slack;
      row_sum[static_cast<std::size_t>(i)] += slack;
      col_sum[static_cast<std::size_t>(j)] += slack;
    }
  };

  // Pass 1: grow existing demand (preserves sparsity — fewer circuits).
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (m.at(i, j) > kTimeEps) stuff_cell(i, j);
  // Pass 2: fill zero entries. One full pass suffices: total remaining row
  // slack always equals total remaining column slack, so a cell with both
  // slacks positive exists until all are zero, and we visit every cell.
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) stuff_cell(i, j);

  for (int i = 0; i < n; ++i) {
    SUNFLOW_CHECK_MSG(std::fabs(m.RowSum(i) - target) < 1e-6,
                      "row " << i << " not stuffed to target");
    SUNFLOW_CHECK_MSG(std::fabs(m.ColSum(i) - target) < 1e-6,
                      "col " << i << " not stuffed to target");
  }
  return target;
}

std::vector<WeightedAssignment> BvnDecompose(DemandMatrix m, Time eps,
                                             Time reference_scale) {
  SUNFLOW_CHECK(m.rows() == m.cols());
  const Time scale =
      reference_scale > 0 ? reference_scale : std::max(m.MaxLineSum(), 1.0);
  // Entries below `dust` are floating-point residue from repeated slice
  // subtraction; relative to the matrix scale they are far under the
  // executors' coverage tolerance and are dropped rather than decomposed.
  const Time dust = std::max(eps, scale * 1e-10);
  std::vector<WeightedAssignment> out;
  // Each step extracts a maximum-cardinality matching on the entries above
  // dust and subtracts the minimum matched value, zeroing at least one
  // cell. On a perfect matrix the maximum matching is perfect, so this *is*
  // BvN; on the slightly unbalanced residue that upstream clamping leaves
  // behind, it still drains everything without needing Hall's condition.
  // The graph of entries above dust is built once; each step removes the
  // matched entries it drained below dust.
  const int cell_budget = m.rows() * m.cols() + 2 * m.rows() + 2;
  int steps = 0;
  BipartiteGraph graph = ThresholdGraph(m, dust);
  while (!m.IsZero(dust)) {
    SUNFLOW_CHECK_MSG(++steps <= cell_budget,
                      "BvN failed to converge (residual total = "
                          << m.Total() << ")");
    const auto matching = MaxCardinalityMatching(graph);
    WeightedAssignment slot;
    slot.col_of_row = matching.match_of_left;
    Time w = kTimeInf;
    bool any = false;
    for (int i = 0; i < m.rows(); ++i) {
      const int j = slot.col_of_row[static_cast<std::size_t>(i)];
      if (j < 0) continue;
      // Matched along an edge of the dust-threshold graph: entry >= dust.
      w = std::min(w, m.at(i, j));
      any = true;
    }
    SUNFLOW_CHECK_MSG(any, "BvN: positive residue but empty matching");
    SUNFLOW_CHECK(w >= dust && w < kTimeInf);
    for (int i = 0; i < m.rows(); ++i) {
      const int j = slot.col_of_row[static_cast<std::size_t>(i)];
      if (j < 0) continue;
      Time& cell = m.at(i, j);
      cell = std::max(0.0, cell - w);
      if (cell < dust) graph.RemoveEdge(i, j);
    }
    slot.duration = w;
    out.push_back(std::move(slot));
  }
  return out;
}

std::vector<WeightedAssignment> BigSliceDecompose(DemandMatrix m, Time eps) {
  SUNFLOW_CHECK(m.rows() == m.cols());
  std::vector<WeightedAssignment> out;
  const Time total_target = m.MaxLineSum();
  if (total_target <= eps) return out;

  // The halving ladder stops at a floor relative to T: slices thinner than
  // one millionth of the makespan are noise next to δ, and grinding the
  // ladder further multiplies Hopcroft–Karp calls for no scheduling value.
  // The exact mop-up below drains whatever remains.
  const Time floor = std::max(eps, total_target * 1e-6);
  constexpr int kMaxHalvings = 48;
  for (int k = 0; k <= kMaxHalvings && !m.IsZero(eps); ++k) {
    const Time r = total_target / std::pow(2.0, k);
    if (r <= floor) break;
    // One graph per ladder level: a slot changes only the n entries it
    // subtracted from, and SubtractMatching drops those that fell below r.
    BipartiteGraph graph = ThresholdGraph(m, r);
    while (!m.IsZero(eps)) {
      const auto matching = MaxCardinalityMatching(graph);
      if (matching.size() != m.rows()) break;  // no perfect matching >= r
      SubtractMatching(m, graph, matching.match_of_left, r);
      out.push_back({matching.match_of_left, r});
    }
  }
  // Exact BvN steps mop up the long tail (the residual is still perfect:
  // every subtracted slice reduced all line sums by exactly r). Dust
  // thresholds are judged against the original matrix's scale.
  std::vector<WeightedAssignment> tail;
  {
    SUNFLOW_PROFILE_SCOPE("sched.solstice.bvn");
    tail = BvnDecompose(std::move(m), eps, total_target);
  }
  out.insert(out.end(), std::make_move_iterator(tail.begin()),
             std::make_move_iterator(tail.end()));
  return out;
}

DemandMatrix SinkhornScale(const DemandMatrix& m, Time target_line_sum,
                           int iterations) {
  SUNFLOW_CHECK(m.rows() == m.cols());
  SUNFLOW_CHECK(target_line_sum > 0);
  const int n = m.rows();
  std::vector<std::vector<Time>> e(static_cast<std::size_t>(n),
                                   std::vector<Time>(static_cast<std::size_t>(n), 0));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = m.at(i, j);

  // Give empty rows/columns uniform mass so normalization is well defined.
  for (int i = 0; i < n; ++i) {
    Time s = 0;
    for (int j = 0; j < n; ++j) s += e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    if (s <= kTimeEps)
      for (int j = 0; j < n; ++j)
        e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            target_line_sum / n;
  }
  for (int j = 0; j < n; ++j) {
    Time s = 0;
    for (int i = 0; i < n; ++i) s += e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    if (s <= kTimeEps)
      for (int i = 0; i < n; ++i)
        e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            target_line_sum / n;
  }

  for (int it = 0; it < iterations; ++it) {
    for (int i = 0; i < n; ++i) {
      Time s = 0;
      for (int j = 0; j < n; ++j) s += e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (s > kTimeEps) {
        const Time f = target_line_sum / s;
        for (int j = 0; j < n; ++j) e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *= f;
      }
    }
    for (int j = 0; j < n; ++j) {
      Time s = 0;
      for (int i = 0; i < n; ++i) s += e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (s > kTimeEps) {
        const Time f = target_line_sum / s;
        for (int i = 0; i < n; ++i) e[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] *= f;
      }
    }
  }
  return DemandMatrix(std::move(e));
}

}  // namespace sunflow
