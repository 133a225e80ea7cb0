#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/assert.h"

namespace sunflow::stats {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double Min(std::span<const double> xs) {
  SUNFLOW_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double Max(std::span<const double> xs) {
  SUNFLOW_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double Percentile(std::span<const double> xs, double pct) {
  SUNFLOW_CHECK(!xs.empty());
  SUNFLOW_CHECK(pct >= 0 && pct <= 100);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys) {
  SUNFLOW_CHECK(xs.size() == ys.size());
  if (xs.size() < 2) return 0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {
// Mid-ranks (average rank for ties), 1-based.
std::vector<double> MidRanks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[idx[j + 1]] == xs[idx[i]]) ++j;
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[idx[k]] = avg;
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double SpearmanCorrelation(std::span<const double> xs,
                           std::span<const double> ys) {
  SUNFLOW_CHECK(xs.size() == ys.size());
  if (xs.size() < 2) return 0;
  const auto rx = MidRanks(xs);
  const auto ry = MidRanks(ys);
  return PearsonCorrelation(rx, ry);
}

std::vector<CdfPoint> EmpiricalCdf(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Collapse runs of equal values into the last (highest-fraction) point.
    if (!cdf.empty() && cdf.back().value == sorted[i]) {
      cdf.back().fraction = static_cast<double>(i + 1) / n;
    } else {
      cdf.push_back({sorted[i], static_cast<double>(i + 1) / n});
    }
  }
  return cdf;
}

double FractionAtMost(std::span<const double> xs, double threshold) {
  if (xs.empty()) return 0;
  std::size_t count = 0;
  for (double x : xs)
    if (x <= threshold) ++count;
  return static_cast<double>(count) / static_cast<double>(xs.size());
}

Summary Summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = Mean(xs);
  s.p50 = Percentile(xs, 50);
  s.p95 = Percentile(xs, 95);
  s.min = Min(xs);
  s.max = Max(xs);
  return s;
}

std::string ToString(const Summary& s) {
  std::ostringstream os;
  os << "n=" << s.count << " mean=" << s.mean << " p50=" << s.p50
     << " p95=" << s.p95 << " min=" << s.min << " max=" << s.max;
  return os.str();
}

}  // namespace sunflow::stats
