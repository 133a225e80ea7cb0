// Descriptive statistics used by the experiment harness: means, percentiles,
// empirical CDFs, Pearson and Spearman correlations.
//
// The paper reports averages, 95th percentiles, CDFs (Figs 4, 5), a linear
// correlation coefficient (Fig 5 discussion: 0.84) and a rank correlation
// (Fig 7 discussion: −0.96); all of those live here.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace sunflow::stats {

double Mean(std::span<const double> xs);
double Min(std::span<const double> xs);
double Max(std::span<const double> xs);

/// Percentile in [0, 100] with linear interpolation between order
/// statistics (the "linear"/type-7 definition used by numpy).
double Percentile(std::span<const double> xs, double pct);

/// Median shorthand.
inline double Median(std::span<const double> xs) { return Percentile(xs, 50); }

/// Pearson (linear) correlation coefficient. Returns 0 for degenerate input.
double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

/// Spearman rank correlation (Pearson over mid-ranks, handles ties).
double SpearmanCorrelation(std::span<const double> xs,
                           std::span<const double> ys);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0;     ///< sample value
  double fraction = 0;  ///< P[X <= value]
};

/// Full empirical CDF (one point per distinct sample value).
std::vector<CdfPoint> EmpiricalCdf(std::span<const double> xs);

/// Fraction of samples strictly below / at-or-below a threshold.
double FractionAtMost(std::span<const double> xs, double threshold);

/// Aggregate summary used in most report tables.
struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double min = 0;
  double max = 0;
};

Summary Summarize(std::span<const double> xs);

/// Renders a summary as "mean=… p95=… max=…" for log lines.
std::string ToString(const Summary& s);

}  // namespace sunflow::stats
