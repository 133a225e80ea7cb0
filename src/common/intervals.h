// Interval-union accounting over the time axis.
//
// Used by the network-idleness metric (§5.4): idleness is the fraction of
// the horizon not covered by the union of [arrival, arrival + TpL)
// intervals, and by schedule validators that need per-port busy coverage.
#pragma once

#include <vector>

#include "common/units.h"

namespace sunflow {

struct Interval {
  Time begin = 0;
  Time end = 0;

  Time length() const { return end - begin; }
  bool empty() const { return end <= begin + kTimeEps; }
};

/// A set of half-open time intervals with union/length queries.
class IntervalSet {
 public:
  /// Adds [begin, end); ignored if empty.
  void Add(Time begin, Time end);
  void Add(const Interval& iv) { Add(iv.begin, iv.end); }

  /// Total measure of the union of all added intervals.
  Time UnionLength() const;

  /// Union restricted to [lo, hi).
  Time UnionLengthWithin(Time lo, Time hi) const;

  /// The merged, sorted, disjoint intervals.
  std::vector<Interval> Merged() const;

  bool empty() const { return intervals_.empty(); }
  std::size_t raw_count() const { return intervals_.size(); }

 private:
  std::vector<Interval> intervals_;
};

}  // namespace sunflow
