// Interval-union accounting over the time axis.
//
// Used by the network-idleness metric (§5.4): idleness is the fraction of
// the horizon not covered by the union of [arrival, arrival + TpL)
// intervals.
#pragma once

#include <vector>

#include "common/units.h"

namespace sunflow {

struct Interval {
  Time begin = 0;
  Time end = 0;
};

/// A set of half-open time intervals with union/length queries.
class IntervalSet {
 public:
  /// Adds [begin, end); ignored if empty.
  void Add(Time begin, Time end);

  /// Union restricted to [lo, hi).
  Time UnionLengthWithin(Time lo, Time hi) const;

  /// The merged, sorted, disjoint intervals.
  std::vector<Interval> Merged() const;

  bool empty() const { return intervals_.empty(); }

 private:
  std::vector<Interval> intervals_;
};

}  // namespace sunflow
