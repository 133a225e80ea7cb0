#include "common/intervals.h"

#include <algorithm>

#include "common/assert.h"

namespace sunflow {

void IntervalSet::Add(Time begin, Time end) {
  if (end <= begin) return;
  intervals_.push_back({begin, end});
}

std::vector<Interval> IntervalSet::Merged() const {
  std::vector<Interval> sorted = intervals_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::vector<Interval> merged;
  for (const auto& iv : sorted) {
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

Time IntervalSet::UnionLength() const {
  Time total = 0;
  for (const auto& iv : Merged()) total += iv.length();
  return total;
}

Time IntervalSet::UnionLengthWithin(Time lo, Time hi) const {
  SUNFLOW_CHECK(lo <= hi);
  Time total = 0;
  for (const auto& iv : Merged()) {
    const Time b = std::max(iv.begin, lo);
    const Time e = std::min(iv.end, hi);
    if (e > b) total += e - b;
  }
  return total;
}

}  // namespace sunflow
