#include "sched/tms.h"

#include <algorithm>

#include "common/assert.h"
#include "obs/profiler.h"

namespace sunflow {

namespace {

constexpr int kSinkhornIterations = 10;
/// Sinkhorn rounds before the exact cleanup round.
constexpr int kMaxRounds = 32;

// Subtracts the time served by `slots` from the remaining real demand.
void SubtractServed(DemandMatrix& remaining,
                    const std::vector<WeightedAssignment>& slots) {
  for (const auto& slot : slots) {
    for (int r = 0; r < remaining.rows(); ++r) {
      const int c = slot.col_of_row[static_cast<std::size_t>(r)];
      if (c < 0) continue;
      Time& cell = remaining.at(r, c);
      cell = std::max(0.0, cell - slot.duration);
    }
  }
}

}  // namespace

AssignmentSchedule ScheduleTms(const DemandMatrix& demand) {
  SUNFLOW_PROFILE_SCOPE("sched.tms");
  SUNFLOW_CHECK_MSG(demand.rows() == demand.cols(),
                    "TMS needs a square matrix; call MakeSquare()");
  AssignmentSchedule schedule;
  schedule.algorithm = "TMS";
  if (demand.IsZero()) return schedule;

  DemandMatrix remaining = demand;
  for (int round = 0; round < kMaxRounds && !remaining.IsZero(); ++round) {
    const Time target = remaining.MaxLineSum();
    // Sinkhorn towards doubly stochastic (scaled to the line-sum target),
    // then QuickStuff to make the matrix exactly perfect for BvN.
    DemandMatrix scaled = [&] {
      SUNFLOW_PROFILE_SCOPE("sched.tms.sinkhorn");
      return SinkhornScale(remaining, target, kSinkhornIterations);
    }();
    QuickStuff(scaled);
    auto slots = [&] {
      SUNFLOW_PROFILE_SCOPE("sched.tms.bvn");
      return BvnDecompose(std::move(scaled));
    }();
    SubtractServed(remaining, slots);
    schedule.slots.insert(schedule.slots.end(),
                          std::make_move_iterator(slots.begin()),
                          std::make_move_iterator(slots.end()));
  }
  if (!remaining.IsZero()) {
    // Exact cleanup: stuff and BvN the true residual so coverage is total.
    DemandMatrix residual = remaining;
    QuickStuff(residual);
    auto slots = [&] {
      SUNFLOW_PROFILE_SCOPE("sched.tms.bvn");
      return BvnDecompose(std::move(residual));
    }();
    schedule.slots.insert(schedule.slots.end(),
                          std::make_move_iterator(slots.begin()),
                          std::make_move_iterator(slots.end()));
  }
  return schedule;
}

}  // namespace sunflow
