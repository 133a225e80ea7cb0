#include "sched/solstice.h"

#include "common/assert.h"
#include "obs/profiler.h"

namespace sunflow {

AssignmentSchedule ScheduleSolstice(const DemandMatrix& demand) {
  SUNFLOW_PROFILE_SCOPE("sched.solstice");
  SUNFLOW_CHECK_MSG(demand.rows() == demand.cols(),
                    "Solstice needs a square matrix; call MakeSquare()");
  AssignmentSchedule schedule;
  schedule.algorithm = "Solstice";
  if (demand.IsZero()) return schedule;

  // §5.3.1 of the Sunflow paper: demand that occupies a single row or
  // column (one-to-one, one-to-many, many-to-one coflows) "happens to be
  // handled by Solstice in a one flow per assignment manner", which is
  // optimal. Stuffing such a matrix would be almost entirely dummy demand,
  // so serve it directly: one exact-length assignment per flow.
  int nonzero_rows = 0, nonzero_cols = 0;
  for (int r = 0; r < demand.rows(); ++r)
    if (demand.RowSum(r) > kTimeEps) ++nonzero_rows;
  for (int c = 0; c < demand.cols(); ++c)
    if (demand.ColSum(c) > kTimeEps) ++nonzero_cols;
  if (nonzero_rows <= 1 || nonzero_cols <= 1) {
    for (int r = 0; r < demand.rows(); ++r) {
      for (int c = 0; c < demand.cols(); ++c) {
        if (demand.at(r, c) <= kTimeEps) continue;
        WeightedAssignment slot;
        slot.col_of_row.assign(static_cast<std::size_t>(demand.rows()), -1);
        slot.col_of_row[static_cast<std::size_t>(r)] = c;
        slot.duration = demand.at(r, c);
        schedule.slots.push_back(std::move(slot));
      }
    }
    return schedule;
  }

  DemandMatrix stuffed = demand;
  {
    SUNFLOW_PROFILE_SCOPE("sched.solstice.stuff");
    QuickStuff(stuffed);
  }
  {
    SUNFLOW_PROFILE_SCOPE("sched.solstice.slice");
    // Slices keep halving down to numeric zero.
    schedule.slots = BigSliceDecompose(std::move(stuffed), kTimeEps);
  }
  return schedule;
}

}  // namespace sunflow
