#include "sched/edmonds.h"

#include <algorithm>

#include "common/assert.h"
#include "matching/bipartite.h"
#include "obs/profiler.h"

namespace sunflow {

constexpr int kMaxRounds = 100000;  ///< safety valve; never hit in practice

AssignmentSchedule ScheduleEdmonds(const DemandMatrix& demand,
                                   const EdmondsConfig& config) {
  SUNFLOW_PROFILE_SCOPE("sched.edmonds");
  SUNFLOW_CHECK_MSG(demand.rows() == demand.cols(),
                    "Edmonds needs a square matrix; call MakeSquare()");
  SUNFLOW_CHECK(config.slot_duration > 0);
  AssignmentSchedule schedule;
  schedule.algorithm = "Edmonds";

  const int n = demand.rows();
  DemandMatrix remaining = demand;
  for (int round = 0; round < kMaxRounds && !remaining.IsZero(); ++round) {
    // Weight = full remaining demand, as in the classic c-Through/Helios
    // formulation: the matching chases heavy pairs, so light flows languish
    // for many rounds — one of the inefficiencies §3.1.1 attributes to this
    // approach. (Clamping weights to the slot length would turn this into a
    // per-slot-throughput optimizer the historical systems did not have.)
    std::vector<std::vector<double>> weight(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(n), 0));
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        weight[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            remaining.at(r, c);

    std::vector<int> assignment = [&] {
      SUNFLOW_PROFILE_SCOPE("sched.edmonds.matching");
      return MaxWeightAssignment(weight);
    }();
    // Circuits matched to zero-demand pairs carry nothing: drop them so the
    // executor does not pay setup for them.
    WeightedAssignment slot;
    slot.col_of_row.assign(static_cast<std::size_t>(n), -1);
    slot.duration = config.slot_duration;
    bool any = false;
    for (int r = 0; r < n; ++r) {
      const int c = assignment[static_cast<std::size_t>(r)];
      if (c >= 0 && remaining.at(r, c) > kTimeEps) {
        slot.col_of_row[static_cast<std::size_t>(r)] = c;
        Time& cell = remaining.at(r, c);
        cell = std::max(0.0, cell - config.slot_duration);
        any = true;
      }
    }
    SUNFLOW_CHECK_MSG(any,
                      "Edmonds made no progress on a non-zero matrix — "
                      "max-weight matching failed");
    schedule.slots.push_back(std::move(slot));
  }
  SUNFLOW_CHECK_MSG(remaining.IsZero(),
                    "Edmonds hit kMaxRounds with demand left");
  return schedule;
}

}  // namespace sunflow
