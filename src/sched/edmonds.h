// Edmonds — maximum-weight-matching circuit scheduling (used by c-Through,
// Helios and others; §3.1.1 baseline).
//
// Each round computes a maximum-weight matching of the remaining demand
// matrix (weight = time servable within one slot) and installs it for a
// fixed, externally-chosen slot duration — "typically fixed and on the
// order of hundreds of milliseconds". Assignments rarely cover all of a
// coflow's demand, so coflows pay many slots and much idle circuit time.
#pragma once

#include "sched/schedule.h"
#include "trace/demand_matrix.h"

namespace sunflow {

struct EdmondsConfig {
  Time slot_duration = Millis(300);  ///< externally fixed assignment length
};

AssignmentSchedule ScheduleEdmonds(const DemandMatrix& demand,
                                   const EdmondsConfig& config = {});

}  // namespace sunflow
