// Solstice (Liu et al., "Scheduling Techniques for Hybrid Circuit/Packet
// Networks", CoNEXT 2015) — the strongest preemptive baseline in §5.2.
//
// Pipeline: (1) QuickStuff pads the demand matrix into a perfect matrix
// (equal row/column sums), preferring existing non-zero entries; the padding
// is *dummy demand* that occupies circuits without moving coflow bytes.
// (2) BigSlice repeatedly extracts the longest slice r = T/2^k that admits a
// perfect matching among entries ≥ r. The result is an assignment sequence
// executed under either circuit model.
#pragma once

#include "sched/schedule.h"
#include "trace/demand_matrix.h"

namespace sunflow {

/// Schedules one coflow demand matrix. `demand` must be square (call
/// MakeSquare()); entries are processing times.
AssignmentSchedule ScheduleSolstice(const DemandMatrix& demand);

}  // namespace sunflow
