// TMS — Traffic Matrix Scheduling (Porter et al., "Integrating Microsecond
// Circuit Switching into the Data Center", SIGCOMM 2013), baseline of
// §3.1.1.
//
// TMS pre-processes the demand matrix towards a doubly-stochastic matrix
// (Sinkhorn row/column normalization, here followed by QuickStuff so the
// matrix is exactly perfect) and BvN-decomposes it into permutations whose
// durations are proportional to their BvN weights. Because pre-processing
// "may heavily modify the original demand matrix" (§3.1.1), one round
// typically under-serves some flows; ScheduleTms iterates rounds on the
// remaining real demand until everything is covered.
#pragma once

#include "sched/schedule.h"
#include "trace/demand_matrix.h"

namespace sunflow {

AssignmentSchedule ScheduleTms(const DemandMatrix& demand);

}  // namespace sunflow
