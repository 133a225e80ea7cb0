// Assignment-sequence schedules (§3.1.1).
//
// Every pre-Sunflow circuit scheduler — Edmonds, TMS, Solstice — produces a
// sequence of circuit assignments {A_1, …, A_m}, each a (partial) matching
// between input and output ports with an associated duration. Indices are in
// the demand-matrix space of the coflow being scheduled; the port maps in
// the originating DemandMatrix translate back to fabric ports.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "matching/decomposition.h"

namespace sunflow {

/// A full schedule: ordered assignments with durations.
struct AssignmentSchedule {
  std::string algorithm;                  ///< producer name for reports
  std::vector<WeightedAssignment> slots;  ///< col_of_row may contain -1

  std::size_t num_slots() const { return slots.size(); }
};

}  // namespace sunflow
