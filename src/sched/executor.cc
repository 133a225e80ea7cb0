#include "sched/executor.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace sunflow {

namespace {

// Decompositions drop floating-point dust relative to the matrix scale
// (see BvnDecompose); a schedule may under-serve each flow by up to this
// much and still count as covering it.
Time CoverageTolerance(const DemandMatrix& demand) {
  return std::max(1e-6, demand.MaxLineSum() * 2e-6);
}

// Shared bookkeeping: remaining real demand and flow completions.
struct DemandTracker {
  explicit DemandTracker(const DemandMatrix& demand)
      : demand_(demand),
        tolerance_(CoverageTolerance(demand)),
        remaining_(demand),
        completed_(static_cast<std::size_t>(demand.rows()),
                   std::vector<char>(static_cast<std::size_t>(demand.cols()),
                                     0)) {}

  // Transmits up to `window` seconds of (r, c) starting at `begin`;
  // records completion if the flow drains (within tolerance).
  void Transmit(int r, int c, Time begin, Time window,
                std::vector<FlowCompletion>& completions) {
    Time& rem = remaining_.at(r, c);
    if (completed_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)])
      return;
    if (rem <= kTimeEps || window <= kTimeEps) return;
    if (rem <= window + tolerance_) {
      completions.push_back({demand_.InPort(r), demand_.OutPort(c),
                             begin + std::min(rem, window)});
      rem = 0;
      completed_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = 1;
    } else {
      rem -= window;
    }
  }

  // Validates coverage and sweeps up flows whose residue is pure dust,
  // completing them at the schedule end so every non-zero flow reports
  // exactly one completion.
  void FinishStragglers(const char* algorithm, Time schedule_end,
                        std::vector<FlowCompletion>& completions) {
    for (int r = 0; r < remaining_.rows(); ++r) {
      for (int c = 0; c < remaining_.cols(); ++c) {
        if (demand_.at(r, c) <= kTimeEps) continue;
        if (completed_[static_cast<std::size_t>(r)]
                      [static_cast<std::size_t>(c)])
          continue;
        SUNFLOW_CHECK_MSG(
            remaining_.at(r, c) <= tolerance_,
            algorithm << " schedule left " << remaining_.at(r, c)
                      << "s of demand unserved at (" << r << "," << c << ")");
        completions.push_back(
            {demand_.InPort(r), demand_.OutPort(c), schedule_end});
        completed_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            1;
      }
    }
  }

  const DemandMatrix& demand_;
  Time tolerance_;
  DemandMatrix remaining_;
  std::vector<std::vector<char>> completed_;
};

ExecutionResult Finalize(DemandTracker& tracker,
                         const AssignmentSchedule& schedule, Time start,
                         Time schedule_end,
                         std::vector<FlowCompletion> completions,
                         int setups) {
  tracker.FinishStragglers(schedule.algorithm.c_str(), schedule_end,
                           completions);
  ExecutionResult result;
  result.completions = std::move(completions);
  result.circuit_setups = setups;
  result.num_slots = schedule.num_slots();
  result.schedule_end = schedule_end;
  Time last = start;
  for (const auto& fc : result.completions) last = std::max(last, fc.finish);
  result.cct = last - start;
  // The same counts feed the metrics registry — benches read either source.
  auto& metrics = obs::GlobalMetrics();
  metrics.GetCounter("executor.circuit_setups")
      .Increment(static_cast<std::uint64_t>(setups));
  metrics.GetCounter("executor.slots").Increment(result.num_slots);
  return result;
}

}  // namespace

ExecutionResult ExecuteNotAllStop(const DemandMatrix& demand,
                                  const AssignmentSchedule& schedule,
                                  Time delta, Time start,
                                  obs::TraceSink* sink, CoflowId coflow) {
  SUNFLOW_CHECK(demand.rows() == demand.cols());
  SUNFLOW_CHECK(delta >= 0);
  const int n = demand.rows();

  DemandTracker tracker(demand);
  std::vector<FlowCompletion> completions;
  std::vector<Time> free_in(static_cast<std::size_t>(n), start);
  std::vector<Time> free_out(static_cast<std::size_t>(n), start);
  // Last peer each port was circuited to; a circuit persists across slots
  // (even through idle gaps) while both ports still point at each other.
  std::vector<int> last_peer_in(static_cast<std::size_t>(n), -1);
  std::vector<int> last_peer_out(static_cast<std::size_t>(n), -1);

  int setups = 0;
  Time schedule_end = start;

  for (const auto& slot : schedule.slots) {
    SUNFLOW_CHECK(static_cast<int>(slot.col_of_row.size()) == n);
    SUNFLOW_CHECK(slot.duration > 0);
    // Guard the matching property within the slot.
    std::vector<char> col_used(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      const int c = slot.col_of_row[static_cast<std::size_t>(r)];
      if (c < 0) continue;
      SUNFLOW_CHECK_MSG(!col_used[static_cast<std::size_t>(c)],
                        "assignment is not a matching");
      col_used[static_cast<std::size_t>(c)] = 1;

      const Time t0 = std::max(free_in[static_cast<std::size_t>(r)],
                               free_out[static_cast<std::size_t>(c)]);
      const bool carried = last_peer_in[static_cast<std::size_t>(r)] == c &&
                           last_peer_out[static_cast<std::size_t>(c)] == r;
      const Time setup = carried ? 0 : delta;
      if (!carried) {
        ++setups;
        obs::Emit(sink, {.type = obs::EventType::kCircuitSetup,
                         .t = t0,
                         .dur = setup + slot.duration,
                         .coflow = coflow,
                         .in = demand.InPort(r),
                         .out = demand.OutPort(c),
                         .value = setup});
      }

      const Time transmit_begin = t0 + setup;
      tracker.Transmit(r, c, transmit_begin, slot.duration, completions);

      const Time end = transmit_begin + slot.duration;
      free_in[static_cast<std::size_t>(r)] = end;
      free_out[static_cast<std::size_t>(c)] = end;
      last_peer_in[static_cast<std::size_t>(r)] = c;
      last_peer_out[static_cast<std::size_t>(c)] = r;
      schedule_end = std::max(schedule_end, end);
    }
  }
  return Finalize(tracker, schedule, start, schedule_end,
                  std::move(completions), setups);
}

ExecutionResult ExecuteAllStop(const DemandMatrix& demand,
                               const AssignmentSchedule& schedule, Time delta,
                               Time start,
                               obs::TraceSink* sink, CoflowId coflow) {
  SUNFLOW_CHECK(demand.rows() == demand.cols());
  SUNFLOW_CHECK(delta >= 0);
  const int n = demand.rows();

  DemandTracker tracker(demand);
  std::vector<FlowCompletion> completions;
  std::vector<int> prev(static_cast<std::size_t>(n), -1);

  int setups = 0;
  Time t = start;

  for (const auto& slot : schedule.slots) {
    SUNFLOW_CHECK(static_cast<int>(slot.col_of_row.size()) == n);
    // Under all-stop, any change in the assignment stops *all* circuits
    // for δ; identical consecutive assignments continue for free.
    bool changed = false;
    for (int r = 0; r < n; ++r) {
      const int c = slot.col_of_row[static_cast<std::size_t>(r)];
      if (c != prev[static_cast<std::size_t>(r)]) {
        changed = true;
        if (c >= 0) {
          ++setups;
          obs::Emit(sink, {.type = obs::EventType::kCircuitSetup,
                           .t = t,
                           .dur = delta + slot.duration,
                           .coflow = coflow,
                           .in = demand.InPort(r),
                           .out = demand.OutPort(c),
                           .value = delta});
        }
      }
    }
    if (changed) t += delta;

    std::vector<char> col_used(static_cast<std::size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      const int c = slot.col_of_row[static_cast<std::size_t>(r)];
      if (c < 0) continue;
      SUNFLOW_CHECK_MSG(!col_used[static_cast<std::size_t>(c)],
                        "assignment is not a matching");
      col_used[static_cast<std::size_t>(c)] = 1;
      tracker.Transmit(r, c, t, slot.duration, completions);
    }
    t += slot.duration;
    prev = slot.col_of_row;
  }
  return Finalize(tracker, schedule, start, t, std::move(completions), setups);
}

}  // namespace sunflow
