#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/edmonds.h"
#include "sched/executor.h"
#include "sched/solstice.h"
#include "sched/tms.h"
#include "trace/bounds.h"
#include "trace/demand_matrix.h"

namespace sunflow {
namespace {

constexpr Time kDelta = 0.01;

// A random n×n demand; `flows` (when given) receives its number of
// non-zero entries.
DemandMatrix RandomSquareDemand(Rng& rng, int n, std::size_t* flows = nullptr,
                                double density = 0.6) {
  std::vector<std::vector<Time>> e(
      static_cast<std::size_t>(n),
      std::vector<Time>(static_cast<std::size_t>(n), 0));
  std::size_t set = 0;
  for (auto& row : e) {
    for (auto& v : row) {
      if (rng.Bernoulli(density)) {
        v = rng.Uniform(0.05, 2.0);
        ++set;
      }
    }
  }
  if (set == 0) {
    e[0][0] = 1.0;
    set = 1;
  }
  if (flows != nullptr) *flows = set;
  return DemandMatrix(e);
}

void ExpectCovers(const DemandMatrix& demand, std::size_t flows,
                  const AssignmentSchedule& s) {
  // The not-all-stop executor throws if any demand is left unserved.
  const auto exec = ExecuteNotAllStop(demand, s, kDelta);
  EXPECT_GT(exec.cct, 0.0);
  EXPECT_EQ(exec.completions.size(), flows);
}

TEST(Solstice, CoversRandomDemand) {
  Rng rng(71);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 6));
    std::size_t flows = 0;
    const DemandMatrix demand = RandomSquareDemand(rng, n, &flows);
    ExpectCovers(demand, flows, ScheduleSolstice(demand));
  }
}

TEST(Solstice, SingleEntryMatrixIsOneSlot) {
  DemandMatrix demand(std::vector<std::vector<Time>>{{2.5}});
  const auto schedule = ScheduleSolstice(demand);
  ASSERT_EQ(schedule.num_slots(), 1u);
  EXPECT_NEAR(schedule.slots[0].duration, 2.5, 1e-9);
  const auto exec = ExecuteNotAllStop(demand, schedule, kDelta);
  EXPECT_NEAR(exec.cct, kDelta + 2.5, 1e-9);
  EXPECT_EQ(exec.circuit_setups, 1);
}

TEST(Solstice, ZeroMatrixGivesEmptySchedule) {
  DemandMatrix demand({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_EQ(ScheduleSolstice(demand).num_slots(), 0u);
}

TEST(Solstice, DiagonalMatrixOneSlotPerValueClass) {
  // Uniform diagonal decomposes into a single full slice.
  DemandMatrix demand({{1.0, 0.0}, {0.0, 1.0}});
  const auto schedule = ScheduleSolstice(demand);
  EXPECT_EQ(schedule.num_slots(), 1u);
}

TEST(Solstice, SwitchingGrowsWithSkew) {
  // Skewed demand forces stuffing and more slots than Sunflow's |C|.
  DemandMatrix demand({{5.0, 0.3, 0.0}, {0.0, 4.0, 0.7}, {1.1, 0.0, 2.0}});
  const auto schedule = ScheduleSolstice(demand);
  const auto exec = ExecuteNotAllStop(demand, schedule, kDelta);
  EXPECT_GT(exec.circuit_setups, 7);  // the matrix's seven flows
}

TEST(Tms, CoversRandomDemand) {
  Rng rng(72);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
    std::size_t flows = 0;
    const DemandMatrix demand = RandomSquareDemand(rng, n, &flows);
    ExpectCovers(demand, flows, ScheduleTms(demand));
  }
}

TEST(Edmonds, CoversRandomDemand) {
  Rng rng(73);
  EdmondsConfig cfg;
  cfg.slot_duration = 0.5;
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
    std::size_t flows = 0;
    const DemandMatrix demand = RandomSquareDemand(rng, n, &flows);
    ExpectCovers(demand, flows, ScheduleEdmonds(demand, cfg));
  }
}

TEST(Edmonds, SlotCountReflectsFixedDuration) {
  // 3.0s of demand on one pair with 0.5s slots -> 6 slots.
  DemandMatrix demand({{3.0, 0.0}, {0.0, 0.0}});
  EdmondsConfig cfg;
  cfg.slot_duration = 0.5;
  const auto schedule = ScheduleEdmonds(demand, cfg);
  EXPECT_EQ(schedule.num_slots(), 6u);
}

TEST(Executor, NotAllStopCarriesUnchangedCircuits) {
  // Two consecutive slots with the same circuit: one setup only.
  AssignmentSchedule schedule;
  schedule.algorithm = "test";
  schedule.slots.push_back({{0, -1}, 1.0});
  schedule.slots.push_back({{0, -1}, 1.0});
  DemandMatrix demand({{2.0, 0.0}, {0.0, 0.0}});
  const auto exec = ExecuteNotAllStop(demand, schedule, kDelta);
  EXPECT_EQ(exec.circuit_setups, 1);
  EXPECT_NEAR(exec.cct, kDelta + 2.0, 1e-9);
}

TEST(Executor, NotAllStopChargesDeltaOnChange) {
  // Slot 1: (0->0); slot 2: (0->1). The circuit changes: two setups.
  AssignmentSchedule schedule;
  schedule.algorithm = "test";
  schedule.slots.push_back({{0, -1}, 1.0});
  schedule.slots.push_back({{1, -1}, 1.0});
  DemandMatrix demand({{1.0, 1.0}, {0.0, 0.0}});
  const auto exec = ExecuteNotAllStop(demand, schedule, kDelta);
  EXPECT_EQ(exec.circuit_setups, 2);
  EXPECT_NEAR(exec.cct, 2 * kDelta + 2.0, 1e-9);
}

TEST(Executor, NotAllStopPortsProgressIndependently) {
  // Two disjoint circuits in one slot run in parallel.
  AssignmentSchedule schedule;
  schedule.algorithm = "test";
  schedule.slots.push_back({{0, 1}, 2.0});
  DemandMatrix demand({{2.0, 0.0}, {0.0, 2.0}});
  const auto exec = ExecuteNotAllStop(demand, schedule, kDelta);
  EXPECT_NEAR(exec.cct, kDelta + 2.0, 1e-9);
  EXPECT_EQ(exec.circuit_setups, 2);
}

TEST(Executor, AllStopGlobalDelta) {
  // Same two-slot schedule under all-stop: both slots pay a global delta
  // even for the circuit that did not change.
  AssignmentSchedule schedule;
  schedule.algorithm = "test";
  schedule.slots.push_back({{0, 1}, 1.0});  // (0->0), (1->1)
  schedule.slots.push_back({{1, 0}, 1.0});  // (0->1), (1->0)
  DemandMatrix demand({{1.0, 1.0}, {1.0, 1.0}});
  const auto exec = ExecuteAllStop(demand, schedule, kDelta);
  EXPECT_NEAR(exec.cct, 2 * kDelta + 2.0, 1e-9);
  EXPECT_EQ(exec.circuit_setups, 4);
}

TEST(Executor, AllStopSlowerOrEqualToNotAllStop) {
  Rng rng(74);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
    const DemandMatrix demand = RandomSquareDemand(rng, n);
    const auto schedule = ScheduleSolstice(demand);
    const auto fast = ExecuteNotAllStop(demand, schedule, kDelta);
    const auto slow = ExecuteAllStop(demand, schedule, kDelta);
    EXPECT_GE(slow.cct + 1e-9, fast.cct);
  }
}

TEST(Executor, ThrowsOnUncoveredDemand) {
  AssignmentSchedule schedule;
  schedule.algorithm = "broken";
  schedule.slots.push_back({{0, -1}, 0.5});  // only half the demand
  DemandMatrix demand({{1.0, 0.0}, {0.0, 0.0}});
  EXPECT_THROW(ExecuteNotAllStop(demand, schedule, kDelta), CheckFailure);
}

TEST(Executor, ThrowsOnNonMatchingAssignment) {
  AssignmentSchedule schedule;
  schedule.algorithm = "broken";
  schedule.slots.push_back({{0, 0}, 2.0});  // both rows to column 0
  DemandMatrix demand({{1.0, 0.0}, {1.0, 0.0}});
  EXPECT_THROW(ExecuteNotAllStop(demand, schedule, kDelta), CheckFailure);
}

TEST(Comparison, SolsticeBeatsTmsAndEdmondsOnAverage) {
  // §5.2: Solstice services a coflow >2x faster than TMS and >6x faster
  // than Edmonds on realistic skewed demand. Verify the ordering (not the
  // exact factors) on random matrices.
  Rng rng(75);
  double solstice_total = 0, tms_total = 0, edmonds_total = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 10 + static_cast<int>(rng.UniformInt(0, 8));
    // Trace-like entries: MB-scale subflows at 1 Gbps (8-120 ms), far
    // smaller than Edmonds' fixed 300 ms slot and skewed enough to make
    // TMS' Sinkhorn pre-processing distort the demand.
    std::vector<std::vector<Time>> e(
        static_cast<std::size_t>(n),
        std::vector<Time>(static_cast<std::size_t>(n), 0));
    for (auto& row : e)
      for (auto& v : row)
        if (rng.Bernoulli(0.6)) v = rng.Uniform(0.008, 0.12);
    e[0][0] = std::max(e[0][0], 0.05);
    const DemandMatrix demand(e);
    solstice_total +=
        ExecuteNotAllStop(demand, ScheduleSolstice(demand), kDelta).cct;
    tms_total += ExecuteNotAllStop(demand, ScheduleTms(demand), kDelta).cct;
    edmonds_total +=
        ExecuteNotAllStop(demand, ScheduleEdmonds(demand), kDelta).cct;
  }
  // The TMS/Edmonds ordering depends on how Edmonds' externally fixed slot
  // length matches the demand sizes, so only Solstice's superiority is a
  // robust claim at this scale.
  EXPECT_LT(solstice_total, tms_total);
  EXPECT_LT(solstice_total, edmonds_total);
}

}  // namespace
}  // namespace sunflow
