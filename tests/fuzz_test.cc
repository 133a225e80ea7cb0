// Randomized end-to-end invariant sweep: across δ regimes, orderings,
// quantization, carry-over and policies, every pipeline stage must uphold
// its contracts (bounds, conservation, executability) on random workloads.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/policy.h"
#include "net/driver.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  double delta;
  ReservationOrder order;
  double quantum;
  bool carry_over;
  bool fifo;
};

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  const FuzzCase& p = info.param;
  std::string name = "s";
  name += std::to_string(p.seed);
  name += "_d";
  name += std::to_string(static_cast<int>(p.delta * 1e6));
  name += "us_";
  name += ToString(p.order);
  if (p.quantum > 0) name += "_q";
  if (p.carry_over) name += "_carry";
  if (p.fifo) name += "_fifo";
  return name;
}

class EndToEndFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EndToEndFuzz, AllInvariantsHold) {
  const FuzzCase& param = GetParam();
  Rng rng(param.seed);

  // Random small trace.
  SyntheticTraceConfig tc;
  tc.num_coflows = 12 + static_cast<int>(rng.UniformInt(0, 12));
  tc.num_ports = 8 + static_cast<PortId>(rng.UniformInt(0, 8));
  tc.horizon = 40.0;
  tc.seed = param.seed * 977 + 3;
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(tc), 0.05, MB(1), param.seed);

  SunflowConfig sc;
  sc.delta = param.delta;
  sc.order = param.order;
  sc.shuffle_seed = param.seed;
  sc.demand_quantum = param.quantum;

  // --- Intra: every coflow within Lemma 1 (against quantized bounds) and
  // executable on the stateful switch. ---
  for (const Coflow& c : trace.coflows) {
    const auto schedule =
        ScheduleSingleCoflow(c.WithArrival(0), trace.num_ports, sc);
    const Time tcl = CircuitLowerBound(c, sc.bandwidth, sc.delta);
    const Time slack = param.quantum * static_cast<double>(c.size());
    ASSERT_LE(schedule.completion_time.at(c.id()),
              2 * (tcl + slack) + 1e-9)
        << c.DebugString();
    const auto driven =
        net::ExecuteOnSwitch(schedule, trace.num_ports, sc);
    driven.VerifyAgainst(schedule, sc.bandwidth);
  }

  // --- Inter replay: completes everything, never beats the packet bound.
  engine::EngineConfig rc;
  rc.sunflow = sc;
  rc.carry_over_circuits = param.carry_over;
  const auto policy =
      param.fifo ? MakeFifoPolicy() : MakeShortestFirstPolicy();
  const auto replay =
      engine::ScenarioRegistry::Global().Run("circuit", trace, policy.get(), rc);
  ASSERT_EQ(replay.cct.size(), trace.coflows.size());
  for (const Coflow& c : trace.coflows) {
    ASSERT_GE(replay.cct.at(c.id()),
              PacketLowerBound(c, sc.bandwidth) - 1e-6)
        << c.DebugString();
    ASSERT_GE(replay.completion.at(c.id()), c.arrival());
  }
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1;
  for (double delta : {0.0, 1e-5, 1e-3, 1e-2, 0.1}) {
    for (auto order :
         {ReservationOrder::kOrderedPort, ReservationOrder::kRandom}) {
      cases.push_back({seed++, delta, order, 0.0, true, false});
    }
  }
  // Quantization / carry-over / FIFO corners.
  cases.push_back({seed++, 1e-2, ReservationOrder::kOrderedPort, 0.05, true,
                   false});
  cases.push_back({seed++, 1e-2, ReservationOrder::kRandom, 0.2, false,
                   false});
  cases.push_back({seed++, 1e-2, ReservationOrder::kSortedDemandDesc, 0.0,
                   false, true});
  cases.push_back({seed++, 1e-3, ReservationOrder::kSortedDemandAsc, 0.0,
                   true, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EndToEndFuzz,
                         ::testing::ValuesIn(MakeCases()), CaseName);

}  // namespace
}  // namespace sunflow
