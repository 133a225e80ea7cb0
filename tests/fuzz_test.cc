// Randomized end-to-end invariant sweep: across δ regimes, orderings,
// carry-over, policies and K ∈ {1, 2, 3} switch planes,
// every pipeline stage must uphold its contracts (bounds, conservation,
// executability) on random workloads. Executability is the trace audit
// (obs/audit.h) with the demand input: every intra plan and every inter
// replay holds each port of each plane exclusively, pays that plane's δ
// once per circuit and serves every byte of every flow it finishes.
#include <gtest/gtest.h>

#include <array>
#include <map>

#include "common/rng.h"
#include "core/policy.h"
#include "obs/audit.h"
#include "obs/trace_sink.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

// gtest prints a parameter that has no PrintTo as its bytes, and CMake
// puts that print into each case's ctest name. The two pad fields fill
// the holes the compiler would leave after `order` and `fifo`, so every
// printed byte is a value and the names read the same in every build;
// a PrintTo would rename every case.
struct FuzzCase {
  std::uint64_t seed = 0;
  double delta = 0;
  ReservationOrder order = ReservationOrder::kOrderedPort;
  std::uint32_t pad_after_order = 0;
  /// Flow-size jitter of the random trace (§5.1's ±5%, floored at 1 MB).
  double perturb = 0;
  bool carry_over = false;
  bool fifo = false;
  std::array<char, 6> pad_after_fifo = {};
};
static_assert(sizeof(FuzzCase) == 40,
              "a hole in FuzzCase prints stack bytes into the ctest names");

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  const FuzzCase& p = info.param;
  std::string name = "s";
  name += std::to_string(p.seed);
  name += "_d";
  name += std::to_string(static_cast<int>(p.delta * 1e6));
  name += "us_";
  name += ToString(p.order);
  if (p.carry_over) name += "_carry";
  if (p.fifo) name += "_fifo";
  return name;
}

class EndToEndFuzz : public ::testing::TestWithParam<FuzzCase> {};

void ExpectAuditsClean(const std::vector<obs::Event>& events,
                       const obs::AuditDemand& demand,
                       const std::string& what) {
  const obs::AuditReport audit =
      obs::AuditTrace(events, -1, obs::AuditScope::kSharedFabric, &demand);
  for (const auto& v : audit.violations)
    ADD_FAILURE() << what << " [" << v.invariant << "] " << v.detail;
}

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
      PerturbFlowSizes(GenerateSyntheticTrace(tc), param.perturb, MB(1),
                       param.seed);

  for (int k = 1; k <= 3; ++k) {
    SCOPED_TRACE("K=" + std::to_string(k));
    SunflowConfig sc;
    sc.delta = param.delta;
    sc.order = param.order;
    sc.shuffle_seed = param.seed;
    // Plane p runs at B/(p+1) with δ·(p+1), so both audit rules see
    // unequal planes. K = 1 is the classic fabric bit for bit.
    Bandwidth aggregate = 0;
    for (int p = 0; p < k; ++p) {
      sc.fabric.planes.push_back({param.delta * (p + 1),
                                  sc.bandwidth / (p + 1)});
      aggregate += sc.fabric.planes.back().rate;
    }
    const obs::AuditDemand demand = AuditDemandOf(trace, sc);

    // --- Intra: every plan audits clean against its demand; on one plane
    // every coflow is within Lemma 1. ---
    for (const Coflow& c : trace.coflows) {
      obs::MemorySink sink;
      const auto schedule = ScheduleSingleCoflow(c.WithArrival(0),
                                                 trace.num_ports, sc, &sink);
      if (k == 1) {
        const Time tcl = CircuitLowerBound(c, sc.bandwidth, sc.delta);
        ASSERT_LE(schedule.completion_time.at(c.id()), 2 * tcl + 1e-9)
            << c.DebugString();
      }
      ExpectAuditsClean(sink.events(), demand,
                        "intra coflow " + std::to_string(c.id()));
    }

    // --- Inter replay: completes everything, never beats the packet bound
    // at the aggregate plane rate, and audits clean. ---
    engine::EngineConfig rc;
    rc.sunflow = sc;
    rc.carry_over_circuits = param.carry_over;
    obs::MemorySink sink;
    rc.sink = &sink;
    const auto policy =
        param.fifo ? MakeFifoPolicy() : MakeShortestFirstPolicy();
    const auto replay = engine::ScenarioRegistry::Global().Run(
        "circuit", trace, policy.get(), rc);
    ASSERT_EQ(replay.cct.size(), trace.coflows.size());
    for (const Coflow& c : trace.coflows) {
      ASSERT_GE(replay.cct.at(c.id()), PacketLowerBound(c, aggregate) - 1e-6)
          << c.DebugString();
      ASSERT_GE(replay.completion.at(c.id()), c.arrival());
    }
    ExpectAuditsClean(sink.events(), demand, "inter replay");
  }
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1;
  for (double delta : {0.0, 1e-5, 1e-3, 1e-2, 0.1}) {
    for (auto order :
         {ReservationOrder::kOrderedPort, ReservationOrder::kRandom}) {
      cases.push_back({.seed = seed++,
                       .delta = delta,
                       .order = order,
                       .perturb = 0.05,
                       .carry_over = true});
    }
  }
  // Carry-over / FIFO corners. They keep seeds 13 and 14: a case's seed
  // picks its trace and is part of its name.
  seed = 13;
  cases.push_back({.seed = seed++,
                   .delta = 1e-2,
                   .order = ReservationOrder::kSortedDemandDesc,
                   .perturb = 0.05,
                   .fifo = true});
  cases.push_back({.seed = seed++,
                   .delta = 1e-3,
                   .order = ReservationOrder::kSortedDemandAsc,
                   .perturb = 0.05,
                   .carry_over = true,
                   .fifo = true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EndToEndFuzz,
                         ::testing::ValuesIn(MakeCases()), CaseName);

}  // namespace
}  // namespace sunflow
