#include <gtest/gtest.h>

#include "core/policy.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

engine::EngineConfig Config(Time delta = Millis(10)) {
  engine::EngineConfig c;
  c.sunflow.bandwidth = Gbps(1);
  c.sunflow.delta = delta;
  return c;
}

engine::EngineResult RunCircuit(const Trace& trace,
                                const PriorityPolicy& policy,
                                const engine::EngineConfig& config) {
  return engine::ScenarioRegistry::Global().Run("circuit", trace, &policy,
                                                config);
}

TEST(CircuitReplay, SingleCoflowMatchesIntraSchedule) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(
      Coflow(1, 0.0, {{0, 2, MB(10)}, {1, 2, MB(20)}, {0, 3, MB(30)}}));
  const auto policy = MakeShortestFirstPolicy();
  const auto result = RunCircuit(trace, *policy, Config());

  const auto intra =
      ScheduleSingleCoflow(trace.coflows[0], 4, Config().sunflow);
  EXPECT_NEAR(result.cct.at(1), intra.completion_time.at(1), 1e-9);
}

TEST(CircuitReplay, DisjointCoflowsUnaffectedByEachOther) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{2, 3, MB(100)}}));
  const auto policy = MakeShortestFirstPolicy();
  const auto result = RunCircuit(trace, *policy, Config());
  const Time expected = Millis(10) + MB(100) / Gbps(1);
  EXPECT_NEAR(result.cct.at(1), expected, 1e-9);
  EXPECT_NEAR(result.cct.at(2), expected, 1e-9);
}

TEST(CircuitReplay, ShortestFirstPrioritizesSmall) {
  // Both coflows want the same circuit; the small one (arriving second)
  // wins priority at its arrival replan.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(1000)}}));
  trace.coflows.push_back(Coflow(2, 0.5, {{0, 1, MB(10)}}));
  const auto policy = MakeShortestFirstPolicy();
  const auto result = RunCircuit(trace, *policy, Config());
  // Small coflow: δ + p (the circuit was carried by coflow 1 but must be
  // re-established since the pair is identical — carry-over applies).
  EXPECT_LT(result.cct.at(2), Millis(10) + MB(10) / Gbps(1) + 1e-6);
  // Large coflow still completes, delayed by roughly the small one.
  const Time p_large = MB(1000) / Gbps(1);
  EXPECT_GT(result.cct.at(1), p_large);
}

TEST(CircuitReplay, CarryOverAvoidsSecondSetup) {
  // One coflow transmitting when another arrives on different ports:
  // the replan must not add a second δ for the in-flight circuit.
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(500)}}));
  trace.coflows.push_back(Coflow(2, 1.0, {{2, 3, MB(500)}}));

  engine::EngineConfig with = Config();
  with.carry_over_circuits = true;
  engine::EngineConfig without = Config();
  without.carry_over_circuits = false;

  const auto policy = MakeShortestFirstPolicy();
  const auto r_with = RunCircuit(trace, *policy, with);
  const auto r_without = RunCircuit(trace, *policy, without);

  const Time ideal = Millis(10) + MB(500) / Gbps(1);
  EXPECT_NEAR(r_with.cct.at(1), ideal, 1e-9);
  // Without carry-over coflow 1 pays a second δ at the replan.
  EXPECT_NEAR(r_without.cct.at(1), ideal + Millis(10), 1e-9);
  // Coflow 2 is untouched with carry-over; without it, the replan at
  // coflow 1's completion re-charges δ for coflow 2's in-flight circuit.
  EXPECT_NEAR(r_with.cct.at(2), ideal, 1e-9);
  EXPECT_NEAR(r_without.cct.at(2), ideal + Millis(10), 1e-9);
}

TEST(CircuitReplay, AllCoflowsCompleteOnSyntheticTrace) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  cfg.num_ports = 15;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto policy = MakeShortestFirstPolicy();
  const auto result = RunCircuit(trace, *policy, Config());
  EXPECT_EQ(result.cct.size(), trace.coflows.size());
  for (const Coflow& c : trace.coflows) {
    // The packet bound is inviolable. The circuit bound TcL assumes every
    // flow pays a cold setup δ; with carry-over a coflow can inherit
    // circuits left up by completed coflows and legitimately come in under
    // TcL — but never by more than δ per flow.
    EXPECT_GE(result.cct.at(c.id()), PacketLowerBound(c, Gbps(1)) - 1e-6)
        << c.DebugString();
    EXPECT_GE(result.cct.at(c.id()) +
                  Millis(10) * static_cast<double>(c.size()),
              CircuitLowerBound(c, Gbps(1), Millis(10)) - 1e-6)
        << c.DebugString();
  }
}

TEST(CircuitReplay, FifoVsScfOrdering) {
  // A long coflow arrives first, then a short one on the same ports.
  // FIFO makes the short one wait; SCF does not.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(2000)}}));
  trace.coflows.push_back(Coflow(2, 0.1, {{0, 1, MB(10)}}));
  const auto scf = MakeShortestFirstPolicy();
  const auto fifo = MakeFifoPolicy();
  const auto r_scf = RunCircuit(trace, *scf, Config());
  const auto r_fifo = RunCircuit(trace, *fifo, Config());
  EXPECT_LT(r_scf.cct.at(2), r_fifo.cct.at(2));
  EXPECT_LE(r_fifo.cct.at(1), r_scf.cct.at(1) + 1e-9);
}

TEST(CircuitReplay, StaticPolicyAvailable) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  const auto policy = MakeStaticShortestFirstPolicy();
  const auto result = RunCircuit(trace, *policy, Config());
  EXPECT_EQ(result.cct.size(), 1u);
}

TEST(CircuitReplay, ZeroDeltaNeverBeatsPacketSwitching) {
  // Cross-validation of the two replay engines: even at δ = 0 a circuit
  // switch serializes each port onto one peer at a time, so no coflow can
  // finish earlier than under Varys' fluid packet scheduling... except
  // where priority orders differ between the schedulers. Compare the
  // *makespans* (schedule-order independent lower-boundedness) instead.
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 25;
  cfg.num_ports = 10;
  const Trace trace = GenerateSyntheticTrace(cfg);

  engine::EngineConfig cc = Config(0.0);
  const auto policy = MakeShortestFirstPolicy();
  const auto circuit = RunCircuit(trace, *policy, cc);

  packet::PacketReplayConfig pc;
  auto varys = packet::MakeVarysAllocator();
  const auto packet_result = packet::ReplayPacketTrace(trace, *varys, pc);

  // Both engines must drain the same bytes; with δ = 0 the circuit switch
  // loses only multiplexing, so its makespan is >= the packet makespan
  // (equal when the bottleneck port dominates).
  EXPECT_GE(circuit.makespan + 1e-6, packet_result.makespan);
  // And each engine independently respects every coflow's packet bound.
  for (const Coflow& c : trace.coflows) {
    EXPECT_GE(circuit.cct.at(c.id()),
              PacketLowerBound(c, Gbps(1)) - 1e-6);
    EXPECT_GE(packet_result.cct.at(c.id()),
              PacketLowerBound(c, Gbps(1)) - 1e-6);
  }
}

TEST(CircuitReplay, LeastAttainedServiceIsNonClairvoyant) {
  // LAS without size knowledge: a newcomer (0 bytes attained) outranks a
  // coflow that has already moved past the first queue limit, even though
  // the veteran's *remaining* demand is smaller — the opposite of SCF.
  Trace trace;
  trace.num_ports = 2;
  // Veteran: 30 MB total; by t=0.5 it has sent >10 MB (queue 1).
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(30)}}));
  // Newcomer: 100 MB (bigger in every clairvoyant sense).
  trace.coflows.push_back(Coflow(2, 0.2, {{0, 1, MB(100)}}));
  const auto las = MakeLeastAttainedServicePolicy(MB(10), 10.0);
  const auto result = RunCircuit(trace, *las, Config());
  // At the replan (t=0.2) the veteran has ~23 MB attained -> queue 1; the
  // newcomer is queue 0 and preempts despite being larger. It even inherits
  // the veteran's established circuit on the same pair (carry-over), so it
  // pays no setup at all.
  EXPECT_NEAR(result.cct.at(2), MB(100) / Gbps(1), 1e-6);
  EXPECT_GT(result.cct.at(1), MB(100) / Gbps(1));  // waited behind it

  // SCF (clairvoyant) makes the opposite call: the veteran finishes first.
  const auto scf = MakeShortestFirstPolicy();
  const auto scf_result = RunCircuit(trace, *scf, Config());
  EXPECT_LT(scf_result.cct.at(1), result.cct.at(1));
}

TEST(CircuitReplay, WeightedPolicyProtectsImportantCoflow) {
  // An important long coflow with weight 10 beats an unweighted short one
  // on the same ports; with weight 1 the short one wins (SCF behaviour).
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(300)}}));  // important
  trace.coflows.push_back(Coflow(2, 0.5, {{0, 1, MB(50)}}));

  const auto weighted = MakeWeightedShortestFirstPolicy({{1, 100.0}});
  const auto r_weighted = RunCircuit(trace, *weighted, Config());
  const Time alone = Millis(10) + MB(300) / Gbps(1);
  EXPECT_NEAR(r_weighted.cct.at(1), alone, 1e-9);

  const auto plain = MakeShortestFirstPolicy();
  const auto r_plain = RunCircuit(trace, *plain, Config());
  EXPECT_GT(r_plain.cct.at(1), alone + 0.3);  // preempted by the short one
}

TEST(CircuitReplay, ZeroDeltaApproachesPacketBound) {
  Trace trace;
  trace.num_ports = 3;
  trace.coflows.push_back(
      Coflow(1, 0.0, {{0, 2, MB(100)}, {1, 2, MB(100)}}));
  const auto policy = MakeShortestFirstPolicy();
  const auto result = RunCircuit(trace, *policy, Config(0.0));
  EXPECT_NEAR(result.cct.at(1), MB(200) / Gbps(1), 1e-6);
}

}  // namespace
}  // namespace sunflow
