#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/rng.h"
#include "core/sunflow.h"
#include "obs/trace_sink.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

SunflowConfig Config(Time delta = Millis(10), Bandwidth b = Gbps(1)) {
  SunflowConfig c;
  c.bandwidth = b;
  c.delta = delta;
  return c;
}

Coflow RandomCoflow(Rng& rng, PortId num_ports, int max_width) {
  const int senders = 1 + static_cast<int>(rng.UniformInt(0, max_width - 1));
  const int receivers = 1 + static_cast<int>(rng.UniformInt(0, max_width - 1));
  const auto srcs = rng.SampleWithoutReplacement(num_ports, senders);
  const auto dsts = rng.SampleWithoutReplacement(num_ports, receivers);
  std::vector<Flow> flows;
  for (PortId s : srcs)
    for (PortId d : dsts)
      if (rng.Bernoulli(0.8)) flows.push_back({s, d, MB(rng.Uniform(1, 50))});
  if (flows.empty()) flows.push_back({srcs[0], dsts[0], MB(1)});
  return Coflow(1, 0.0, std::move(flows));
}

TEST(SunflowIntra, SingleFlowTakesDeltaPlusProcessing) {
  const Coflow c(1, 0, {{0, 1, MB(100)}});
  const auto schedule = ScheduleSingleCoflow(c, 4, Config());
  const Time expected = Millis(10) + MB(100) / Gbps(1);
  EXPECT_NEAR(schedule.completion_time.at(1), expected, 1e-9);
  EXPECT_EQ(schedule.reservation_count.at(1), 1);
  // Exactly the circuit lower bound.
  EXPECT_NEAR(schedule.completion_time.at(1),
              CircuitLowerBound(c, Gbps(1), Millis(10)), 1e-9);
}

TEST(SunflowIntra, OneToManyAchievesLowerBound) {
  // One sender to 3 receivers: circuits must be serial on the input port.
  const Coflow c(1, 0, {{0, 1, MB(10)}, {0, 2, MB(20)}, {0, 3, MB(30)}});
  const auto schedule = ScheduleSingleCoflow(c, 4, Config());
  EXPECT_NEAR(schedule.completion_time.at(1),
              CircuitLowerBound(c, Gbps(1), Millis(10)), 1e-9);
  EXPECT_EQ(schedule.reservation_count.at(1), 3);
}

TEST(SunflowIntra, ManyToOneAchievesLowerBound) {
  const Coflow c(1, 0, {{0, 3, MB(10)}, {1, 3, MB(20)}, {2, 3, MB(30)}});
  const auto schedule = ScheduleSingleCoflow(c, 4, Config());
  EXPECT_NEAR(schedule.completion_time.at(1),
              CircuitLowerBound(c, Gbps(1), Millis(10)), 1e-9);
}

TEST(SunflowIntra, DisjointFlowsRunInParallel) {
  // Two flows on disjoint port pairs: CCT = max individual time.
  const Coflow c(1, 0, {{0, 2, MB(10)}, {1, 3, MB(40)}});
  const auto schedule = ScheduleSingleCoflow(c, 4, Config());
  EXPECT_NEAR(schedule.completion_time.at(1),
              Millis(10) + MB(40) / Gbps(1), 1e-9);
}

TEST(SunflowIntra, PaperFigure1Example) {
  // Fig 1a: 5 senders x 2 receivers, every sender sends to both receivers.
  // Build with distinct sizes; Sunflow must set up exactly |C| = 10 circuits
  // and stay within 2x the circuit lower bound.
  std::vector<Flow> flows;
  for (PortId i = 0; i < 5; ++i) {
    flows.push_back({i, 5, MB(10 + 7 * i)});
    flows.push_back({i, 6, MB(12 + 3 * i)});
  }
  const Coflow c(1, 0, std::move(flows));
  const auto schedule = ScheduleSingleCoflow(c, 7, Config());
  EXPECT_EQ(schedule.reservation_count.at(1), 10);
  const Time tcl = CircuitLowerBound(c, Gbps(1), Millis(10));
  EXPECT_LT(schedule.completion_time.at(1), 2 * tcl);
}

TEST(SunflowIntra, NoPreemptionEachFlowHasOneReservation) {
  // Pure intra scheduling never splits a flow: reservation count == |C|.
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const Coflow c = RandomCoflow(rng, 12, 6);
    const auto schedule = ScheduleSingleCoflow(c, 12, Config());
    EXPECT_EQ(schedule.reservation_count.at(1),
              static_cast<int>(c.size()))
        << "trial " << trial;
  }
}

TEST(SunflowIntra, ReservationsRespectPortConstraints) {
  Rng rng(32);
  const Coflow c = RandomCoflow(rng, 10, 8);
  SunflowPlanner planner(10, Config());
  SunflowSchedule out;
  planner.ScheduleOne(PlanRequest::FromCoflow(c, Gbps(1), 0.0), out);
  planner.prt().CheckInvariants();  // no overlapping port usage
}

TEST(SunflowIntra, AllDemandServed) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Coflow c = RandomCoflow(rng, 10, 6);
    obs::MemorySink sink;
    const auto schedule = ScheduleSingleCoflow(c, 10, Config(), &sink);
    // Each flow's reservations transmit exactly its processing time.
    for (const Flow& f : c.flows()) {
      Time transmitted = 0;
      for (const auto& r : schedule.reservations) {
        if (r.in == f.src && r.out == f.dst) transmitted += r.transmit_length();
      }
      EXPECT_NEAR(transmitted, f.bytes / Gbps(1), 1e-9);
    }
    // And every flow finish is traced.
    EXPECT_EQ(sink.CountOf(obs::EventType::kFlowFinished), c.size());
  }
}

// ---- Lemma 1: TS <= 2*TcL, for any B, δ, coflow and ordering. ----

struct LemmaCase {
  std::uint64_t seed;
  double delta_ms;
  ReservationOrder order;
};

// gtest prints each parameter into the discovered test name, where CMake
// puts the printout in place of the case index; without a printer it
// dumps the struct's bytes, tail padding included.
void PrintTo(const LemmaCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_delta";
  if (c.delta_ms >= 1 || c.delta_ms == 0) {
    *os << std::lround(c.delta_ms) << "ms";
  } else {
    *os << std::lround(c.delta_ms * 1e3) << "us";
  }
  *os << "_" << ToString(c.order);
}

class Lemma1Property : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(Lemma1Property, CctWithinTwiceCircuitLowerBound) {
  const LemmaCase& param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 15; ++trial) {
    const Coflow c = RandomCoflow(rng, 14, 8);
    SunflowConfig cfg = Config(Millis(param.delta_ms));
    cfg.order = param.order;
    cfg.shuffle_seed = param.seed;
    const auto schedule = ScheduleSingleCoflow(c, 14, cfg);
    const Time tcl = CircuitLowerBound(c, cfg.bandwidth, cfg.delta);
    EXPECT_LE(schedule.completion_time.at(1), 2 * tcl + kTimeEps)
        << "seed=" << param.seed << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Lemma1Property,
    ::testing::Values(
        LemmaCase{1, 10.0, ReservationOrder::kOrderedPort},
        LemmaCase{2, 10.0, ReservationOrder::kRandom},
        LemmaCase{3, 10.0, ReservationOrder::kSortedDemandDesc},
        LemmaCase{4, 10.0, ReservationOrder::kSortedDemandAsc},
        LemmaCase{5, 100.0, ReservationOrder::kOrderedPort},
        LemmaCase{6, 100.0, ReservationOrder::kRandom},
        LemmaCase{7, 1.0, ReservationOrder::kOrderedPort},
        LemmaCase{8, 0.01, ReservationOrder::kRandom},
        LemmaCase{9, 0.0, ReservationOrder::kOrderedPort}));

TEST(SunflowIntra, Lemma2Bound) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const Coflow c = RandomCoflow(rng, 12, 6);
    const SunflowConfig cfg = Config();
    const auto schedule = ScheduleSingleCoflow(c, 12, cfg);
    const double alpha = LemmaTwoAlpha(c, cfg.bandwidth, cfg.delta);
    const Time tpl = PacketLowerBound(c, cfg.bandwidth);
    EXPECT_LE(schedule.completion_time.at(1),
              2 * (1 + alpha) * tpl + kTimeEps);
  }
}

TEST(SunflowIntra, ZeroDeltaStillCorrect) {
  const Coflow c(1, 0, {{0, 2, MB(10)}, {1, 2, MB(20)}, {0, 3, MB(5)}});
  const auto schedule = ScheduleSingleCoflow(c, 4, Config(0.0));
  EXPECT_GE(schedule.completion_time.at(1),
            PacketLowerBound(c, Gbps(1)) - kTimeEps);
  EXPECT_LE(schedule.completion_time.at(1),
            2 * PacketLowerBound(c, Gbps(1)) + kTimeEps);
}

TEST(SunflowIntra, OrderingChangesScheduleNotCorrectness) {
  Rng rng(51);
  const Coflow c = RandomCoflow(rng, 10, 6);
  std::vector<Time> ccts;
  for (auto order :
       {ReservationOrder::kOrderedPort, ReservationOrder::kRandom,
        ReservationOrder::kSortedDemandDesc,
        ReservationOrder::kSortedDemandAsc}) {
    SunflowConfig cfg = Config();
    cfg.order = order;
    const auto schedule = ScheduleSingleCoflow(c, 10, cfg);
    ccts.push_back(schedule.completion_time.at(1));
  }
  const Time tcl = CircuitLowerBound(c, Gbps(1), Millis(10));
  for (Time cct : ccts) {
    EXPECT_GE(cct, tcl - 1e-9);
    EXPECT_LE(cct, 2 * tcl + 1e-9);
  }
}

TEST(SunflowIntra, StartTimeOffsetsSchedule) {
  const Coflow c(1, 5.0, {{0, 1, MB(100)}});
  SunflowPlanner planner(4, Config());
  SunflowSchedule out;
  planner.ScheduleOne(PlanRequest::FromCoflow(c, Gbps(1)), out);
  // CCT is relative to the request start.
  EXPECT_NEAR(out.completion_time.at(1), Millis(10) + MB(100) / Gbps(1),
              1e-9);
  ASSERT_EQ(planner.prt().reservations().size(), 1u);
  EXPECT_DOUBLE_EQ(planner.prt().reservations()[0].start, 5.0);
}

TEST(SunflowIntra, DemandQuantumKeepsLemma1Bound) {
  // Demand rounded up to a quantum (processing times to multiples of
  // 0.05 s) aligns release times. NOTE: quantization is NOT monotone —
  // changing release-time alignment can shift the greedy schedule either
  // way (a Graham-type anomaly). What must hold: the quantized schedule
  // stays within Lemma 1 against the quantized circuit bound, which
  // exceeds the true bound by at most one quantum per flow.
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    const Coflow c = RandomCoflow(rng, 10, 6);
    PlanRequest req = PlanRequest::FromCoflow(c, Gbps(1));
    for (FlowDemand& f : req.demand)
      f.processing = std::ceil(f.processing / 0.05) * 0.05;
    SunflowPlanner planner(10, Config());
    SunflowSchedule rounded;
    planner.ScheduleOne(req, rounded);
    EXPECT_GT(rounded.completion_time.at(1), 0.0);
    EXPECT_LE(rounded.completion_time.at(1),
              2 * (CircuitLowerBound(c, Gbps(1), Millis(10)) +
                   0.05 * static_cast<double>(c.size())) +
                  1e-9);
  }
}

TEST(SunflowIntra, TraceWideLemma1Holds) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 60;
  tc.num_ports = 40;
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(tc), 0.05, MB(1), 7);
  for (const Coflow& c : trace.coflows) {
    const auto schedule = ScheduleSingleCoflow(c.WithArrival(0),
                                               trace.num_ports, Config());
    const Time tcl = CircuitLowerBound(c, Gbps(1), Millis(10));
    EXPECT_LE(schedule.completion_time.at(c.id()), 2 * tcl + 1e-9);
  }
}

}  // namespace
}  // namespace sunflow
