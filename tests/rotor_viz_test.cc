#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/policy.h"
#include "core/sunflow.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "viz/timeline.h"

namespace sunflow {
namespace {

engine::EngineConfig UnitConfig() {
  engine::EngineConfig c;
  c.sunflow.bandwidth = Gbps(1);
  c.sunflow.delta = Millis(10);
  return c;
}

engine::EngineResult RunRotor(const Trace& trace) {
  return engine::ScenarioRegistry::Global().Run("rotor", trace,
                                                /*policy=*/nullptr,
                                                UnitConfig());
}

TEST(Rotor, SingleFlowServedWhenItsSlotComesUp) {
  // N=2: A_0 = {(0,0),(1,1)}, A_1 = {(0,1),(1,0)}. Flow (0 -> 1) is served
  // in odd slots only.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(5)}}));
  const auto result = RunRotor(trace);
  // Slot span 0.1 s; flow's slot is [0.1, 0.2) with light from 0.11.
  // 5 MB at 1 Gbps = 0.04 s -> finishes at 0.15.
  EXPECT_NEAR(result.cct.at(1), 0.15, 1e-9);
}

TEST(Rotor, FlowLargerThanSlotSpansRotations) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(20)}}));
  const auto result = RunRotor(trace);
  // 0.16 s of demand, 0.09 s served per odd slot: slot1 serves 0.09,
  // slot3 serves the remaining 0.07 -> finish at 0.31 + 0.07 = 0.38.
  EXPECT_NEAR(result.cct.at(1), 0.38, 1e-9);
}

TEST(Rotor, SharesCircuitAmongCoflows) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(5)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(5)}}));
  const auto result = RunRotor(trace);
  // Both share B during the odd slot: each drains 5 MB at B/2 in 0.08 s.
  EXPECT_NEAR(result.cct.at(1), 0.11 + 0.08, 1e-9);
  EXPECT_NEAR(result.cct.at(2), 0.11 + 0.08, 1e-9);
}

TEST(Rotor, MuchSlowerThanSunflowOnSkewedDemand) {
  // The ablation's point: blind rotation gives each pair 1/N of the
  // timeline, so demand concentrated on one pair crawls.
  Trace trace;
  trace.num_ports = 6;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(250)}}));

  const auto rotor = RunRotor(trace);
  const auto policy = MakeShortestFirstPolicy();
  const auto sunflow_result = engine::ScenarioRegistry::Global().Run(
      "circuit", trace, policy.get(), UnitConfig());
  // Sunflow: δ + 2 s. Rotor: ~N x slower (one slot in six, δ per slot).
  EXPECT_GT(rotor.cct.at(1), 4 * sunflow_result.cct.at(1));
}

TEST(Rotor, AllCoflowsComplete) {
  Trace trace;
  trace.num_ports = 4;
  for (int k = 0; k < 6; ++k) {
    trace.coflows.push_back(Coflow(
        k + 1, 0.2 * k,
        {{static_cast<PortId>(k % 4), static_cast<PortId>((k + 1) % 4),
          MB(10 + k)}}));
  }
  const auto result = RunRotor(trace);
  EXPECT_EQ(result.cct.size(), 6u);
  for (const auto& [id, cct] : result.cct) EXPECT_GT(cct, 0.0);
}

// ---- viz ----

std::vector<CircuitReservation> SampleReservations() {
  return {
      {0, 1, 0.0, 1.0, 0.01, 1},
      {1, 2, 0.2, 0.8, 0.01, 2},
      {0, 2, 1.0, 1.5, 0.01, 1},
  };
}

TEST(Viz, AsciiHasOneLanePerInputPort) {
  const auto text = viz::RenderTimelineAscii(SampleReservations());
  EXPECT_NE(text.find("in.0"), std::string::npos);
  EXPECT_NE(text.find("in.1"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Viz, AsciiMarksSetupAndLabels) {
  viz::TimelineOptions options;
  options.ascii_width = 100;  // wide enough that δ gets its own column
  std::vector<CircuitReservation> reservations = {
      {0, 1, 0.0, 1.0, 0.2, 7}};
  const auto text = viz::RenderTimelineAscii(reservations, options);
  EXPECT_NE(text.find('#'), std::string::npos);   // setup span
  EXPECT_NE(text.find('7'), std::string::npos);   // coflow label
}

TEST(Viz, SvgIsWellFormedAndColorsPerCoflow) {
  std::ostringstream os;
  viz::WriteTimelineSvg(os, SampleReservations());
  const std::string svg = os.str();
  EXPECT_EQ(svg.find("<svg"), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Two coflows (ids 1, 2) -> palette entries 1 and 2.
  EXPECT_NE(svg.find("#f28e2b"), std::string::npos);
  EXPECT_NE(svg.find("#59a14f"), std::string::npos);
  // Balanced rect tags (at least lanes * spans).
  EXPECT_GT(std::count(svg.begin(), svg.end(), '<'), 8);
}

TEST(Viz, EmptyScheduleStillRenders) {
  std::ostringstream os;
  viz::WriteTimelineSvg(os, {});
  EXPECT_NE(os.str().find("</svg>"), std::string::npos);
  EXPECT_TRUE(viz::RenderTimelineAscii({}).empty());
}

}  // namespace
}  // namespace sunflow
