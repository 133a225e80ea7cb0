// Tests for the extension features: per-flow fair-share baseline, deadline
// admission, and schedule serialization.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "core/admission.h"
#include "core/schedule_io.h"
#include "core/sunflow.h"
#include "exp/csv_export.h"
#include "packet/fair_share.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

// ---------- per-flow fair share ----------

packet::PacketReplayConfig FairConfig() {
  packet::PacketReplayConfig c;
  c.bandwidth = Gbps(1);
  c.reallocate_on_flow_completion = true;  // like TCP converging
  return c;
}

TEST(FairShare, SingleFlowGetsFullRate) {
  const Coflow c(1, 0, {{0, 1, MB(100)}});
  auto fair = packet::MakeFairShareAllocator();
  EXPECT_NEAR(packet::PacketSingleCoflowCct(c, *fair, FairConfig()),
              MB(100) / Gbps(1), 1e-6);
}

TEST(FairShare, TwoFlowsSharePort) {
  // Two equal flows from the same source port each get B/2, then the
  // survivor speeds up — classic fair-share completion at 1.5x.
  Trace trace;
  trace.num_ports = 3;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 2, MB(100)}}));
  auto fair = packet::MakeFairShareAllocator();
  const auto result = packet::ReplayPacketTrace(trace, *fair, FairConfig());
  // Both at B/2 until both finish simultaneously at 1.6 s (100 MB each).
  EXPECT_NEAR(result.cct.at(1), 2 * MB(100) / Gbps(1), 1e-6);
  EXPECT_NEAR(result.cct.at(2), 2 * MB(100) / Gbps(1), 1e-6);
}

TEST(FairShare, MaxMinRatesExact) {
  // Flows: (0->2), (1->2), (1->3). out.2 and in.1 are each shared by two
  // flows, so the max-min allocation is B/2 for every flow — and (0->2)
  // and (1->3) cannot be raised further because their bottleneck ports
  // saturate at that point.
  packet::ActiveCoflow a;
  a.id = 1;
  a.flows = {{0, 2, MB(10), MB(10), 0},
             {1, 2, MB(10), MB(10), 0},
             {1, 3, MB(10), MB(10), 0}};
  std::vector<packet::ActiveCoflow*> active = {&a};
  auto fair = packet::MakeFairShareAllocator();
  fair->Allocate(active, 4, Gbps(1), 0.0);
  EXPECT_NEAR(a.flows[0].rate, Gbps(1) / 2, 1.0);
  EXPECT_NEAR(a.flows[1].rate, Gbps(1) / 2, 1.0);
  EXPECT_NEAR(a.flows[2].rate, Gbps(1) / 2, 1.0);
  packet::CheckRates(active, 4, Gbps(1));
}

TEST(FairShare, WorseThanVarysForCoflows) {
  // The textbook motivation for coflow scheduling: fair sharing inflates
  // average CCT versus SEBF+MADD under contention.
  SyntheticTraceConfig tc;
  tc.num_coflows = 30;
  tc.num_ports = 10;
  const Trace trace = GenerateSyntheticTrace(tc);
  auto fair = packet::MakeFairShareAllocator();
  auto varys = packet::MakeVarysAllocator();
  packet::PacketReplayConfig vc;
  const auto fair_result =
      packet::ReplayPacketTrace(trace, *fair, FairConfig());
  const auto varys_result = packet::ReplayPacketTrace(trace, *varys, vc);
  double fair_avg = 0, varys_avg = 0;
  for (const auto& [id, cct] : fair_result.cct) fair_avg += cct;
  for (const auto& [id, cct] : varys_result.cct) varys_avg += cct;
  EXPECT_GT(fair_avg, varys_avg);
}

TEST(FairShare, PortConstraintsHold) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 20;
  tc.num_ports = 8;
  const Trace trace = GenerateSyntheticTrace(tc);
  auto fair = packet::MakeFairShareAllocator();
  // ReplayPacketTrace CheckRates()s after every allocation.
  const auto result = packet::ReplayPacketTrace(trace, *fair, FairConfig());
  EXPECT_EQ(result.cct.size(), trace.coflows.size());
}

// ---------- deadline admission ----------

SunflowConfig Config() {
  SunflowConfig c;
  c.bandwidth = Gbps(1);
  c.delta = Millis(10);
  return c;
}

TEST(Admission, AdmitsFeasibleDeadline) {
  SunflowPlanner planner(4, Config());
  SunflowSchedule out;
  const Coflow c(1, 0, {{0, 1, MB(100)}});
  const auto result = TryAdmitWithDeadline(
      planner, PlanRequest::FromCoflow(c, Gbps(1), 0.0), /*deadline=*/1.0,
      out);
  EXPECT_TRUE(result.admitted);
  EXPECT_NEAR(result.planned_cct, Millis(10) + 0.8, 1e-9);
  EXPECT_EQ(planner.prt().reservations().size(), 1u);
}

TEST(Admission, RejectsInfeasibleDeadlineAndLeavesNoTrace) {
  SunflowPlanner planner(4, Config());
  SunflowSchedule out;
  const Coflow c(1, 0, {{0, 1, MB(100)}});
  const auto result = TryAdmitWithDeadline(
      planner, PlanRequest::FromCoflow(c, Gbps(1), 0.0), /*deadline=*/0.5,
      out);
  EXPECT_FALSE(result.admitted);
  EXPECT_NEAR(result.planned_cct, Millis(10) + 0.8, 1e-9);
  EXPECT_TRUE(planner.prt().reservations().empty());
  EXPECT_TRUE(out.completion_time.empty());
}

TEST(Admission, AdmittedCoflowsNeverHurtByLaterAdmissions) {
  SunflowPlanner planner(4, Config());
  SunflowSchedule out;
  const Coflow first(1, 0, {{0, 1, MB(100)}});
  const auto r1 = TryAdmitWithDeadline(
      planner, PlanRequest::FromCoflow(first, Gbps(1), 0.0), 1.0, out);
  ASSERT_TRUE(r1.admitted);
  const Time first_cct = out.completion_time.at(1);

  // A second coflow on the same ports: only admissible if it fits behind.
  const Coflow second(2, 0, {{0, 1, MB(50)}});
  const auto r2 = TryAdmitWithDeadline(
      planner, PlanRequest::FromCoflow(second, Gbps(1), 0.0), 2.0, out);
  EXPECT_TRUE(r2.admitted);
  // It was planned behind the first: CCT includes the wait.
  EXPECT_GT(out.completion_time.at(2), first_cct);
  // And the first coflow's completion is unchanged.
  EXPECT_NEAR(out.completion_time.at(1), first_cct, 1e-12);
}

TEST(Admission, TightDeadlineRejectedUnderLoad) {
  SunflowPlanner planner(4, Config());
  SunflowSchedule out;
  const Coflow big(1, 0, {{0, 1, MB(1000)}});
  ASSERT_TRUE(TryAdmitWithDeadline(
                  planner, PlanRequest::FromCoflow(big, Gbps(1), 0.0), 10.0,
                  out)
                  .admitted);
  // The newcomer would have to wait ~8s; a 1s deadline cannot be met.
  const Coflow urgent(2, 0, {{0, 1, MB(10)}});
  const auto r = TryAdmitWithDeadline(
      planner, PlanRequest::FromCoflow(urgent, Gbps(1), 0.0), 1.0, out);
  EXPECT_FALSE(r.admitted);
  EXPECT_GT(r.planned_cct, 8.0);
}

// ---------- CSV export ----------

TEST(CsvExport, WritesAlignedColumns) {
  const std::string path = "/tmp/sunflow_csv_test.csv";
  exp::WriteCsv(path, {{"a", {1, 2}}, {"b", {3.5, 4.5}}});
  std::ifstream f(path);
  std::string line;
  ASSERT_TRUE(std::getline(f, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(f, line));
  EXPECT_EQ(line, "1,3.5");
}

TEST(CsvExport, RejectsRaggedColumns) {
  EXPECT_THROW(
      exp::WriteCsv("/tmp/sunflow_csv_test2.csv", {{"a", {1}}, {"b", {}}}),
      std::runtime_error);
  EXPECT_THROW(exp::WriteCsv("/nonexistent-dir/x.csv", {{"a", {1}}}),
               std::runtime_error);
}

// ---------- schedule serialization ----------

TEST(ScheduleIo, RoundTrips) {
  Rng rng(66);
  std::vector<Flow> flows;
  for (int k = 0; k < 12; ++k) {
    const PortId s = static_cast<PortId>(rng.UniformInt(0, 5));
    const PortId d = static_cast<PortId>(rng.UniformInt(0, 5));
    bool dup = false;
    for (const auto& f : flows)
      if (f.src == s && f.dst == d) dup = true;
    if (!dup) flows.push_back({s, d, MB(rng.Uniform(1, 30))});
  }
  const Coflow c(7, 0, std::move(flows));
  const auto schedule = ScheduleSingleCoflow(c, 6, Config());

  std::ostringstream out;
  WriteReservationsCsv(out, schedule.reservations);
  std::istringstream in(out.str());
  const auto parsed = ReadReservationsCsv(in);

  ASSERT_EQ(parsed.size(), schedule.reservations.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].coflow, schedule.reservations[i].coflow);
    EXPECT_EQ(parsed[i].in, schedule.reservations[i].in);
    EXPECT_EQ(parsed[i].out, schedule.reservations[i].out);
    EXPECT_DOUBLE_EQ(parsed[i].start, schedule.reservations[i].start);
    EXPECT_DOUBLE_EQ(parsed[i].end, schedule.reservations[i].end);
    EXPECT_DOUBLE_EQ(parsed[i].setup, schedule.reservations[i].setup);
  }
}

TEST(ScheduleIo, RejectsMalformedInput) {
  {
    std::istringstream in("not,a,header\n");
    EXPECT_THROW(ReadReservationsCsv(in), std::runtime_error);
  }
  {
    std::istringstream in("coflow,in,out,start,end,setup\n1,0,1,2.0,1.0,0\n");
    EXPECT_THROW(ReadReservationsCsv(in), std::runtime_error);  // end<start
  }
  {
    std::istringstream in("coflow,in,out,start,end,setup\n1,0,1,0.0\n");
    EXPECT_THROW(ReadReservationsCsv(in), std::runtime_error);  // truncated
  }
}

}  // namespace
}  // namespace sunflow
