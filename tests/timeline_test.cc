// Telemetry timelines (obs/timeline.h): the bounded-memory decimation
// contract, the replan-latency SLO tracker, the online §5.4 idleness
// accumulator against trace/idleness.h, and per-window busy seconds
// against the reservation table's cursor-free BusySeconds probe. Plus the
// event-queue high-water gauge the sampler's queue-depth column rides on,
// and the K>1 contract: a kcore trace recorded with the sampler attached
// still attributes and audits clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/prt.h"
#include "obs/attribution.h"
#include "obs/audit.h"
#include "obs/timeline.h"
#include "obs/trace_sink.h"
#include "sim/engine/event_queue.h"
#include "sim/engine/scenario.h"
#include "trace/coflow.h"
#include "trace/idleness.h"

namespace sunflow {
namespace {

using obs::TimelineCircuitUse;
using obs::TimelineConfig;
using obs::TimelineSample;
using obs::TimelineSampler;

// ---- sampler unit tests --------------------------------------------------

TEST(TimelineSampler, DecimationBoundsMemoryAndConservesBusySeconds) {
  TimelineConfig tc;
  tc.dt = 1.0;
  tc.cap = 8;
  TimelineSampler sampler(tc);
  sampler.BeginRun(4);

  // 100 one-second windows, each with 0.5 s of circuit time on plane 0:
  // far past the cap, so several decimation rounds must fire.
  for (int i = 0; i < 100; ++i) {
    const Time t = i;
    sampler.IngestCircuits(t, t + 1, {{0, t, t + 0.5}}, /*active=*/1,
                           /*blocked=*/0);
    sampler.NoteEngineSpan(t, t + 1);
    sampler.Advance(t + 1, /*active=*/1, /*pending=*/0,
                    /*admitted=*/static_cast<std::uint64_t>(i + 1));
  }
  sampler.EndRun(100);

  const auto& samples = sampler.samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), tc.cap);
  EXPECT_GT(sampler.decimations(), 0u);
  EXPECT_DOUBLE_EQ(sampler.effective_dt(),
                   tc.dt * (1 << sampler.decimations()));

  // Decimation merges windows but never drops time or busy seconds: the
  // retained series still tiles [0, 100) and sums to the exact totals.
  EXPECT_NEAR(samples.front().begin, 0.0, kTimeEps);
  EXPECT_NEAR(samples.back().end, 100.0, kTimeEps);
  double busy_in = 0, busy_out = 0, engine_s = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_NEAR(samples[i].begin, samples[i - 1].end, kTimeEps);
    }
    for (double b : samples[i].busy_in) busy_in += b;
    for (double b : samples[i].busy_out) busy_out += b;
    engine_s += samples[i].engine_active_s;
  }
  EXPECT_NEAR(busy_in, 50.0, 1e-9);   // each circuit holds one input port
  EXPECT_NEAR(busy_out, 50.0, 1e-9);  // ... and one output port
  EXPECT_NEAR(engine_s, 100.0, 1e-9);
  // The cumulative admission gauge survives pair-merging (later wins).
  EXPECT_EQ(samples.back().admitted, 100u);

  const auto summary = sampler.Summarize();
  // busy / (2 sides * 1 plane * 4 ports * 100 s) = 100 / 800.
  EXPECT_NEAR(summary.util_mean, 0.125, 1e-9);
  EXPECT_NEAR(summary.engine_active_fraction, 1.0, 1e-9);
  EXPECT_EQ(summary.decimations, sampler.decimations());
}

TEST(TimelineSampler, SloBudgetCountsBurnAndFirstBreach) {
  TimelineConfig tc;
  tc.slo_budget_us = 10;  // 10'000 ns
  TimelineSampler sampler(tc);
  sampler.BeginRun(2);
  sampler.NoteReplan(1.0, 5'000);   // within budget
  sampler.NoteReplan(2.0, 20'000);  // breach #1
  sampler.NoteReplan(3.0, 30'000);  // breach #2
  sampler.EndRun(4.0);

  const auto summary = sampler.Summarize();
  EXPECT_EQ(summary.slo.replans, 3u);
  EXPECT_EQ(summary.slo.burn, 2u);
  EXPECT_DOUBLE_EQ(summary.slo.first_breach_t, 2.0);
  EXPECT_DOUBLE_EQ(summary.slo.max_ns, 30'000);
  EXPECT_GE(summary.slo.p50_ns, 5'000);
  EXPECT_LE(summary.slo.p50_ns, 30'000);
}

TEST(TimelineSampler, NoBudgetMeansNoBurn) {
  TimelineSampler sampler;  // slo_budget_us = 0: check disabled
  sampler.BeginRun(2);
  sampler.NoteReplan(1.0, 1e9);
  sampler.EndRun(2.0);
  const auto summary = sampler.Summarize();
  EXPECT_EQ(summary.slo.burn, 0u);
  EXPECT_DOUBLE_EQ(summary.slo.first_breach_t, -1);
}

TEST(TimelineSampler, IdleGapsDrainWithoutAccumulatingOpenWindows) {
  // A demand burst, a huge idle gap, another burst: the interleaved
  // finalize loop must stream the gap's empty windows through the
  // decimating buffer instead of materializing them all at once.
  TimelineConfig tc;
  tc.dt = 0.5;
  tc.cap = 16;
  TimelineSampler sampler(tc);
  sampler.BeginRun(2);
  sampler.IngestCircuits(0, 1, {{0, 0.0, 1.0}}, 1, 0);
  sampler.Advance(1, 0, 0, 1);
  sampler.Advance(10'000, 0, 0, 1);  // fast-forward over the gap
  sampler.IngestCircuits(10'000, 10'001, {{0, 10'000.0, 10'001.0}}, 1, 0);
  sampler.Advance(10'001, 0, 0, 2);
  sampler.EndRun(10'001);
  EXPECT_LE(sampler.samples().size(), tc.cap);
  double busy = 0;
  for (const auto& s : sampler.samples())
    for (double b : s.busy_in) busy += b;
  EXPECT_NEAR(busy, 2.0, 1e-9);
}

// ---- the queue-depth gauge's source --------------------------------------

TEST(EventQueue, DepthHighWaterTracksPeakSize) {
  engine::EventQueue<int> q;
  q.Push(1.0, 10);
  q.Push(2.0, 20);
  q.Push(3.0, 30);
  EXPECT_EQ(q.stats().depth_high_water, 3u);
  q.Pop();
  q.Pop();
  q.Push(4.0, 40);  // size back to 2: high water must stay at 3
  EXPECT_EQ(q.stats().depth_high_water, 3u);
  q.PushBatch({{5.0, 50}, {6.0, 60}});
  EXPECT_EQ(q.stats().depth_high_water, 4u);
}

// ---- engine integration --------------------------------------------------

Trace SmallTrace() {
  Trace trace;
  trace.num_ports = 6;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(120)}, {1, 2, MB(60)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 1, MB(40)}}));
  trace.coflows.push_back(Coflow(3, 0.3, {{3, 4, MB(200)}, {4, 5, MB(80)}}));
  trace.coflows.push_back(Coflow(4, 0.9, {{2, 0, MB(90)}}));
  // A late straggler creates a genuine demand gap, so idleness is
  // strictly positive and the union accumulator has a segment to close.
  trace.coflows.push_back(Coflow(5, 9.0, {{1, 3, MB(50)}}));
  return trace;
}

engine::EngineConfig BaseConfig() {
  engine::EngineConfig ec;
  ec.sunflow.bandwidth = Gbps(1);
  ec.sunflow.delta = Millis(10);
  return ec;
}

TEST(TimelineEngine, IdleFractionMatchesNetworkIdleness) {
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseConfig();
  TimelineSampler sampler;
  ec.timeline = &sampler;
  engine::ScenarioRegistry::Global().Run("circuit", trace, policy.get(), ec);

  // The sampler computes §5.4 idleness online from the admissions the
  // driver feeds it; the offline IntervalSet version is ground truth.
  const double expected =
      NetworkIdleness(trace, ec.sunflow.bandwidth);
  EXPECT_GT(expected, 0);
  EXPECT_NEAR(sampler.Summarize().idle_fraction, expected, 1e-9);
}

TEST(TimelineEngine, PerWindowBusyMatchesReservationTableProbe) {
  // Rebuild a reservation table from the emitted circuit events and check
  // every retained window's busy seconds against BusySeconds() — the
  // incremental clipping in AddBusy against the table's binary-search
  // probe, window by window.
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseConfig();
  TimelineConfig tc;
  tc.dt = 0.05;
  tc.cap = 1 << 20;  // no decimation: windows stay at raw dt
  TimelineSampler sampler(tc);
  obs::MemorySink sink;
  ec.timeline = &sampler;
  ec.sink = &sink;
  engine::ScenarioRegistry::Global().Run("circuit", trace, policy.get(), ec);
  ASSERT_FALSE(sampler.samples().empty());
  EXPECT_EQ(sampler.decimations(), 0u);

  FabricReservationTable prt(trace.num_ports, /*num_planes=*/1);
  for (const obs::Event& e : sink.events()) {
    if (e.type != obs::EventType::kCircuitSetup) continue;
    prt.Reserve({e.in, e.out, e.t, e.t + e.dur, e.value, e.coflow, e.plane});
  }

  for (const TimelineSample& s : sampler.samples()) {
    double expect_in = 0, expect_out = 0;
    for (PortId p = 0; p < trace.num_ports; ++p) {
      expect_in += prt.BusySeconds(FabricReservationTable::Side::kIn, p,
                                   s.begin, s.end);
      expect_out += prt.BusySeconds(FabricReservationTable::Side::kOut, p,
                                    s.begin, s.end);
    }
    double got_in = 0, got_out = 0;
    for (double b : s.busy_in) got_in += b;
    for (double b : s.busy_out) got_out += b;
    EXPECT_NEAR(got_in, expect_in, 1e-9)
        << "window [" << s.begin << ", " << s.end << ")";
    EXPECT_NEAR(got_out, expect_out, 1e-9)
        << "window [" << s.begin << ", " << s.end << ")";
  }
}

TEST(TimelineEngine, SamplerDoesNotPerturbResults) {
  // Attaching the sampler must be observation only: CCTs, makespan and
  // replan count are bit-identical with and without it.
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  const auto bare = engine::ScenarioRegistry::Global().Run(
      "circuit", trace, policy.get(), BaseConfig());
  engine::EngineConfig ec = BaseConfig();
  TimelineSampler sampler;
  ec.timeline = &sampler;
  const auto sampled =
      engine::ScenarioRegistry::Global().Run("circuit", trace, policy.get(),
                                             ec);
  ASSERT_EQ(bare.cct.size(), sampled.cct.size());
  for (const auto& [id, cct] : bare.cct) {
    EXPECT_EQ(cct, sampled.cct.at(id)) << "coflow " << id;
  }
  EXPECT_EQ(bare.makespan, sampled.makespan);
  EXPECT_EQ(bare.replans, sampled.replans);
}

TEST(TimelineEngine, KCoreTraceWithSamplerAttributesAndAuditsClean) {
  // K=2 per-core fabric with the sampler attached: the recorded trace
  // still passes the physical audit and the causal CCT attribution, and
  // the sampler sees both planes.
  const Trace trace = SmallTrace();
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseConfig();
  ec.sunflow.fabric =
      FabricSpec::Uniform(2, ec.sunflow.delta, ec.sunflow.bandwidth);
  ec.kcore_joint = false;
  TimelineSampler sampler;
  obs::MemorySink sink;
  ec.timeline = &sampler;
  ec.sink = &sink;
  const auto result =
      engine::ScenarioRegistry::Global().Run("kcore", trace, policy.get(), ec);
  EXPECT_EQ(result.cct.size(), trace.coflows.size());

  const obs::AuditReport audit = obs::AuditTrace(sink.events());
  for (const auto& v : audit.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
  const obs::AttributionReport attr = obs::Attribute(sink.events());
  EXPECT_EQ(attr.coflows.size(), trace.coflows.size());
  EXPECT_GT(attr.total_cct, 0);

  EXPECT_EQ(sampler.planes(), 2);
  const auto summary = sampler.Summarize();
  EXPECT_EQ(summary.planes, 2);
  EXPECT_GT(summary.util_mean, 0);
  EXPECT_EQ(summary.slo.replans,
            static_cast<std::uint64_t>(result.replans));
  std::set<PlaneId> planes_seen;
  for (const TimelineSample& s : sampler.samples()) {
    for (std::size_t p = 0; p < s.busy_in.size(); ++p) {
      if (s.busy_in[p] > 0) planes_seen.insert(static_cast<PlaneId>(p));
    }
  }
  EXPECT_EQ(planes_seen, (std::set<PlaneId>{0, 1}));
}

}  // namespace
}  // namespace sunflow
