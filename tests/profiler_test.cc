// Locks in the phase-profiler contract (obs/profiler.h): nested-scope
// attribution, the sharded merge's thread-count invariance, the disabled
// fast path, the engine's phase tree summing without double counting, the
// packet replay's scopes, the replan clock shared by engine.plan and
// kAssignmentComputed, and the run-manifest JSON round trip built on
// obs/json.h.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/policy.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace_sink.h"
#include "packet/aalo.h"
#include "packet/replay.h"
#include "runtime/thread_pool.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

namespace sunflow::obs {
namespace {

void SpinFor(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Scope entries across every phase of a merged registry.
std::uint64_t ScopeEntries(const MetricsRegistry& merged) {
  std::uint64_t n = 0;
  for (const ProfileRow& row : merged.PhaseRows()) n += row.stats.count;
  return n;
}

TEST(ProfilerTest, NestedScopesAttributeSelfAndTotal) {
  GlobalMetrics().Reset();
  {
    ProfileScope outer("test.outer");
    SpinFor(std::chrono::microseconds(200));
    {
      ProfileScope inner("test.inner");
      SpinFor(std::chrono::microseconds(200));
    }
    SpinFor(std::chrono::microseconds(100));
  }
  const MetricsRegistry merged = GlobalMetrics().Merged();
  const PhaseStats* outer = merged.FindPhase("test.outer");
  const PhaseStats* inner = merged.FindPhase("test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 1u);
  // Inclusive parent time covers the child; exclusive time does not.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_NEAR(outer->self_ns, outer->total_ns - inner->total_ns,
              outer->total_ns * 1e-9 + 1.0);
  // The child is a leaf: self == total.
  EXPECT_DOUBLE_EQ(inner->self_ns, inner->total_ns);
  EXPECT_LE(inner->max_ns, inner->total_ns);
  EXPECT_GT(inner->mean_ns(), 0);
}

TEST(ProfilerTest, SiblingScopesOfOnePhaseAccumulate) {
  GlobalMetrics().Reset();
  for (int i = 0; i < 5; ++i) {
    SUNFLOW_PROFILE_SCOPE("test.sibling");
  }
  const MetricsRegistry merged = GlobalMetrics().Merged();
  const PhaseStats* stats = merged.FindPhase("test.sibling");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 5u);
  EXPECT_GE(stats->total_ns, stats->max_ns);
}

TEST(ProfilerTest, MergedCountsAreThreadCountInvariant) {
  constexpr std::size_t kTasks = 40;
  auto run_at = [](int threads) {
    GlobalMetrics().Reset();
    runtime::ThreadPool pool(threads);
    pool.ParallelFor(0, kTasks, [](std::size_t) {
      ProfileScope task("test.task");
      {
        ProfileScope inner("test.step");
      }
      {
        ProfileScope inner("test.step");
      }
    });
    return GlobalMetrics().Merged();
  };
  const MetricsRegistry serial = run_at(1);
  const MetricsRegistry parallel = run_at(8);
  for (const char* phase : {"test.task", "test.step"}) {
    const PhaseStats* a = serial.FindPhase(phase);
    const PhaseStats* b = parallel.FindPhase(phase);
    ASSERT_NE(a, nullptr) << phase;
    ASSERT_NE(b, nullptr) << phase;
    // Durations are wall clock and vary; the counts are the contract.
    EXPECT_EQ(a->count, b->count) << phase;
  }
  EXPECT_EQ(serial.FindPhase("test.task")->count, kTasks);
  EXPECT_EQ(serial.FindPhase("test.step")->count, 2 * kTasks);
}

TEST(ProfilerTest, CrossThreadScopesLandInSeparateShardsAndMerge) {
  GlobalMetrics().Reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 3; ++i) {
        ProfileScope scope("test.worker");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const MetricsRegistry merged = GlobalMetrics().Merged();
  ASSERT_NE(merged.FindPhase("test.worker"), nullptr);
  EXPECT_EQ(merged.FindPhase("test.worker")->count, 12u);
  EXPECT_EQ(ScopeEntries(merged), 12u);
}

TEST(ProfilerTest, DisabledScopesRecordNothing) {
  GlobalMetrics().Reset();
  SetProfilingEnabled(false);
  {
    SUNFLOW_PROFILE_SCOPE("test.disabled");
    ProfileScope explicit_scope("test.disabled_explicit");
  }
  SetProfilingEnabled(true);
  const MetricsRegistry merged = GlobalMetrics().Merged();
  EXPECT_EQ(merged.FindPhase("test.disabled"), nullptr);
  EXPECT_EQ(merged.FindPhase("test.disabled_explicit"), nullptr);
  EXPECT_EQ(ScopeEntries(merged), 0u);
}

TEST(ProfilerTest, DisabledScopeIsNearFree) {
  // The disabled path must stay a relaxed load — orders of magnitude
  // under the enabled cost. Bounded loosely so sanitizer builds pass.
  GlobalProfiler().Reset();
  SetProfilingEnabled(false);
  constexpr int kIters = 100000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    SUNFLOW_PROFILE_SCOPE("test.disabled_cost");
  }
  const double ns_per_scope =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count() /
      kIters;
  SetProfilingEnabled(true);
  EXPECT_LT(ns_per_scope, 1000.0);
}

// One serial "circuit" replay of a small synthetic trace.
engine::EngineResult ReplayCircuit(TraceSink* sink = nullptr) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 30;
  cfg.num_ports = 32;
  cfg.seed = 20161212;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec;
  ec.sunflow.bandwidth = Gbps(1);
  ec.sunflow.delta = Millis(10);
  ec.sink = sink;
  return engine::ScenarioRegistry::Global().Run("circuit", trace,
                                                policy.get(), ec);
}

// The wall ns each kAssignmentComputed event carries, in emission order.
std::vector<double> ReplanNs(const MemorySink& sink) {
  std::vector<double> ns;
  for (const Event& e : sink.events())
    if (e.type == EventType::kAssignmentComputed) ns.push_back(e.value);
  return ns;
}

TEST(ProfilerTest, ReplayPhaseTreeSumsToTheReplayTotal) {
  // Every engine phase (engine.plan included) is a true scope nested under
  // engine.replay, so the self times of a serial replay partition its
  // inclusive total. A phase recorded flat beside its nested children
  // would count planning twice and overshoot.
  GlobalMetrics().Reset();
  ReplayCircuit();
  const MetricsRegistry merged = GlobalMetrics().Merged();
  const PhaseStats* replay = merged.FindPhase("engine.replay");
  ASSERT_NE(replay, nullptr);
  ASSERT_NE(merged.FindPhase("engine.plan"), nullptr);
  ASSERT_NE(merged.FindPhase("core.plan"), nullptr);
  double self_sum = 0;
  for (const ProfileRow& row : merged.PhaseRows())
    self_sum += row.stats.self_ns;
  EXPECT_LE(self_sum, 1.05 * replay->total_ns);
}

TEST(ProfilerTest, PacketReplayScopesCountEachAllocation) {
  // One Aalo replay is one kernel replay; every reallocation is one
  // packet.allocate, every span one packet.advance, and both run inside
  // the span the driver times as engine.execute.
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 20;
  cfg.num_ports = 12;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto aalo = packet::MakeAaloAllocator();
  GlobalMetrics().Reset();
  const packet::PacketReplayResult result =
      packet::ReplayPacketTrace(trace, *aalo, packet::PacketReplayConfig{});
  const MetricsRegistry merged = GlobalMetrics().Merged();
  const PhaseStats* replay = merged.FindPhase("engine.replay");
  const PhaseStats* execute = merged.FindPhase("engine.execute");
  const PhaseStats* allocate = merged.FindPhase("packet.allocate");
  const PhaseStats* advance = merged.FindPhase("packet.advance");
  ASSERT_NE(replay, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(allocate, nullptr);
  ASSERT_NE(advance, nullptr);
  EXPECT_EQ(replay->count, 1u);
  EXPECT_GT(result.reschedules, 0u);
  EXPECT_EQ(allocate->count, result.reschedules);
  EXPECT_GE(advance->count, result.reschedules);
  EXPECT_GE(execute->total_ns, allocate->total_ns + advance->total_ns);
}

TEST(ProfilerTest, EnginePlanScopeIsTheOneReplanClock) {
  // Each replan is timed once: the engine.plan scope's ns are also what
  // kAssignmentComputed and scheduler.compute_ns carry, summed in the same
  // order, so the three totals agree bit for bit.
  GlobalMetrics().Reset();
  MemorySink sink;
  const engine::EngineResult result = ReplayCircuit(&sink);
  const MetricsRegistry merged = GlobalMetrics().Merged();
  const PhaseStats* plan = merged.FindPhase("engine.plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->count, result.replans);
  double event_sum = 0;
  for (const double ns : ReplanNs(sink)) event_sum += ns;
  EXPECT_EQ(plan->total_ns, event_sum);
  const Histogram* compute = merged.FindHistogram("scheduler.compute_ns");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(plan->total_ns, compute->sum());
}

TEST(ProfilerTest, DisabledProfilingStillTimesEachReplan) {
  GlobalMetrics().Reset();
  SetProfilingEnabled(false);
  MemorySink sink;
  const engine::EngineResult result = ReplayCircuit(&sink);
  SetProfilingEnabled(true);
  EXPECT_TRUE(GlobalMetrics().Merged().PhaseRows().empty());
  const std::vector<double> ns = ReplanNs(sink);
  ASSERT_GT(result.replans, 0u);
  EXPECT_EQ(ns.size(), result.replans);
  for (const double v : ns) EXPECT_GT(v, 0);
}

TEST(ProfilerTest, MeasuredScopeReportsItsNsWhenDisabled) {
  GlobalMetrics().Reset();
  double enabled_ns = 0, disabled_ns = 0;
  {
    ProfileScope scope("test.measured", &enabled_ns);
    SpinFor(std::chrono::microseconds(50));
  }
  SetProfilingEnabled(false);
  {
    ProfileScope scope("test.measured", &disabled_ns);
    SpinFor(std::chrono::microseconds(50));
  }
  SetProfilingEnabled(true);
  const MetricsRegistry merged = GlobalMetrics().Merged();
  const PhaseStats* phase = merged.FindPhase("test.measured");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->count, 1u);  // the disabled scope recorded nothing
  EXPECT_EQ(phase->total_ns, enabled_ns);
  EXPECT_GE(enabled_ns, 50e3);
  EXPECT_GE(disabled_ns, 50e3);
}

TEST(ProfilerTest, MergedRowsSkipPhasesNotEnteredSinceReset) {
  // Reset() keeps registrations, so a phase entered before it is still in
  // every shard's map; the merged rows must list only what ran since.
  { ProfileScope before("test.before_reset"); }
  GlobalMetrics().Reset();
  { ProfileScope after("test.after_reset"); }
  const std::vector<ProfileRow> rows = GlobalMetrics().Merged().PhaseRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "test.after_reset");
  EXPECT_EQ(rows[0].stats.count, 1u);
}

TEST(ProfilerTest, MergeFromIsCommutative) {
  PhaseStats a{.count = 2, .total_ns = 100, .self_ns = 80, .max_ns = 60};
  PhaseStats b{.count = 3, .total_ns = 50, .self_ns = 50, .max_ns = 30};
  PhaseStats ab = a, ba = b;
  ab.MergeFrom(b);
  ba.MergeFrom(a);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_DOUBLE_EQ(ab.total_ns, ba.total_ns);
  EXPECT_DOUBLE_EQ(ab.self_ns, ba.self_ns);
  EXPECT_DOUBLE_EQ(ab.max_ns, ba.max_ns);
  EXPECT_EQ(ab.count, 5u);
  EXPECT_DOUBLE_EQ(ab.max_ns, 60);
}

TEST(ProfilerTest, CalibrationIsPositiveAndSane) {
  const double ns = CalibrateScopeCostNs();
  EXPECT_GT(ns, 0);
  EXPECT_LT(ns, 1e6);  // a scope must cost well under a millisecond
}

TEST(JsonTest, RoundTripsDocuments) {
  const std::string text =
      "{\"a\":[1,2.5,true,null,\"s\\u00e9\"],\"b\":{\"nested\":-3e2}}";
  const JsonValue v = JsonValue::Parse(text);
  EXPECT_EQ(v.at("a").AsArray().size(), 5u);
  EXPECT_DOUBLE_EQ(v.at("b").at("nested").AsNumber(), -300.0);
  EXPECT_EQ(JsonValue::Parse(v.ToString()), v);
  EXPECT_EQ(JsonValue::Parse(v.ToString(2)), v);  // pretty-print too
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::Parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("[1,2"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse(""), std::runtime_error);
}

TEST(ManifestTest, JsonRoundTripPreservesEveryField) {
  GlobalMetrics().Reset();
  PhaseStats& phase = GlobalMetrics().GetPhase("test.phase");
  phase.count = 1;
  phase.total_ns = phase.self_ns = phase.max_ns = 4200.0;
  GlobalMetrics().GetCounter("test.counter").Increment();

  const char* argv[] = {"profiler_test", "--coflows=80"};
  RunManifest m = RunManifest::Begin("profiler_test", 2, argv);
  m.seed = 20161212;
  m.threads = 8;
  m.extra["replans_per_sec_best"] = 1234.5;
  m.Finalize();

  EXPECT_GT(m.wall_ns, 0);
  EXPECT_GT(m.profile_ns_per_scope, 0);
  ASSERT_EQ(m.profile.size(), 1u);
  EXPECT_EQ(m.profile[0].name, "test.phase");

  const JsonValue j = m.ToJson();
  EXPECT_EQ(j.at("schema").AsString(), kRunManifestSchema);
  EXPECT_EQ(j.at("tool").AsString(), "profiler_test");
  EXPECT_EQ(j.at("argv").AsArray().size(), 2u);
  EXPECT_TRUE(j.at("profile").at("phases").Find("test.phase") != nullptr);

  const RunManifest back = RunManifest::FromJson(j);
  EXPECT_EQ(back.tool, m.tool);
  EXPECT_EQ(back.argv, m.argv);
  EXPECT_EQ(back.git_sha, m.git_sha);
  EXPECT_EQ(back.git_dirty, m.git_dirty);
  EXPECT_EQ(back.seed, m.seed);
  EXPECT_EQ(back.threads, m.threads);
  EXPECT_DOUBLE_EQ(back.wall_ns, m.wall_ns);
  EXPECT_EQ(back.peak_rss_kb, m.peak_rss_kb);
  EXPECT_DOUBLE_EQ(back.extra.at("replans_per_sec_best"), 1234.5);
  ASSERT_EQ(back.profile.size(), 1u);
  EXPECT_DOUBLE_EQ(back.profile[0].stats.total_ns, 4200.0);
  EXPECT_EQ(back.metrics.size(), m.metrics.size());
  // The round trip is exact: re-serialization is byte-identical.
  EXPECT_EQ(back.ToJson().ToString(), j.ToString());
}

TEST(ManifestTest, WriteFileThenParseFile) {
  RunManifest m = RunManifest::Begin("profiler_test", 0, nullptr);
  m.Finalize();
  const std::string path = ::testing::TempDir() + "manifest_roundtrip.json";
  m.WriteFile(path);
  const JsonValue j = JsonValue::ParseFile(path);
  EXPECT_EQ(j.at("schema").AsString(), kRunManifestSchema);
  EXPECT_EQ(j.at("tool").AsString(), "profiler_test");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sunflow::obs
