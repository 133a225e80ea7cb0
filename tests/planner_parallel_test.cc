// Intra-replan parallel planning (core/components.h,
// ScheduleRequestsParallel): the pool must change wall-clock only, never
// output. Every test here compares the parallel path against the serial
// planner.ScheduleAll oracle with EXACT equality — same doubles, same
// reservation stream, same insertion order — because the engine goldens
// are byte-diffed across --threads values and any drift here would
// surface there.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/components.h"
#include "core/policy.h"
#include "core/sunflow.h"
#include "runtime/thread_pool.h"
#include "sim/engine/scenario.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

SunflowConfig Config() {
  SunflowConfig c;
  c.bandwidth = Gbps(1);
  c.delta = Millis(10);
  return c;
}

// Random request set over `clusters` port-disjoint clusters of 4 ports
// each; every request stays inside one cluster, so the union-find yields
// one group per populated cluster.
std::vector<PlanRequest> RandomClusteredRequests(Rng& rng, int clusters,
                                                 int num_requests) {
  std::vector<PlanRequest> reqs;
  for (int i = 0; i < num_requests; ++i) {
    PlanRequest req;
    req.coflow = i + 1;
    req.start = 0;
    const PortId base =
        static_cast<PortId>(4 * rng.UniformInt(0, clusters - 1));
    const int flows = 1 + static_cast<int>(rng.UniformInt(0, 4));
    for (int f = 0; f < flows; ++f) {
      const PortId s = base + static_cast<PortId>(rng.UniformInt(0, 1));
      const PortId d = base + static_cast<PortId>(rng.UniformInt(2, 3));
      bool dup = false;
      for (const auto& e : req.demand)
        if (e.src == s && e.dst == d) dup = true;
      if (!dup) req.demand.push_back({s, d, rng.Uniform(0.001, 0.2)});
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

std::vector<const PlanRequest*> Ptrs(const std::vector<PlanRequest>& reqs) {
  std::vector<const PlanRequest*> out;
  for (const auto& r : reqs) out.push_back(&r);
  return out;
}

void ExpectExactlyEqual(const SunflowSchedule& a, const SunflowSchedule& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.flow_finish, b.flow_finish);
  EXPECT_EQ(a.reservation_count, b.reservation_count);
  ASSERT_EQ(a.reservations.size(), b.reservations.size());
  for (std::size_t i = 0; i < a.reservations.size(); ++i) {
    const CircuitReservation& x = a.reservations[i];
    const CircuitReservation& y = b.reservations[i];
    EXPECT_EQ(x.in, y.in) << "reservation " << i;
    EXPECT_EQ(x.out, y.out) << "reservation " << i;
    EXPECT_EQ(x.start, y.start) << "reservation " << i;
    EXPECT_EQ(x.end, y.end) << "reservation " << i;
    EXPECT_EQ(x.setup, y.setup) << "reservation " << i;
    EXPECT_EQ(x.coflow, y.coflow) << "reservation " << i;
  }
}

TEST(PlannerParallel, MatchesSerialScheduleAllExactly) {
  Rng rng(42);
  runtime::ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    const int clusters = 2 + static_cast<int>(rng.UniformInt(0, 4));
    const auto reqs = RandomClusteredRequests(
        rng, clusters, 3 + static_cast<int>(rng.UniformInt(0, 12)));
    const PortId ports = static_cast<PortId>(4 * clusters);

    SunflowPlanner serial(ports, Config());
    const SunflowSchedule want = serial.ScheduleAll(Ptrs(reqs));

    SunflowPlanner parallel(ports, Config());
    const SunflowSchedule got =
        ScheduleRequestsParallel(parallel, Ptrs(reqs), &pool);

    ExpectExactlyEqual(got, want);
    // The target planner's PRT must hold the merged stream in the same
    // insertion order as serial planning left it.
    ASSERT_EQ(parallel.prt().reservations().size(),
              serial.prt().reservations().size());
    parallel.prt().CheckInvariants();
  }
}

TEST(PlannerParallel, DeterministicAcrossPoolSizes) {
  Rng rng(7);
  const auto reqs = RandomClusteredRequests(rng, 4, 12);
  std::vector<SunflowSchedule> results;
  for (const int threads : {1, 2, 8}) {
    runtime::ThreadPool pool(threads);
    SunflowPlanner planner(16, Config());
    results.push_back(ScheduleRequestsParallel(planner, Ptrs(reqs), &pool));
  }
  ExpectExactlyEqual(results[1], results[0]);
  ExpectExactlyEqual(results[2], results[0]);
}

TEST(PlannerParallel, GroupsFollowPortFootprints) {
  // Two disjoint clusters plus one cross-cluster coflow welding them: the
  // weld forces those requests into one group, but the third cluster
  // still plans apart. Output must stay exact either way.
  std::vector<PlanRequest> reqs;
  reqs.push_back({1, 0, {{0, 2, 0.05}}});
  reqs.push_back({2, 0, {{4, 6, 0.05}}});
  reqs.push_back({3, 0, {{0, 6, 0.05}}});   // welds clusters 0 and 1
  reqs.push_back({4, 0, {{8, 10, 0.05}}});  // its own group
  runtime::ThreadPool pool(4);

  SunflowPlanner serial(12, Config());
  const SunflowSchedule want = serial.ScheduleAll(Ptrs(reqs));
  SunflowPlanner parallel(12, Config());
  const SunflowSchedule got =
      ScheduleRequestsParallel(parallel, Ptrs(reqs), &pool);
  ExpectExactlyEqual(got, want);
}

TEST(PlannerParallel, FallsBackWhenPreconditionsFail) {
  Rng rng(11);
  const auto reqs = RandomClusteredRequests(rng, 3, 8);
  runtime::ThreadPool pool(4);

  SunflowPlanner oracle(12, Config());
  const SunflowSchedule want = oracle.ScheduleAll(Ptrs(reqs));

  {
    // Null pool → serial path, same output.
    SunflowPlanner p(12, Config());
    ExpectExactlyEqual(ScheduleRequestsParallel(p, Ptrs(reqs), nullptr), want);
  }
  {
    // A reservation callback must observe the stream in planning order, so
    // the parallel path declines; output is unchanged and the callback
    // fires once per reservation.
    SunflowPlanner p(12, Config());
    std::size_t fired = 0;
    p.SetReservationCallback([&](const CircuitReservation&) { ++fired; });
    ExpectExactlyEqual(ScheduleRequestsParallel(p, Ptrs(reqs), &pool), want);
    EXPECT_EQ(fired, want.reservations.size());
  }
  {
    // Non-empty PRT → the group planners could not reconstruct the prior
    // state, so the call must route through serial ScheduleAll.
    SunflowPlanner p(12, Config());
    SunflowSchedule scratch;
    PlanRequest occupant{99, 0, {{0, 2, 0.05}}};
    p.ScheduleOne(occupant, scratch);

    SunflowPlanner q(12, Config());
    SunflowSchedule scratch2;
    q.ScheduleOne(occupant, scratch2);
    const SunflowSchedule after = q.ScheduleAll(Ptrs(reqs));

    ExpectExactlyEqual(ScheduleRequestsParallel(p, Ptrs(reqs), &pool), after);
  }
  {
    // Duplicate coflow ids break the merge keying → serial fallback.
    std::vector<PlanRequest> dup = reqs;
    dup.push_back(dup.front());
    SunflowPlanner a(12, Config());
    const SunflowSchedule want_dup = a.ScheduleAll(Ptrs(dup));
    SunflowPlanner b(12, Config());
    ExpectExactlyEqual(ScheduleRequestsParallel(b, Ptrs(dup), &pool),
                       want_dup);
  }
}

TEST(PlannerParallel, EstablishedCircuitsCarryIntoGroups) {
  // A carried-over circuit in cluster 0 zeroes that pair's setup; the
  // group planner must replicate it even though cluster 1's group never
  // touches those ports.
  std::vector<PlanRequest> reqs;
  reqs.push_back({1, 1.0, {{0, 2, 0.05}}});
  reqs.push_back({2, 1.0, {{4, 6, 0.05}}});
  EstablishedCircuits established{{0, 2}};
  runtime::ThreadPool pool(4);

  SunflowPlanner serial(8, Config());
  serial.SetEstablishedCircuits(established, 1.0);
  const SunflowSchedule want = serial.ScheduleAll(Ptrs(reqs));
  // The carried circuit really must have zeroed the setup, or this test
  // isn't exercising the carry-over path at all.
  ASSERT_EQ(want.reservations.at(0).setup, 0.0);

  SunflowPlanner parallel(8, Config());
  parallel.SetEstablishedCircuits(established, 1.0);
  ExpectExactlyEqual(ScheduleRequestsParallel(parallel, Ptrs(reqs), &pool),
                     want);
}

TEST(PlannerParallel, EngineReplayIdenticalWithAndWithoutPool) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 30;
  cfg.num_ports = 32;
  cfg.seed = 20161212;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto policy = MakeShortestFirstPolicy();

  engine::EngineConfig serial_ec;
  serial_ec.sunflow = Config();
  const auto serial_result = engine::ScenarioRegistry::Global().Run(
      "circuit", trace, policy.get(), serial_ec);

  runtime::ThreadPool pool(8);
  engine::EngineConfig pooled_ec;
  pooled_ec.sunflow = Config();
  pooled_ec.plan_pool = &pool;
  const auto pooled_result = engine::ScenarioRegistry::Global().Run(
      "circuit", trace, policy.get(), pooled_ec);

  EXPECT_EQ(serial_result.cct, pooled_result.cct);
  EXPECT_EQ(serial_result.completion, pooled_result.completion);
  EXPECT_EQ(serial_result.reservations, pooled_result.reservations);
  EXPECT_EQ(serial_result.replans, pooled_result.replans);
}

TEST(PlannerParallel, NestedParallelForDoesNotDeadlock) {
  // Group planning runs inside a replay that may itself be a pool task
  // (exp/inter_runner fans replays over the same pool), so a waiting task
  // must steal queued work instead of blocking a worker slot. A pool
  // smaller than the total task fan-out deadlocks without stealing.
  runtime::ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(0, 4, [&](std::size_t) {
    pool.ParallelFor(0, 4, [&](std::size_t) {
      leaves.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(leaves.load(), 16);
}

}  // namespace
}  // namespace sunflow
