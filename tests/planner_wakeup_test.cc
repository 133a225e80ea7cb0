// Tests for the event-indexed wakeup planner (ScheduleOne) and the
// InterCoflow loop built on it (ScheduleAll).
//
// ScheduleOne is differentially tested against ScheduleOneRescan, the
// paper-literal release-chain walk it replaced (both drive one shared
// reservation step): over randomized port counts, orderings, δ values,
// quantization, established circuits and K-plane fabrics, both paths must
// produce bit-identical reservations, flow finishes and completion times.
// Each differential also plans with a trace sink attached, the one input
// ScheduleOne's loop branches on: untraced, a flow blocked by a busy port
// waits in that port's queue, and traced it is retried at every release
// of that port. A dedicated regression test pins the retry-order
// contract: flows woken at the same instant are retried in their original
// Ordered() positions, never in heap-arrival order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sunflow.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace sunflow {
namespace {

void ExpectReservationsEqual(const std::vector<CircuitReservation>& a,
                             const std::vector<CircuitReservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].in, b[i].in) << "i=" << i;
    EXPECT_EQ(a[i].out, b[i].out) << "i=" << i;
    EXPECT_EQ(a[i].start, b[i].start) << "i=" << i;
    EXPECT_EQ(a[i].end, b[i].end) << "i=" << i;
    EXPECT_EQ(a[i].setup, b[i].setup) << "i=" << i;
    EXPECT_EQ(a[i].coflow, b[i].coflow) << "i=" << i;
    EXPECT_EQ(a[i].plane, b[i].plane) << "i=" << i;
  }
}

void ExpectSchedulesEqual(const SunflowSchedule& a, const SunflowSchedule& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.reservation_count, b.reservation_count);
  ExpectReservationsEqual(a.reservations, b.reservations);
}

// Plans every request three ways on three planners of one config:
// untraced ScheduleOne, ScheduleOne with a MemorySink attached, and the
// rescan oracle. All three must return the same finishes and leave the
// same reservations, plane included.
class ThreeWayPlan {
 public:
  ThreeWayPlan(PortId ports, const SunflowConfig& cfg)
      : fast_(ports, cfg), traced_(ports, cfg), oracle_(ports, cfg) {
    traced_.SetTraceSink(&sink_);
  }

  void SetEstablished(const EstablishedCircuits& circuits, Time at) {
    for (SunflowPlanner* p : {&fast_, &traced_, &oracle_})
      p->SetEstablishedCircuits(circuits, at);
  }
  void SetEstablishedByPlane(const FabricEstablished& circuits, Time at) {
    for (SunflowPlanner* p : {&fast_, &traced_, &oracle_})
      p->SetEstablishedCircuitsByPlane(circuits, at);
  }

  void Plan(const PlanRequest& req, const std::string& where) {
    const Time want = oracle_.ScheduleOneRescan(req, want_);
    EXPECT_EQ(fast_.ScheduleOne(req, got_), want) << where;
    EXPECT_EQ(traced_.ScheduleOne(req, traced_out_), want)
        << where << " (traced)";
  }

  void ExpectAllEqual() const {
    ExpectSchedulesEqual(got_, want_);
    ExpectSchedulesEqual(traced_out_, want_);
    ExpectReservationsEqual(fast_.prt().reservations(),
                            oracle_.prt().reservations());
    ExpectReservationsEqual(traced_.prt().reservations(),
                            oracle_.prt().reservations());
  }

 private:
  obs::MemorySink sink_;
  SunflowPlanner fast_;
  SunflowPlanner traced_;
  SunflowPlanner oracle_;
  SunflowSchedule got_, traced_out_, want_;
};

PlanRequest RandomRequest(Rng& rng, PortId ports, CoflowId id, Time start) {
  PlanRequest req;
  req.coflow = id;
  req.start = start;
  const int flows = rng.UniformInt(1, 14);
  for (int f = 0; f < flows; ++f) {
    FlowDemand d;
    d.src = static_cast<PortId>(rng.UniformInt(0, ports - 1));
    d.dst = static_cast<PortId>(rng.UniformInt(0, ports - 1));
    // Occasional zero-demand flows (skipped by both paths) and heavy
    // duplicates of (src, dst) pairs to force port contention.
    d.processing = rng.Uniform(0, 1) < 0.1 ? 0.0 : rng.Uniform(0.01, 2.0);
    req.demand.push_back(d);
  }
  return req;
}

// Sets `*quantum` to the step a trial rounds its demand up to (0 = none);
// Quantized applies it.
SunflowConfig RandomConfig(Rng& rng, Time* quantum) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;  // processing times are given directly
  static constexpr Time kDeltas[] = {0.0, 1e-4, 0.01, 0.4};
  cfg.delta = kDeltas[rng.UniformInt(0, 3)];
  static constexpr ReservationOrder kOrders[] = {
      ReservationOrder::kOrderedPort, ReservationOrder::kRandom,
      ReservationOrder::kSortedDemandDesc, ReservationOrder::kSortedDemandAsc};
  cfg.order = kOrders[rng.UniformInt(0, 3)];
  cfg.shuffle_seed = rng.NextU64();
  *quantum = rng.Uniform(0, 1) < 0.3 ? 0.05 : 0.0;
  return cfg;
}

// Rounds every processing time up to a multiple of `quantum` (0 = none),
// so whole release clusters finish at once.
PlanRequest Quantized(PlanRequest req, Time quantum) {
  if (quantum > 0) {
    for (FlowDemand& f : req.demand)
      f.processing = std::ceil(f.processing / quantum) * quantum;
  }
  return req;
}

// ScheduleOne must be bit-identical to the rescan oracle on randomized
// multi-coflow workloads sharing one PRT.
TEST(PlannerWakeup, DifferentialAgainstRescanOracle) {
  Rng rng(4711);
  for (int trial = 0; trial < 120; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(2, 10));
    Time quantum = 0;
    const SunflowConfig cfg = RandomConfig(rng, &quantum);
    ThreeWayPlan plan(ports, cfg);
    Time t = rng.Uniform(0, 5.0);
    const int coflows = rng.UniformInt(1, 5);
    for (CoflowId id = 0; id < coflows; ++id) {
      plan.Plan(Quantized(RandomRequest(rng, ports, id, t), quantum),
                "trial=" + std::to_string(trial) +
                    " coflow=" + std::to_string(id));
      if (rng.Uniform(0, 1) < 0.5) t += rng.Uniform(0, 1.0);
    }
    plan.ExpectAllEqual();
  }
}

// Same differential with established circuits declared at the plan start
// (the replay engine's carry-over), so some reservations get setup == 0.
TEST(PlannerWakeup, DifferentialWithEstablishedCircuits) {
  Rng rng(815);
  for (int trial = 0; trial < 60; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(2, 8));
    Time quantum = 0;
    const SunflowConfig cfg = RandomConfig(rng, &quantum);
    const Time t0 = rng.Uniform(0, 3.0);
    EstablishedCircuits circuits;
    for (PortId p = 0; p < ports; ++p) {
      if (rng.Uniform(0, 1) < 0.5) {
        circuits[p] = static_cast<PortId>(rng.UniformInt(0, ports - 1));
      }
    }
    ThreeWayPlan plan(ports, cfg);
    plan.SetEstablished(circuits, t0);
    const int coflows = rng.UniformInt(1, 4);
    for (CoflowId id = 0; id < coflows; ++id) {
      plan.Plan(Quantized(RandomRequest(rng, ports, id, t0), quantum),
                "trial=" + std::to_string(trial));
    }
    plan.ExpectAllEqual();
  }
}

// The same differential on K-plane fabrics: K in {1, 2, 3} planes, each
// with its own delta (the config's delta scaled by [0.5, 2]) and rate, and
// per-plane established circuits at the request start. Both loops must
// give a flow at most one circuit at a time: a free plane must not hand a
// flow a second circuit while its own truncated reservation still runs.
TEST(PlannerWakeup, DifferentialOnKPlaneFabrics) {
  Rng rng(1212);
  static constexpr Bandwidth kRates[] = {0.25, 0.5, 1.0, 2.0};
  for (int trial = 0; trial < 300; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(2, 8));
    Time quantum = 0;
    SunflowConfig cfg = RandomConfig(rng, &quantum);
    const int planes = rng.UniformInt(1, 3);
    for (int p = 0; p < planes; ++p) {
      cfg.fabric.planes.push_back(
          {cfg.delta * rng.Uniform(0.5, 2.0), kRates[rng.UniformInt(0, 3)]});
    }
    const Time t0 = rng.Uniform(0, 3.0);
    FabricEstablished circuits(static_cast<std::size_t>(planes));
    for (EstablishedCircuits& plane : circuits) {
      for (PortId p = 0; p < ports; ++p) {
        if (rng.Uniform(0, 1) < 0.5)
          plane[p] = static_cast<PortId>(rng.UniformInt(0, ports - 1));
      }
    }
    ThreeWayPlan plan(ports, cfg);
    plan.SetEstablishedByPlane(circuits, t0);
    const int coflows = rng.UniformInt(1, 4);
    for (CoflowId id = 0; id < coflows; ++id) {
      plan.Plan(Quantized(RandomRequest(rng, ports, id, t0), quantum),
                "trial=" + std::to_string(trial) +
                    " planes=" + std::to_string(planes));
    }
    plan.ExpectAllEqual();
  }
}

// One wide coflow of 100-300 flows in `shape`: O2M (one sender), M2O (one
// receiver) or M2M (both sides spread over the ports). Processing times
// come from a small grid, so many flows share one exact release instant,
// and about one in five is nudged by a sub-ε amount, so some releases fall
// within kTimeEps of each other.
enum class Shape { kO2M, kM2O, kM2M };

PlanRequest WideRequest(Rng& rng, PortId ports, Shape shape, CoflowId id,
                        Time start) {
  static constexpr Time kGrid[] = {0.05, 0.1, 0.2, 0.4};
  PlanRequest req;
  req.coflow = id;
  req.start = start;
  const auto any_port = [&] {
    return static_cast<PortId>(rng.UniformInt(0, ports - 1));
  };
  const PortId hub = any_port();
  const int flows = static_cast<int>(rng.UniformInt(100, 300));
  for (int f = 0; f < flows; ++f) {
    FlowDemand d;
    d.src = shape == Shape::kO2M ? hub : any_port();
    d.dst = shape == Shape::kM2O ? hub : any_port();
    d.processing = kGrid[rng.UniformInt(0, 3)];
    if (rng.Uniform(0, 1) < 0.2)
      d.processing += static_cast<Time>(rng.UniformInt(1, 3)) * 3e-10;
    req.demand.push_back(d);
  }
  return req;
}

// The differentials above draw at most 14 flows on at most 10 ports, so a
// wakeup instant wakes 2-3 flows on average and almost never takes more
// than one bucket. Here 2-4 wide coflows share one PRT on 16-40 ports and
// K in {1, 2} planes: an instant wakes about 50 flows on average, and
// about 6% of instants take several buckets whose instants lie within ε.
TEST(PlannerWakeup, DifferentialOnWideCoflows) {
  Rng rng(9091);
  static constexpr Shape kShapes[] = {Shape::kO2M, Shape::kM2O, Shape::kM2M};
  static constexpr Bandwidth kRates[] = {0.5, 1.0, 2.0};
  for (int trial = 0; trial < 24; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(16, 40));
    Time quantum = 0;
    SunflowConfig cfg = RandomConfig(rng, &quantum);
    const int planes = static_cast<int>(rng.UniformInt(1, 2));
    if (planes == 2) {
      for (int p = 0; p < planes; ++p) {
        cfg.fabric.planes.push_back(
            {cfg.delta, kRates[rng.UniformInt(0, 2)]});
      }
    }
    ThreeWayPlan plan(ports, cfg);
    Time t = 0.1 * static_cast<Time>(rng.UniformInt(0, 10));
    const int coflows = static_cast<int>(rng.UniformInt(2, 4));
    for (CoflowId id = 0; id < coflows; ++id) {
      const Shape shape = kShapes[rng.UniformInt(0, 2)];
      plan.Plan(Quantized(WideRequest(rng, ports, shape, id, t), quantum),
                "trial=" + std::to_string(trial) +
                    " coflow=" + std::to_string(id) +
                    " planes=" + std::to_string(planes));
      if (rng.Uniform(0, 1) < 0.5)
        t += 0.05 * static_cast<Time>(rng.UniformInt(1, 4));
    }
    plan.ExpectAllEqual();
  }
}

// ISSUE contract: flows woken at the same release instant must be retried
// in their original Ordered() positions. Four flows contend for one output
// port under kSortedDemandDesc, so the Ordered() permutation (by demand,
// descending) differs from both the declaration order and the (src, dst)
// order; the serialization on the shared port must follow the permutation.
TEST(PlannerWakeup, RetryOrderReplaysOrderedSequence) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.delta = 0.1;
  cfg.order = ReservationOrder::kSortedDemandDesc;
  SunflowPlanner planner(6, cfg);
  PlanRequest req;
  req.coflow = 1;
  req.start = 0;
  // Declared in ascending-demand order; Ordered() reverses it.
  req.demand = {{4, 0, 0.5}, {3, 0, 1.0}, {2, 0, 2.0}, {1, 0, 3.0}};
  SunflowSchedule schedule;
  planner.ScheduleOne(req, schedule);

  // Reservations land on the PRT in creation order (the schedule's own
  // reservation list is filled by ScheduleAll, not ScheduleOne).
  const auto& created = planner.prt().reservations();
  ASSERT_EQ(created.size(), 4u);
  const PortId want_src[] = {1, 2, 3, 4};
  const Time want_start[] = {0.0, 3.1, 5.2, 6.3};
  const Time want_end[] = {3.1, 5.2, 6.3, 6.9};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(created[i].in, want_src[i]) << "i=" << i;
    EXPECT_NEAR(created[i].start, want_start[i], 1e-12);
    EXPECT_NEAR(created[i].end, want_end[i], 1e-12);
  }

  // And the oracle agrees bit-for-bit.
  SunflowPlanner oracle(6, cfg);
  SunflowSchedule want;
  oracle.ScheduleOneRescan(req, want);
  ExpectSchedulesEqual(schedule, want);
  ExpectReservationsEqual(created, oracle.prt().reservations());
}

// k flows queued on one port: untraced, each release of the port retries
// only the waiter that then takes it, so the walk makes k first tries and
// k - 1 retries. A traced walk retries every waiter at every release
// (each retry feeds the blocked episodes), k(k+1)/2 tries in all, and
// must reserve the same circuits.
TEST(PlannerWakeup, QueuedFlowsRetryOncePerPortRelease) {
  constexpr int kFlows = 150;
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.delta = 0.01;
  obs::Counter& tries = obs::GlobalMetrics().GetCounter("plan.tries");
  for (const Shape shape : {Shape::kO2M, Shape::kM2O}) {
    SCOPED_TRACE(shape == Shape::kO2M ? "O2M" : "M2O");
    PlanRequest req;
    req.coflow = 7;
    req.start = 0.5;
    for (PortId leaf = 1; leaf <= kFlows; ++leaf) {
      const Time p = 0.1 + 0.001 * static_cast<Time>(leaf % 7);
      req.demand.push_back(shape == Shape::kO2M ? FlowDemand{0, leaf, p}
                                                : FlowDemand{leaf, 0, p});
    }
    SunflowPlanner untraced(kFlows + 1, cfg);
    SunflowSchedule got;
    std::uint64_t before = tries.value();
    const Time finish = untraced.ScheduleOne(req, got);
    EXPECT_LE(tries.value() - before, 2u * kFlows);

    obs::MemorySink sink;
    SunflowPlanner traced(kFlows + 1, cfg);
    traced.SetTraceSink(&sink);
    SunflowSchedule want;
    before = tries.value();
    EXPECT_EQ(traced.ScheduleOne(req, want), finish);
    EXPECT_EQ(tries.value() - before, kFlows * (kFlows + 1) / 2u);
    ExpectSchedulesEqual(got, want);
    ASSERT_EQ(untraced.prt().reservations().size(),
              static_cast<std::size_t>(kFlows));
    ExpectReservationsEqual(untraced.prt().reservations(),
                            traced.prt().reservations());
  }
}

// A flow truncated 1.5 ns short on a plane at half the config bandwidth
// keeps more than ε of transmit time there, but on a plane at twice the
// bandwidth that remainder takes 0.375 ns. It finishes at its truncated
// reservation's end instead of reserving an empty circuit, in both loops.
TEST(PlannerWakeup, SubEpsilonRemainderOnFasterPlaneFinishesThere) {
  SunflowConfig cfg;
  cfg.bandwidth = 1.0;
  cfg.delta = 0;
  cfg.fabric.planes = {{0.0, 0.5}, {0.0, 2.0}};
  const Time cut = 2 - 1.5e-9;
  const PlanRequest later{1, cut, {{0, 1, 1.0}}};
  const PlanRequest earlier{2, 0, {{0, 1, 1.0}}};
  for (const bool rescan : {false, true}) {
    SCOPED_TRACE(rescan ? "rescan" : "event-indexed");
    SunflowPlanner planner(2, cfg);
    SunflowSchedule out;
    const auto plan = [&](const PlanRequest& req) {
      return rescan ? planner.ScheduleOneRescan(req, out)
                    : planner.ScheduleOne(req, out);
    };
    plan(later);
    EXPECT_EQ(plan(earlier), cut);
    EXPECT_EQ(out.completion_time.at(2), cut);
    EXPECT_EQ(out.reservation_count.at(2), 1);
    const auto& created = planner.prt().reservations();
    ASSERT_EQ(created.size(), 2u);
    EXPECT_EQ(created[1].coflow, 2);
    EXPECT_EQ(created[1].plane, 0);
    EXPECT_EQ(created[1].start, 0);
    EXPECT_EQ(created[1].end, cut);
  }
}

// InterCoflow is a plain loop of IntraCoflow calls on one PRT: ScheduleAll
// over N requests must equal N sequential ScheduleOne calls on a fresh
// planner, and repeating the ScheduleAll on another fresh planner must
// reproduce it bit for bit — no plan state survives across planners.
TEST(PlannerWakeup, ScheduleAllEqualsSequentialScheduleOne) {
  Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    const auto ports = static_cast<PortId>(rng.UniformInt(2, 10));
    Time quantum = 0;
    const SunflowConfig cfg = RandomConfig(rng, &quantum);
    const Time start = rng.Uniform(0, 5.0);
    EstablishedCircuits circuits;
    if (rng.Uniform(0, 1) < 0.5) {
      for (PortId p = 0; p < ports; ++p) {
        if (rng.Uniform(0, 1) < 0.5)
          circuits[p] = static_cast<PortId>(rng.UniformInt(0, ports - 1));
      }
    }
    std::vector<PlanRequest> reqs;
    const int coflows = rng.UniformInt(1, 6);
    for (CoflowId id = 0; id < coflows; ++id)
      reqs.push_back(
          Quantized(RandomRequest(rng, ports, id, start), quantum));

    std::vector<const PlanRequest*> pointers;
    for (const PlanRequest& r : reqs) pointers.push_back(&r);
    SunflowPlanner all(ports, cfg);
    all.SetEstablishedCircuits(circuits, start);
    const SunflowSchedule got = all.ScheduleAll(pointers);

    SunflowPlanner seq(ports, cfg);
    seq.SetEstablishedCircuits(circuits, start);
    SunflowSchedule want;
    for (const PlanRequest& req : reqs) seq.ScheduleOne(req, want);
    want.reservations = seq.prt().reservations();
    ExpectSchedulesEqual(got, want);

    SunflowPlanner again(ports, cfg);
    again.SetEstablishedCircuits(circuits, start);
    ExpectSchedulesEqual(again.ScheduleAll(pointers), got);
  }
}

}  // namespace
}  // namespace sunflow
