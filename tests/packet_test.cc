#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "packet/aalo.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"
#include "trace/generator.h"

namespace sunflow::packet {
namespace {

using sunflow::Coflow;
using sunflow::Flow;
using sunflow::Trace;

PacketReplayConfig VarysConfig() {
  PacketReplayConfig c;
  c.bandwidth = Gbps(1);
  return c;
}

// The allocator brings its own rescheduling rule, so Aalo's replay needs
// only the link rate too.
PacketReplayConfig AaloReplayConfig() { return VarysConfig(); }

// The CCT of `coflow` replayed alone from t = 0.
Time SingleCoflowCct(const Coflow& coflow, RateAllocator& allocator,
                     const PacketReplayConfig& config) {
  Trace trace;
  trace.num_ports = std::max<PortId>(coflow.max_port(), 1);
  trace.coflows.push_back(coflow.WithArrival(0));
  return ReplayPacketTrace(trace, allocator, config).cct.at(coflow.id());
}

TEST(Varys, SingleCoflowAchievesPacketLowerBound) {
  // MADD on an uncontended fabric finishes exactly at TpL.
  Rng rng(81);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 4));
    std::vector<Flow> flows;
    for (PortId s = 0; s < n; ++s)
      for (PortId d = 0; d < n; ++d)
        if (rng.Bernoulli(0.5)) flows.push_back({s, d, MB(rng.Uniform(1, 40))});
    if (flows.empty()) flows.push_back({0, 0, MB(5)});
    const Coflow c(1, 0, std::move(flows));
    auto varys = MakeVarysAllocator();
    const Time cct = SingleCoflowCct(c, *varys, VarysConfig());
    EXPECT_NEAR(cct, PacketLowerBound(c, Gbps(1)), 1e-6);
  }
}

TEST(Varys, ShortCoflowPreemptsLong) {
  // A huge coflow is underway; a tiny one arrives and must finish almost
  // as if alone (SEBF gives it priority).
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, GB(10)}}));
  trace.coflows.push_back(Coflow(2, 1.0, {{0, 1, MB(10)}}));
  auto varys = MakeVarysAllocator();
  const auto result = ReplayPacketTrace(trace, *varys, VarysConfig());
  EXPECT_NEAR(result.cct.at(2), MB(10) / Gbps(1), 1e-6);
  // The long coflow pays for the preemption.
  EXPECT_NEAR(result.cct.at(1), GB(10) / Gbps(1) + MB(10) / Gbps(1), 1e-6);
}

TEST(Varys, WorkConservingAcrossCoflows) {
  // Two coflows on disjoint ports run concurrently at full rate.
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{2, 3, MB(100)}}));
  auto varys = MakeVarysAllocator();
  const auto result = ReplayPacketTrace(trace, *varys, VarysConfig());
  EXPECT_NEAR(result.cct.at(1), MB(100) / Gbps(1), 1e-6);
  EXPECT_NEAR(result.cct.at(2), MB(100) / Gbps(1), 1e-6);
}

TEST(Varys, SharedPortSerializes) {
  // Same src port: SEBF serves the smaller first, the bigger waits.
  Trace trace;
  trace.num_ports = 3;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(100)}}));
  trace.coflows.push_back(Coflow(2, 0.0, {{0, 2, MB(50)}}));
  auto varys = MakeVarysAllocator();
  const auto result = ReplayPacketTrace(trace, *varys, VarysConfig());
  EXPECT_NEAR(result.cct.at(2), MB(50) / Gbps(1), 1e-6);
  EXPECT_NEAR(result.cct.at(1), MB(150) / Gbps(1), 1e-6);
}

TEST(Aalo, QueueIndexThresholds) {
  AaloConfig cfg;  // 10MB first limit, x10 spacing, 10 queues
  EXPECT_EQ(AaloQueueIndex(cfg, 0), 0);
  EXPECT_EQ(AaloQueueIndex(cfg, MB(9.99)), 0);
  EXPECT_EQ(AaloQueueIndex(cfg, MB(10)), 1);
  EXPECT_EQ(AaloQueueIndex(cfg, MB(99)), 1);
  EXPECT_EQ(AaloQueueIndex(cfg, MB(100)), 2);
  EXPECT_EQ(AaloQueueIndex(cfg, GB(1e6)), 9);  // clamped at last queue
}

TEST(Aalo, NextThreshold) {
  AaloConfig cfg;
  EXPECT_DOUBLE_EQ(AaloNextThreshold(cfg, 0), MB(10));
  EXPECT_DOUBLE_EQ(AaloNextThreshold(cfg, MB(10)), MB(100));
  EXPECT_TRUE(std::isinf(AaloNextThreshold(cfg, GB(1e9))));
}

TEST(Aalo, SingleCoflowCompletes) {
  const Coflow c(1, 0, {{0, 1, MB(30)}, {0, 2, MB(60)}, {1, 2, MB(90)}});
  auto aalo = MakeAaloAllocator();
  const Time cct = SingleCoflowCct(c, *aalo, AaloReplayConfig());
  // Equal split is work-conserving on a single coflow with backfill, so it
  // still lands on the packet lower bound here.
  EXPECT_GE(cct, PacketLowerBound(c, Gbps(1)) - 1e-6);
  EXPECT_LE(cct, 2 * PacketLowerBound(c, Gbps(1)) + 1e-6);
}

TEST(Aalo, NewSmallCoflowOutranksHeavyOne) {
  // After the big coflow has sent >10MB it drops to a lower-priority
  // queue; a newcomer (0 bytes attained) takes the bandwidth.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, GB(1)}}));
  trace.coflows.push_back(Coflow(2, 1.0, {{0, 1, MB(5)}}));
  auto aalo = MakeAaloAllocator();
  const auto result = ReplayPacketTrace(trace, *aalo, AaloReplayConfig());
  // Coflow 2 stays in queue 0 its whole life and finishes fast.
  EXPECT_NEAR(result.cct.at(2), MB(5) / Gbps(1), 1e-3);
}

TEST(Aalo, ReplayFollowsItsOwnQueueLimits) {
  // With a 1 MB first queue, coflow 1 (alone on 0->1 until coflow 2
  // arrives behind it in FIFO order) drops to queue 1 at 8 ms, so coflow 2
  // takes the port then and finishes 4 ms later. A replay that re-ranks at
  // the default 10 MB limit instead waits until 80 ms.
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(50)}}));
  trace.coflows.push_back(Coflow(2, Millis(1), {{0, 1, MB(0.5)}}));
  AaloConfig cfg;
  cfg.first_queue_limit = MB(1);
  auto aalo = MakeAaloAllocator(cfg);
  const auto result = ReplayPacketTrace(trace, *aalo, AaloReplayConfig());
  EXPECT_NEAR(result.cct.at(2), 0.011, 1e-9);
  // Arrivals at 0 and 1 ms, coflow 1 crossing 1 MB (8 ms) and 10 MB,
  // coflow 2 finishing at 12 ms.
  EXPECT_EQ(result.reschedules, 5u);
}

// ---- Aalo's wavefront order against trace order --------------------------

// The reference: Aalo's equal-share passes over each coflow's flows in
// trace order, with its contenders per port counted from the flows before
// each coflow's pass and taken back after it (`count_flows`), and every
// rate reset first. The coflows hold every trace flow, finished ones
// included. Any change to Aalo's rates must change this reference too.
struct RefCoflow {
  CoflowId id = -1;
  Time arrival = 0;
  Bytes sent = 0;
  std::vector<FlowState> flows;
};

void ReferenceAalo(const AaloConfig& config, std::vector<RefCoflow>& active,
                   PortId num_ports, Bandwidth bandwidth) {
  struct Queued {
    int queue;
    RefCoflow* coflow;
  };
  std::vector<Queued> order;
  for (RefCoflow& c : active)
    order.push_back({AaloQueueIndex(config, c.sent), &c});
  std::stable_sort(order.begin(), order.end(),
                   [](const Queued& a, const Queued& b) {
                     if (a.queue != b.queue) return a.queue < b.queue;
                     if (a.coflow->arrival != b.coflow->arrival)
                       return a.coflow->arrival < b.coflow->arrival;
                     return a.coflow->id < b.coflow->id;
                   });
  for (RefCoflow& c : active)
    for (auto& f : c.flows) f.rate = 0;
  std::vector<int> in_count(static_cast<std::size_t>(num_ports), 0);
  std::vector<int> out_count(static_cast<std::size_t>(num_ports), 0);
  auto count_flows = [&](const RefCoflow& c, int delta) {
    for (const auto& f : c.flows) {
      if (f.done()) continue;
      in_count[static_cast<std::size_t>(f.src)] += delta;
      out_count[static_cast<std::size_t>(f.dst)] += delta;
    }
  };
  auto in_n = [&](PortId p) { return in_count[static_cast<std::size_t>(p)]; };
  auto out_n = [&](PortId p) {
    return out_count[static_cast<std::size_t>(p)];
  };
  auto equal_share = [&](RefCoflow& c, PortCapacity& cap) {
    count_flows(c, +1);
    for (auto& f : c.flows) {
      if (f.done()) continue;
      const Bandwidth share =
          std::min(cap.in(f.src) / in_n(f.src), cap.out(f.dst) / out_n(f.dst));
      if (share <= 1e-6) continue;
      f.rate += share;
      cap.Consume(f.src, f.dst, share);
    }
    count_flows(c, -1);
  };

  PortCapacity cap(num_ports, bandwidth);
  for (int pass = 0; pass < 2; ++pass)
    for (const Queued& q : order) equal_share(*q.coflow, cap);
}

// The reference drain: every flow with a rate moves rate × dt bytes (at
// most what it has left) into `sent`, in trace order.
void ReferenceDrain(RefCoflow& c, Time dt) {
  for (auto& f : c.flows) {
    if (f.rate <= 0 || f.done()) continue;
    const Bytes moved = std::min(f.remaining, f.rate * dt);
    f.remaining -= moved;
    c.sent += moved;
  }
}

// ActiveCoflow::RemainingTpl as it read before it called MaxPortSum: per
// port, the remaining bytes of the unfinished flows in trace order, then
// the largest load over the link rate.
Time ReferenceRemainingTpl(const std::vector<FlowState>& flows,
                           Bandwidth bandwidth) {
  PortId ports = 0;
  for (const auto& f : flows) ports = std::max({ports, f.src + 1, f.dst + 1});
  std::vector<Bytes> in_load(static_cast<std::size_t>(ports), 0);
  std::vector<Bytes> out_load(static_cast<std::size_t>(ports), 0);
  for (const auto& f : flows) {
    if (f.done()) continue;
    in_load[static_cast<std::size_t>(f.src)] += f.remaining;
    out_load[static_cast<std::size_t>(f.dst)] += f.remaining;
  }
  Bytes busiest = 0;
  for (Bytes v : in_load) busiest = std::max(busiest, v);
  for (Bytes v : out_load) busiest = std::max(busiest, v);
  return busiest / bandwidth;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The packet replay's port check over `active`: every positive rate into
// its ports' sums, coflow by coflow in trace order, then the limit.
void CheckPortRates(const std::vector<ActiveCoflow*>& active, PortId ports,
                    Bandwidth bandwidth) {
  PortRateSums sums;
  sums.Reset(ports);
  for (const ActiveCoflow* c : active)
    for (const FlowState& f : c->flows)
      if (f.rate > 0) sums.Add(f);
  sums.Check(bandwidth);
}

// The unfinished flows among `flows`, in trace order.
std::vector<const FlowState*> LiveFlows(const std::vector<FlowState>& flows) {
  std::vector<const FlowState*> live;
  for (const auto& f : flows)
    if (!f.done()) live.push_back(&f);
  return live;
}

// The counts equal a recount of the unfinished flows; a finished entry has
// rate 0, and finished entries are at most 1/32 of `flows` (Drain
// compacts past that). `wave` is a permutation of the entries, and each
// port's entries appear in trace order.
void ExpectWaveInvariants(const ActiveCoflow& c) {
  std::vector<int> in_n(c.in_count.size(), 0), out_n(c.out_count.size(), 0);
  std::size_t finished = 0;
  for (const auto& f : c.flows) {
    ASSERT_LT(static_cast<std::size_t>(f.src), in_n.size());
    ASSERT_LT(static_cast<std::size_t>(f.dst), out_n.size());
    if (f.done()) {
      EXPECT_EQ(f.rate, 0.0);
      ++finished;
      continue;
    }
    ++in_n[static_cast<std::size_t>(f.src)];
    ++out_n[static_cast<std::size_t>(f.dst)];
  }
  EXPECT_EQ(in_n, c.in_count);
  EXPECT_EQ(out_n, c.out_count);
  EXPECT_EQ(c.live(), c.flows.size() - finished);
  EXPECT_LE(finished * 32, c.flows.size());
  std::vector<std::uint32_t> sorted = c.wave;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), c.flows.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
  std::map<PortId, std::uint32_t> in_last, out_last;
  for (const std::uint32_t k : c.wave) {
    const FlowState& f = c.flows[k];
    if (in_last.count(f.src) > 0) {
      EXPECT_LT(in_last[f.src], k);
    }
    if (out_last.count(f.dst) > 0) {
      EXPECT_LT(out_last[f.dst], k);
    }
    in_last[f.src] = out_last[f.dst] = k;
  }
}

// One random coflow over ports [0, ports): many-to-many, one-to-many,
// many-to-one or a perfect matching; some flows dust-sized, some of at
// most one byte (finished on arrival).
std::vector<Flow> RandomFlows(Rng& rng, PortId ports, int shape) {
  auto pick = [&](int n) {
    std::vector<PortId> all(static_cast<std::size_t>(ports));
    for (PortId p = 0; p < ports; ++p) all[static_cast<std::size_t>(p)] = p;
    rng.Shuffle(all);
    all.resize(static_cast<std::size_t>(n));
    return all;
  };
  auto bytes = [&] {
    const double u = rng.NextDouble();
    if (u < 0.05) return rng.Uniform(0.1, 1.0);
    if (u < 0.15) return rng.Uniform(2.0, 500.0);
    return MB(rng.Uniform(0.5, 200));
  };
  std::vector<Flow> flows;
  const auto n = [&] { return static_cast<int>(rng.UniformInt(1, ports)); };
  if (shape == 0) {  // many-to-many, a random subset of the pairs
    const double keep = rng.Uniform(0.3, 1.0);
    for (PortId s : pick(n()))
      for (PortId d : pick(n()))
        if (rng.Bernoulli(keep)) flows.push_back({s, d, bytes()});
  } else if (shape == 1) {  // one-to-many
    const PortId s = pick(1)[0];
    for (PortId d : pick(n())) flows.push_back({s, d, bytes()});
  } else if (shape == 2) {  // many-to-one
    const PortId d = pick(1)[0];
    for (PortId s : pick(n())) flows.push_back({s, d, bytes()});
  } else {  // a matching: one flow per port fills it
    const std::vector<PortId> dst = pick(ports);
    for (PortId s = 0; s < ports; ++s)
      flows.push_back({s, dst[static_cast<std::size_t>(s)], bytes()});
  }
  if (flows.empty()) flows.push_back({0, 0, bytes()});
  rng.Shuffle(flows);
  return flows;
}

TEST(Aalo, WavefrontOrderMatchesTraceOrderBitForBit) {
  Rng rng(20161212);
  const AaloConfig config;
  const Bandwidth bandwidth = Gbps(1);
  std::size_t allocations = 0;
  for (int instance = 0; instance < 320; ++instance) {
    SCOPED_TRACE("instance " + std::to_string(instance));
    const PortId ports = static_cast<PortId>(rng.UniformInt(2, 16));
    const int coflows = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<RefCoflow> ref;
    std::vector<ActiveCoflow> active;
    for (int i = 0; i < coflows; ++i) {
      // The first coflow of every third instance is a fresh matching served
      // first, so the coflows behind it find their ports already full.
      const bool fill = instance % 3 == 0 && i == 0;
      const int shape = fill ? 3 : static_cast<int>(rng.UniformInt(0, 3));
      const std::vector<Flow> flows = RandomFlows(rng, ports, shape);
      const Time arrival = fill ? 0 : static_cast<Time>(rng.UniformInt(0, 2));
      RefCoflow& r = ref.emplace_back();
      r.id = i + 1;
      r.arrival = arrival;
      for (const Flow& f : flows)
        r.flows.push_back({f.src, f.dst, f.bytes, f.bytes, 0});
      active.emplace_back(r.id, arrival, flows);
      // Spread the coflows over Aalo's queues.
      r.sent = active.back().sent =
          fill ? 0 : MB(std::pow(10.0, rng.Uniform(-1, 4)));
      ASSERT_NO_FATAL_FAILURE(ExpectWaveInvariants(active.back()));
    }
    auto aalo = MakeAaloAllocator(config);
    for (int round = 0; !active.empty() && round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      std::vector<ActiveCoflow*> pointers;
      for (auto& a : active) pointers.push_back(&a);
      aalo->Allocate(pointers, ports, bandwidth, 0.0);
      ReferenceAalo(config, ref, ports, bandwidth);
      ++allocations;
      CheckPortRates(pointers, ports, bandwidth);
      for (std::size_t c = 0; c < active.size(); ++c) {
        const std::vector<const FlowState*> want = LiveFlows(ref[c].flows);
        const std::vector<const FlowState*> got = LiveFlows(active[c].flows);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i]->src, want[i]->src);
          ASSERT_EQ(got[i]->dst, want[i]->dst);
          ASSERT_EQ(Bits(got[i]->rate), Bits(want[i]->rate))
              << "coflow " << active[c].id << " flow " << i << ": "
              << got[i]->rate << " vs " << want[i]->rate;
        }
        ASSERT_NO_FATAL_FAILURE(ExpectWaveInvariants(active[c]));
      }

      // Finish a random subset of the flows and drain part of some others,
      // through Drain and through the reference.
      for (std::size_t c = 0; c < active.size(); ++c) {
        std::vector<FlowState*> live;
        for (auto& f : active[c].flows)
          if (!f.done()) live.push_back(&f);
        std::size_t i = 0;
        for (auto& f : ref[c].flows) {
          if (f.done()) {
            f.rate = 0;
            continue;
          }
          const double u = rng.NextDouble();
          f.rate = u < 0.3 ? f.remaining : u < 0.6 ? f.remaining / 4 : 0;
          live[i++]->rate = f.rate;
        }
        ReferenceDrain(ref[c], 1.0);
        const std::size_t before = active[c].live();
        const std::size_t finished = active[c].Drain(1.0);
        EXPECT_EQ(active[c].live(), before - finished);
        EXPECT_EQ(Bits(active[c].sent), Bits(ref[c].sent));
        ASSERT_NO_FATAL_FAILURE(ExpectWaveInvariants(active[c]));
      }
      for (std::size_t c = active.size(); c-- > 0;) {
        if (active[c].live() > 0) continue;
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(c));
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(c));
      }
    }
  }
  EXPECT_GT(allocations, 900u);
}

TEST(Aalo, BatchedFinishesMatchAnEagerEraseBitForBit) {
  // 144 flows of distinct sizes, 12 × 12 many-to-many. Each Drain runs to
  // the earliest finish, so exactly one flow finishes per drain, and Aalo
  // reallocates between drains. The reference erases each flow as it
  // finishes; the ActiveCoflow keeps it at rate 0 until more than 1/32 of
  // its entries are finished.
  const AaloConfig config;
  const Bandwidth bandwidth = Gbps(1);
  const PortId ports = 12;
  Rng rng(144);
  std::vector<int> order(144);
  for (std::size_t k = 0; k < order.size(); ++k)
    order[k] = static_cast<int>(k);
  rng.Shuffle(order);
  std::vector<Flow> flows;
  for (PortId s = 0; s < ports; ++s)
    for (PortId d = 0; d < ports; ++d)
      flows.push_back(
          {s, d, MB(1 + 0.37 * order[static_cast<std::size_t>(s * ports + d)])});

  ActiveCoflow a(1, 0.0, flows);
  std::vector<ActiveCoflow*> pointers = {&a};
  std::vector<RefCoflow> ref(1);
  ref[0].id = 1;
  for (const Flow& f : flows)
    ref[0].flows.push_back({f.src, f.dst, f.bytes, f.bytes, 0});
  auto aalo = MakeAaloAllocator(config);
  int compactions = 0;
  while (a.live() > 0) {
    SCOPED_TRACE("live " + std::to_string(a.live()));
    aalo->Allocate(pointers, ports, bandwidth, 0.0);
    ReferenceAalo(config, ref, ports, bandwidth);
    Time dt = kTimeInf;
    for (const auto& f : ref[0].flows)
      if (f.rate > 0) dt = std::min(dt, f.remaining / f.rate);
    ReferenceDrain(ref[0], dt);
    std::erase_if(ref[0].flows, [](const FlowState& f) { return f.done(); });
    const std::size_t entries = a.flows.size();
    ASSERT_EQ(a.Drain(dt), 1u);
    compactions += a.flows.size() < entries ? 1 : 0;

    const std::vector<const FlowState*> got = LiveFlows(a.flows);
    ASSERT_EQ(got.size(), ref[0].flows.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const FlowState& want = ref[0].flows[i];
      ASSERT_EQ(got[i]->src, want.src);
      ASSERT_EQ(got[i]->dst, want.dst);
      ASSERT_EQ(Bits(got[i]->rate), Bits(want.rate)) << "flow " << i;
      ASSERT_EQ(Bits(got[i]->remaining), Bits(want.remaining)) << "flow " << i;
    }
    EXPECT_EQ(Bits(a.sent), Bits(ref[0].sent));
    EXPECT_EQ(Bits(a.RemainingTpl(bandwidth)),
              Bits(ReferenceRemainingTpl(ref[0].flows, bandwidth)));
    ASSERT_NO_FATAL_FAILURE(ExpectWaveInvariants(a));
  }
  EXPECT_TRUE(a.flows.empty());
  EXPECT_GE(compactions, 3);
}

TEST(Aalo, PortConstraintsHold) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 25;
  cfg.num_ports = 12;
  const Trace trace = GenerateSyntheticTrace(cfg);
  auto aalo = MakeAaloAllocator();
  // The packet scenario checks the port sums after every allocation; a
  // violation would throw.
  const auto result = ReplayPacketTrace(trace, *aalo, AaloReplayConfig());
  EXPECT_EQ(result.cct.size(), trace.coflows.size());
}

TEST(Replay, AllCoflowsComplete) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  cfg.num_ports = 15;
  const Trace trace = GenerateSyntheticTrace(cfg);
  for (bool use_varys : {true, false}) {
    auto alloc = use_varys
                     ? MakeVarysAllocator()
                     : MakeAaloAllocator();
    const auto result = ReplayPacketTrace(
        trace, *alloc, use_varys ? VarysConfig() : AaloReplayConfig());
    EXPECT_EQ(result.cct.size(), trace.coflows.size());
    for (const auto& [id, cct] : result.cct) EXPECT_GT(cct, 0.0);
  }
}

TEST(Replay, CctNeverBelowPacketLowerBound) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 30;
  cfg.num_ports = 10;
  const Trace trace = GenerateSyntheticTrace(cfg);
  auto varys = MakeVarysAllocator();
  const auto result = ReplayPacketTrace(trace, *varys, VarysConfig());
  for (const Coflow& c : trace.coflows) {
    EXPECT_GE(result.cct.at(c.id()),
              PacketLowerBound(c, Gbps(1)) - 1e-6);
  }
}

// Runs Varys but withholds every rate from one coflow.
class StarveOneAllocator : public RateAllocator {
 public:
  explicit StarveOneAllocator(CoflowId starved) : starved_(starved) {}
  const char* name() const override { return "StarveOne"; }
  void Allocate(std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth, Time now) override {
    varys_->Allocate(active, num_ports, bandwidth, now);
    for (ActiveCoflow* c : active)
      if (c->id == starved_)
        for (auto& f : c->flows) f.rate = 0;
  }

 private:
  CoflowId starved_;
  std::unique_ptr<RateAllocator> varys_ = MakeVarysAllocator();
};

TEST(Replay, StallMessageNamesTheCoflowAndTheAllocator) {
  // Coflow 42 never gets a rate: once coflow 7 finishes, nothing can move.
  Trace trace;
  trace.num_ports = 3;
  trace.coflows.push_back(Coflow(7, 0.0, {{0, 1, MB(10)}}));
  trace.coflows.push_back(Coflow(42, 0.5, {{1, 2, MB(10)}}));
  StarveOneAllocator starve(42);
  try {
    ReplayPacketTrace(trace, starve, VarysConfig());
    FAIL() << "replay should have stalled";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("packet replay stalled"), std::string::npos) << what;
    EXPECT_NE(what.find("[42]"), std::string::npos) << what;
    EXPECT_NE(what.find("StarveOne"), std::string::npos) << what;
  }
}

// Rates every flow, finished or not, at B/64 (one input port holds 40).
class RateEveryFlowAllocator : public RateAllocator {
 public:
  const char* name() const override { return "RateEveryFlow"; }
  bool reallocates_on_flow_completion() const override { return true; }
  void Allocate(std::vector<ActiveCoflow*>& active, PortId /*num_ports*/,
                Bandwidth bandwidth, Time /*now*/) override {
    for (ActiveCoflow* c : active)
      for (auto& f : c->flows) f.rate = bandwidth / 64;
  }
};

TEST(Replay, RatedFinishedFlowNamesTheCoflowAndThePorts) {
  // Coflow 42 sends 0 -> 1..40; 0 -> 7 is the smallest and finishes first.
  // With 39 of 40 entries live the coflow does not compact, so the
  // reallocation that follows rates the finished flow again.
  std::vector<Flow> flows;
  for (PortId d = 1; d <= 40; ++d) flows.push_back({0, d, MB(10 + d)});
  flows[6].bytes = MB(1);
  Trace trace;
  trace.num_ports = 41;
  trace.coflows.push_back(Coflow(42, 0.0, std::move(flows)));
  RateEveryFlowAllocator allocator;
  try {
    ReplayPacketTrace(trace, allocator, VarysConfig());
    FAIL() << "a rate on a finished flow must throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("finished flow 0 -> 7 of coflow 42 has rate"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("RateEveryFlow"), std::string::npos) << what;
  }
}

// Runs Varys, and on its third reallocation gives every unfinished flow
// out of input port 1 the full link rate.
class OversubscribeThirdAllocator : public RateAllocator {
 public:
  const char* name() const override { return "OversubscribeThird"; }
  void Allocate(std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth, Time now) override {
    varys_->Allocate(active, num_ports, bandwidth, now);
    if (++calls != 3) return;
    for (ActiveCoflow* c : active)
      for (auto& f : c->flows)
        if (f.src == 1 && !f.done()) f.rate = bandwidth;
  }
  int calls = 0;

 private:
  std::unique_ptr<RateAllocator> varys_ = MakeVarysAllocator();
};

TEST(Replay, PortCheckGuardsEveryReallocation) {
  // Coflow 1 holds two flows out of input port 1 for 160 ms; arrivals at
  // 1 and 2 ms make the second and third reallocations.
  Trace trace;
  trace.num_ports = 5;
  trace.coflows.push_back(Coflow(1, 0.0, {{1, 0, MB(10)}, {1, 2, MB(10)}}));
  trace.coflows.push_back(Coflow(2, Millis(1), {{3, 4, MB(1)}}));
  trace.coflows.push_back(Coflow(3, Millis(2), {{3, 4, MB(1)}}));
  OversubscribeThirdAllocator allocator;
  const auto scenario = engine::MakePacketScenario(allocator, Gbps(1));
  try {
    engine::RunScenarioReplay(trace, *scenario, nullptr);
    FAIL() << "an oversubscribed port must throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("input port 1 oversubscribed: 250000000 > "
                        "125000124.99999999"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(allocator.calls, 3);
}

TEST(Fabric, PortCapacityConsume) {
  PortCapacity cap(3, 100.0);
  cap.Consume(0, 1, 60.0);
  EXPECT_DOUBLE_EQ(cap.in(0), 40.0);
  EXPECT_DOUBLE_EQ(cap.out(1), 40.0);
  EXPECT_DOUBLE_EQ(cap.in(1), 100.0);
  // The failure names the flow's ports, the rate and both leftovers at
  // full precision.
  cap.Consume(2, 2, 100.0 / 3);
  try {
    cap.Consume(0, 2, 50.0);
    FAIL() << "an over-capacity rate must throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rate exceeds port capacity: flow 0 -> 2, rate 50, "
                        "input left 40, output left 66.666666666666657"),
              std::string::npos)
        << what;
  }
}

TEST(Fabric, CheckRatesNamesTheSumAndTheLimit) {
  ActiveCoflow a(1, 0.0, {{0, 1, MB(10)}, {0, 2, MB(10)}});
  a.flows[0].rate = 60.0;
  a.flows[1].rate = 40.5;
  try {
    CheckPortRates({&a}, 3, 100.0);
    FAIL() << "an oversubscribed port must throw";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("input port 0 oversubscribed: 100.5 > "
                        "100.00009999999999"),
              std::string::npos)
        << what;
  }
}

TEST(Fabric, RemainingTplMatchesPerPortSumBitForBit) {
  Rng rng(526150);
  for (int instance = 0; instance < 400; ++instance) {
    SCOPED_TRACE("instance " + std::to_string(instance));
    const PortId ports = static_cast<PortId>(rng.UniformInt(2, 16));
    const int shape = static_cast<int>(rng.UniformInt(0, 3));
    ActiveCoflow a(1, 0.0, RandomFlows(rng, ports, shape));
    // Drain part of the demand: the flows Drain finishes stay at rate 0
    // until their coflow compacts, and a flow left at dust size counts as
    // finished too.
    for (auto& f : a.flows) {
      const double u = rng.NextDouble();
      f.rate = u < 0.3 ? f.remaining : u < 0.6 ? f.remaining / 3 : 0;
    }
    a.Drain(1.0);
    for (auto& f : a.flows) {
      if (rng.Bernoulli(0.2)) f.remaining = rng.Uniform(0, kBytesEps);
    }
    for (const Bandwidth bw : {Gbps(1), Gbps(40), 3.0}) {
      EXPECT_EQ(Bits(a.RemainingTpl(bw)),
                Bits(ReferenceRemainingTpl(a.flows, bw)));
    }
  }
}

TEST(Fabric, RemainingTplTracksProgress) {
  ActiveCoflow a(1, 0.0, {{0, 1, MB(100)}, {0, 2, MB(50)}});
  EXPECT_DOUBLE_EQ(a.RemainingTpl(Gbps(1)), MB(150) / Gbps(1));
  a.flows[0].remaining = MB(10);
  EXPECT_DOUBLE_EQ(a.RemainingTpl(Gbps(1)), MB(60) / Gbps(1));
}

}  // namespace
}  // namespace sunflow::packet
