#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "packet/aalo.h"
#include "packet/replay.h"
#include "packet/varys.h"
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
    const Time cct = PacketSingleCoflowCct(c, *varys, VarysConfig());
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
  const Time cct = PacketSingleCoflowCct(c, *aalo, AaloReplayConfig());
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

TEST(Aalo, WeightedQueuesGuaranteeHeavyCoflowService) {
  // Under strict priority a heavy (demoted) coflow gets nothing while a
  // queue-0 coflow wants its ports; with weighted sharing it keeps a slice.
  AaloConfig cfg;
  cfg.weighted_queues = true;
  ActiveCoflow heavy, fresh;
  heavy.id = 1;
  heavy.sent = MB(500);  // deep queue
  heavy.flows = {{0, 1, GB(1), GB(1), 0}};
  fresh.id = 2;
  fresh.flows = {{0, 1, MB(5), MB(5), 0}};
  std::vector<ActiveCoflow*> active = {&heavy, &fresh};
  auto aalo = MakeAaloAllocator(cfg);
  aalo->Allocate(active, 2, Gbps(1), 0.0);
  EXPECT_GT(heavy.flows[0].rate, 0.0);
  EXPECT_GT(fresh.flows[0].rate, heavy.flows[0].rate);
  CheckRates(active, 2, Gbps(1));
}

TEST(Aalo, WeightedQueuesWorkConserving) {
  // A single coflow still gets the full port bandwidth (backfill).
  AaloConfig cfg;
  cfg.weighted_queues = true;
  ActiveCoflow only;
  only.id = 1;
  only.flows = {{0, 1, MB(50), MB(50), 0}};
  std::vector<ActiveCoflow*> active = {&only};
  auto aalo = MakeAaloAllocator(cfg);
  aalo->Allocate(active, 2, Gbps(1), 0.0);
  EXPECT_NEAR(only.flows[0].rate, Gbps(1), 1.0);
}

TEST(Aalo, WeightedQueuesCctsArePinned) {
  // No golden covers the weighted_queues path, so its per-coflow CCTs on
  // one seeded trace are pinned bit for bit (recorded with %.17g).
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  cfg.num_ports = 16;
  cfg.seed = 7;
  const Trace trace = GenerateSyntheticTrace(cfg);
  AaloConfig aalo_cfg;
  aalo_cfg.weighted_queues = true;
  auto aalo = MakeAaloAllocator(aalo_cfg);
  const auto result = ReplayPacketTrace(trace, *aalo, AaloReplayConfig());
  const std::map<CoflowId, Time> want = {
      {1, 0.19587168509713848},
      {2, 0.17607000532785833},
      {3, 0.19863159409297282},
      {4, 0.28373300017648262},
      {5, 0.28154112301893974},
      {6, 0.14132370958526508},
      {7, 0.27787425564378054},
      {8, 0.040000000000020464},
      {9, 0.34633617307360964},
      {10, 0.37645799334109142},
      {11, 0.031999999999925421},
      {12, 0.15868370700172818},
      {13, 0.38767146165560007},
      {14, 0.13325374329019724},
      {15, 0.28329359011149791},
      {16, 0.33029809353320161},
      {17, 0.28801637529568325},
      {18, 0.15267266759019549},
      {19, 0.38893005753379839},
      {20, 6.271284207883582},
      {21, 7.4066048931540536},
      {22, 0.15887421918250766},
      {23, 1.3123834918819739},
      {24, 0.30669162641652292},
      {25, 6.8535582353838436},
      {26, 0.29839312207059265},
      {27, 0.35799637988384347},
      {28, 0.36846612808903956},
      {29, 0.43445716095902753},
      {30, 0.28969377966041066},
      {31, 0.0079999999998108251},
      {32, 0.10390938565069519},
      {33, 0.37384739303979586},
      {34, 0.23580471611330722},
      {35, 0.32523810627571947},
      {36, 1.7974883233191576},
      {37, 9.2031750426249346},
      {38, 15.945663962791969},
      {39, 0.0079999999998108251},
      {40, 1.523918321070596},
  };
  EXPECT_EQ(result.reschedules, 1479u);
  ASSERT_EQ(result.cct.size(), want.size());
  for (const auto& [id, cct] : want) EXPECT_EQ(result.cct.at(id), cct) << id;
}

TEST(Aalo, PortConstraintsHold) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 25;
  cfg.num_ports = 12;
  const Trace trace = GenerateSyntheticTrace(cfg);
  auto aalo = MakeAaloAllocator();
  // The packet scenario calls CheckRates after every allocation; a
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

TEST(Fabric, PortCapacityConsume) {
  PortCapacity cap(3, 100.0);
  cap.Consume(0, 1, 60.0);
  EXPECT_DOUBLE_EQ(cap.in(0), 40.0);
  EXPECT_DOUBLE_EQ(cap.out(1), 40.0);
  EXPECT_DOUBLE_EQ(cap.in(1), 100.0);
  EXPECT_THROW(cap.Consume(0, 1, 50.0), CheckFailure);
}

TEST(Fabric, RemainingTplTracksProgress) {
  ActiveCoflow a;
  a.flows = {{0, 1, MB(100), MB(100), 0}, {0, 2, MB(50), MB(50), 0}};
  EXPECT_DOUBLE_EQ(a.RemainingTpl(Gbps(1)), MB(150) / Gbps(1));
  a.flows[0].remaining = MB(10);
  EXPECT_DOUBLE_EQ(a.RemainingTpl(Gbps(1)), MB(60) / Gbps(1));
}

}  // namespace
}  // namespace sunflow::packet
