#include "exp/inter_runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "core/policy.h"
#include "packet/aalo.h"
#include "packet/replay.h"
#include "packet/varys.h"
#include "runtime/thread_pool.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "trace/bounds.h"

namespace sunflow::exp {

double InterComparison::AvgCct(const std::map<CoflowId, Time>& cct) const {
  if (cct.empty()) return 0;
  Time total = 0;
  for (const auto& [id, t] : cct) total += t;
  return total / static_cast<double>(cct.size());
}

std::vector<double> InterComparison::Ratios(
    const std::map<CoflowId, Time>& a, const std::map<CoflowId, Time>& b) {
  std::vector<double> out;
  out.reserve(a.size());
  for (const auto& [id, va] : a) {
    auto it = b.find(id);
    if (it == b.end() || it->second <= 0) continue;
    out.push_back(va / it->second);
  }
  return out;
}

std::vector<double> InterComparison::Differences(
    const std::map<CoflowId, Time>& a, const std::map<CoflowId, Time>& b) {
  std::vector<double> out;
  out.reserve(a.size());
  for (const auto& [id, va] : a) {
    auto it = b.find(id);
    if (it == b.end()) continue;
    out.push_back(va - it->second);
  }
  return out;
}

InterComparison RunInterComparison(const Trace& trace,
                                   const InterRunConfig& config) {
  InterComparison cmp;
  for (const Coflow& c : trace.coflows) {
    cmp.tpl[c.id()] = PacketLowerBound(c, config.bandwidth);
    cmp.pavg[c.id()] = c.AvgProcessingTime(config.bandwidth);
  }

  // The three replays are independent whole-trace simulations writing
  // disjoint maps — fan them out. Only the Sunflow replay carries the
  // caller's sink, so the one-sink-per-task contract holds.
  const int threads =
      config.threads <= 0 ? runtime::HardwareConcurrency() : config.threads;
  runtime::ThreadPool pool(threads);
  std::vector<std::function<void()>> replays;
  replays.push_back([&] {
    engine::EngineConfig ec;
    ec.sunflow.bandwidth = config.bandwidth;
    ec.sunflow.delta = config.delta;
    ec.sunflow.fabric = config.fabric;
    ec.carry_over_circuits = config.carry_over_circuits;
    ec.sink = config.sink;
    ec.timeline = config.timeline;
    const auto policy = MakeShortestFirstPolicy();
    cmp.sunflow = engine::ScenarioRegistry::Global()
                      .Run(config.engine, trace, policy.get(), ec)
                      .cct;
  });
  if (config.run_varys) {
    replays.push_back([&] {
      packet::PacketReplayConfig pc;
      pc.bandwidth = config.bandwidth;
      pc.reallocate_on_flow_completion = false;  // §5.4's Varys behaviour
      auto varys = packet::MakeVarysAllocator();
      cmp.varys = packet::ReplayPacketTrace(trace, *varys, pc).cct;
    });
  }
  if (config.run_aalo) {
    replays.push_back([&] {
      packet::PacketReplayConfig pc;
      pc.bandwidth = config.bandwidth;
      pc.reallocate_on_flow_completion = true;
      pc.track_queue_crossings = true;
      auto aalo = packet::MakeAaloAllocator();
      cmp.aalo = packet::ReplayPacketTrace(trace, *aalo, pc).cct;
    });
  }
  pool.ParallelFor(0, replays.size(),
                   [&](std::size_t i) { replays[i](); });
  return cmp;
}

namespace {

/// Forwards a source while recording each coflow's TpL / pavg — the
/// comparison's x-axis columns — so the streamed path fills the same
/// maps the whole-trace path precomputes, without a second pass.
class BoundsTeeSource final : public CoflowSource {
 public:
  BoundsTeeSource(CoflowSource& inner, InterComparison& cmp, Bandwidth b)
      : inner_(&inner), cmp_(&cmp), bandwidth_(b) {}

  PortId num_ports() const override { return inner_->num_ports(); }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  bool Next(Coflow& out) override {
    if (!inner_->Next(out)) return false;
    cmp_->tpl[out.id()] = PacketLowerBound(out, bandwidth_);
    cmp_->pavg[out.id()] = out.AvgProcessingTime(bandwidth_);
    return true;
  }

 private:
  CoflowSource* inner_;
  InterComparison* cmp_;
  Bandwidth bandwidth_;
};

}  // namespace

InterComparison RunInterComparisonStreamed(CoflowSource& source,
                                           const InterRunConfig& config) {
  SUNFLOW_CHECK_MSG(!config.run_varys && !config.run_aalo,
                    "packet baselines need the whole trace in memory; "
                    "disable run_varys/run_aalo for streamed runs");
  InterComparison cmp;
  engine::EngineConfig ec;
  ec.sunflow.bandwidth = config.bandwidth;
  ec.sunflow.delta = config.delta;
  ec.sunflow.fabric = config.fabric;
  ec.carry_over_circuits = config.carry_over_circuits;
  ec.sink = config.sink;
  ec.timeline = config.timeline;

  const auto policy = MakeShortestFirstPolicy();
  std::unique_ptr<engine::ScenarioPolicy> scenario;
  if (config.engine == "circuit") {
    scenario = engine::MakeCircuitScenario(source.num_ports(), *policy, ec);
  } else if (config.engine == "guarded") {
    scenario = engine::MakeGuardScenario(source.num_ports(), *policy, ec);
  } else if (config.engine == "rotor") {
    scenario = engine::MakeRotorScenario(source.num_ports(), ec);
  } else {
    SUNFLOW_CHECK_MSG(false,
                      "streamed replay supports circuit/guarded/rotor only");
  }
  BoundsTeeSource tee(source, cmp, config.bandwidth);
  cmp.sunflow =
      engine::RunScenarioStream(tee, *scenario, config.sink, config.timeline)
          .cct;
  return cmp;
}

}  // namespace sunflow::exp
