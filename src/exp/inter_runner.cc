#include "exp/inter_runner.h"

#include <functional>
#include <vector>

#include "core/policy.h"
#include "runtime/thread_pool.h"
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
  const auto& registry = engine::ScenarioRegistry::Global();
  engine::EngineConfig packet_ec;
  packet_ec.sunflow.bandwidth = config.bandwidth;
  const std::function<void()> replays[] = {
      [&] {
        engine::EngineConfig ec;
        ec.sunflow.bandwidth = config.bandwidth;
        ec.sunflow.delta = config.delta;
        ec.sunflow.fabric = config.fabric;
        ec.sink = config.sink;
        ec.timeline = config.timeline;
        const auto policy = MakeShortestFirstPolicy();
        cmp.sunflow = registry.Run(config.engine, trace, policy.get(), ec).cct;
      },
      [&] { cmp.varys = registry.Run("varys", trace, nullptr, packet_ec).cct; },
      [&] { cmp.aalo = registry.Run("aalo", trace, nullptr, packet_ec).cct; },
  };
  pool.ParallelFor(0, std::size(replays), [&](std::size_t i) { replays[i](); });
  return cmp;
}

}  // namespace sunflow::exp
