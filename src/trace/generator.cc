#include "trace/generator.h"

#include <algorithm>
#include <cmath>

namespace sunflow {

namespace {

// Category mix — paper Table 4 (fractions of coflows).
constexpr double kFracOneToOne = 0.234;
constexpr double kFracOneToMany = 0.099;
constexpr double kFracManyToOne = 0.401;
// many-to-many gets the remainder (0.266).

// Width (fan-in/out) distribution for "many" sides: Pareto tail capped
// at num_ports. M2M coflows in the Facebook trace are *wide* (up to
// 150x150) with *small* per-flow sizes — the width, not the flow size,
// carries the bytes.
constexpr double kWidthParetoShape = 0.9;
constexpr double kWidthParetoScale = 8.0;

// Flow sizes in MB. Small categories draw near the floor; M2M sizes are
// heavy-tailed but MB-scale.
// Calibrated against the published trace statistics (see DESIGN.md §4.1):
// 12% network idleness at 1 Gbps (paper: 12%), M2M ≈ 98.9% of bytes
// (99.94%), long coflows (avg subflow ≥ 5 MB) 25.3% of coflows carrying
// 98.9% of bytes (paper: 25.2% / 98.8%).
constexpr double kSmallFlowMbMean = 2.0;  ///< exponential, floored at 1 MB
constexpr double kM2mFlowMbScale = 3.0;   ///< Pareto scale (MB, per mapper)
constexpr double kM2mFlowMbShape = 1.15;  ///< Pareto shape (heavy tail)
constexpr double kM2mFlowMbCap = 2048.0;  ///< per-flow cap (MB)

// MB-rounded with a 1 MB floor, matching the original trace's granularity.
Bytes RoundedMb(double mb) { return MB(std::max(1.0, std::round(mb))); }

// Draws a fan width in [2, num_ports] with a Pareto tail.
int DrawWidth(Rng& rng, const SyntheticTraceConfig& cfg) {
  const double w = rng.Pareto(kWidthParetoScale, kWidthParetoShape);
  return static_cast<int>(
      std::clamp(w, 2.0, static_cast<double>(cfg.num_ports)));
}

}  // namespace

void GenerateSyntheticTrace(const SyntheticTraceConfig& cfg,
                            const std::function<void(Coflow&&)>& sink) {
  SUNFLOW_CHECK(cfg.num_ports >= 2);
  SUNFLOW_CHECK(cfg.num_coflows >= 0);
  Rng rng(cfg.seed);

  const double frac_m2m =
      1.0 - kFracOneToOne - kFracOneToMany - kFracManyToOne;
  const std::vector<double> mix = {kFracOneToOne, kFracOneToMany,
                                   kFracManyToOne, frac_m2m};

  // Poisson arrivals: exponential gaps with mean horizon / num_coflows.
  const double gap_mean =
      cfg.num_coflows > 0 ? cfg.horizon / cfg.num_coflows : 1.0;

  Time arrival = 0;
  for (int k = 0; k < cfg.num_coflows; ++k) {
    arrival = cfg.iid_arrivals ? rng.Uniform(0, cfg.horizon)
                               : arrival + rng.Exponential(gap_mean);
    const auto category = static_cast<CoflowCategory>(rng.Categorical(mix));

    int senders = 1, receivers = 1;
    switch (category) {
      case CoflowCategory::kOneToOne:
        break;
      case CoflowCategory::kOneToMany:
        receivers = DrawWidth(rng, cfg);
        break;
      case CoflowCategory::kManyToOne:
        senders = DrawWidth(rng, cfg);
        break;
      case CoflowCategory::kManyToMany:
        senders = DrawWidth(rng, cfg);
        receivers = DrawWidth(rng, cfg);
        break;
    }
    const auto src_ports = rng.SampleWithoutReplacement(cfg.num_ports, senders);
    const auto dst_ports =
        rng.SampleWithoutReplacement(cfg.num_ports, receivers);

    std::vector<Flow> flows;
    flows.reserve(static_cast<std::size_t>(senders) *
                  static_cast<std::size_t>(receivers));
    if (category == CoflowCategory::kManyToMany) {
      // Shuffle-like: each reducer receives a heavy-tailed total, split
      // evenly across mappers (mirrors the benchmark format semantics).
      for (PortId dst : dst_ports) {
        const double total_mb =
            std::min(kM2mFlowMbCap * senders,
                     rng.Pareto(kM2mFlowMbScale * senders, kM2mFlowMbShape));
        for (PortId src : src_ports) {
          flows.push_back({src, dst, RoundedMb(total_mb / senders)});
        }
      }
    } else {
      for (PortId src : src_ports) {
        for (PortId dst : dst_ports) {
          flows.push_back(
              {src, dst, RoundedMb(rng.Exponential(kSmallFlowMbMean))});
        }
      }
    }
    sink(Coflow(static_cast<CoflowId>(k + 1), arrival, std::move(flows)));
  }
}

Trace GenerateSyntheticTrace(const SyntheticTraceConfig& cfg) {
  Trace trace;
  trace.num_ports = cfg.num_ports;
  trace.coflows.reserve(static_cast<std::size_t>(cfg.num_coflows));
  GenerateSyntheticTrace(
      cfg, [&](Coflow&& c) { trace.coflows.push_back(std::move(c)); });
  if (cfg.iid_arrivals) {
    std::stable_sort(trace.coflows.begin(), trace.coflows.end(),
                     [](const Coflow& a, const Coflow& b) {
                       return a.arrival() < b.arrival() ||
                              (a.arrival() == b.arrival() && a.id() < b.id());
                     });
  }
  trace.Validate();
  return trace;
}

Trace PerturbFlowSizes(const Trace& trace, double fraction, Bytes min_bytes,
                       std::uint64_t seed) {
  SUNFLOW_CHECK(fraction >= 0 && fraction < 1);
  Rng rng(seed);
  Trace out;
  out.num_ports = trace.num_ports;
  out.coflows.reserve(trace.coflows.size());
  for (const Coflow& c : trace.coflows) {
    std::vector<Flow> flows = c.flows();
    for (Flow& f : flows) {
      f.bytes = std::max(min_bytes,
                         f.bytes * (1.0 + rng.Uniform(-fraction, fraction)));
    }
    out.coflows.emplace_back(c.id(), c.arrival(), std::move(flows));
  }
  out.Validate();
  return out;
}

}  // namespace sunflow
