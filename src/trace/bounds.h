// CCT lower bounds (§2.4, Equations 1–4).
//
// TpL — packet-switched bound: the busiest port's total processing time.
// TcL — circuit-switched bound under the *not-all-stop* model: every
//        non-empty flow additionally pays one reconfiguration δ.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/units.h"
#include "trace/coflow.h"

namespace sunflow {

/// Max over ports p < num_ports of the summed cost(f) of the flows f with
/// f.src == p (input side) or f.dst == p (output side). Each port sums its
/// flows in list order. Flows are anything with `src` and `dst` ports.
template <typename Flows, typename CostFn>
Time MaxPortSum(const Flows& flows, PortId num_ports, CostFn cost) {
  std::vector<Time> in(static_cast<std::size_t>(num_ports), 0);
  std::vector<Time> out(in.size(), 0);
  for (const auto& f : flows) {
    const Time c = cost(f);
    in[static_cast<std::size_t>(f.src)] += c;
    out[static_cast<std::size_t>(f.dst)] += c;
  }
  Time best = 0;
  for (std::size_t p = 0; p < in.size(); ++p)
    best = std::max({best, in[p], out[p]});
  return best;
}

/// Equation (2): max over ports of summed processing time.
Time PacketLowerBound(const Coflow& coflow, Bandwidth bandwidth);

/// Equations (3)+(4): max over ports of summed (processing time + δ).
Time CircuitLowerBound(const Coflow& coflow, Bandwidth bandwidth, Time delta);

/// α = δ / min(d_ij / B) — the Lemma 2 constant for a coflow. The Lemma 2
/// guarantee is TS ≤ 2(1+α)·TpL.
double LemmaTwoAlpha(const Coflow& coflow, Bandwidth bandwidth, Time delta);

}  // namespace sunflow
