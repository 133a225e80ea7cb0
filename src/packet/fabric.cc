#include "packet/fabric.h"

#include <algorithm>
#include <iomanip>
#include <numeric>

#include "common/assert.h"

namespace sunflow::packet {

namespace {

std::size_t Index(PortId p) { return static_cast<std::size_t>(p); }

// Drain's renumbering of an erased flow.
constexpr std::uint32_t kGone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

ActiveCoflow::ActiveCoflow(CoflowId id_in, Time arrival_in,
                           const std::vector<Flow>& trace_flows)
    : id(id_in), arrival(arrival_in) {
  SUNFLOW_CHECK(trace_flows.size() < kGone);
  flows.reserve(trace_flows.size());
  PortId in_ports = 0, out_ports = 0;
  for (const Flow& f : trace_flows) {
    const FlowState s{f.src, f.dst, f.bytes, f.bytes, 0};
    if (s.done()) continue;
    flows.push_back(s);
    in_ports = std::max(in_ports, f.src + 1);
    out_ports = std::max(out_ports, f.dst + 1);
  }
  in_count.assign(Index(in_ports), 0);
  out_count.assign(Index(out_ports), 0);

  // Levels in one pass in trace order, each port holding the level of its
  // latest flow; then a stable counting sort by level.
  std::vector<std::uint32_t> level(flows.size());
  std::vector<std::uint32_t> in_level(Index(in_ports), 0);
  std::vector<std::uint32_t> out_level(Index(out_ports), 0);
  std::uint32_t depth = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::size_t s = Index(flows[i].src), d = Index(flows[i].dst);
    const std::uint32_t l = std::max(in_level[s], out_level[d]) + 1;
    level[i] = in_level[s] = out_level[d] = l;
    depth = std::max(depth, l);
    ++in_count[s];
    ++out_count[d];
  }
  // start[l] is the number of flows below level l: where level l begins.
  std::vector<std::uint32_t> start(depth + 2, 0);
  for (std::uint32_t l : level) ++start[l + 1];
  for (std::size_t l = 1; l < start.size(); ++l) start[l] += start[l - 1];
  wave.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i)
    wave[start[level[i]]++] = static_cast<std::uint32_t>(i);
  SUNFLOW_DCHECK(Consistent());
}

std::size_t ActiveCoflow::Drain(Time dt) {
  // Moves f's bytes; true when that finishes it.
  const auto drain = [&](FlowState& f) {
    if (f.rate <= 0) return false;
    const Bytes moved = std::min(f.remaining, f.rate * dt);
    f.remaining -= moved;
    sent += moved;
    return f.done();
  };
  const std::size_t n = flows.size();
  std::size_t i = 0;
  while (i < n && !drain(flows[i])) ++i;
  if (i == n) return 0;

  // From the first finished flow on, each survivor moves down to `kept`.
  // renumber[k] is flow k's index after the compaction, kGone once it
  // finished.
  static thread_local std::vector<std::uint32_t> renumber;
  if (renumber.size() < n) renumber.resize(n);
  std::iota(renumber.begin(), renumber.begin() + static_cast<std::ptrdiff_t>(i),
            std::uint32_t{0});
  std::size_t kept = i;
  while (i < n) {  // flows[i] has just finished
    --in_count[Index(flows[i].src)];
    --out_count[Index(flows[i].dst)];
    renumber[i] = kGone;
    while (++i < n && !drain(flows[i])) {
      renumber[i] = static_cast<std::uint32_t>(kept);
      flows[kept++] = flows[i];
    }
  }
  flows.resize(kept);
  std::size_t w = 0;
  for (const std::uint32_t k : wave) {
    wave[w] = renumber[k];
    w += wave[w] != kGone ? 1 : 0;
  }
  wave.resize(w);
  SUNFLOW_DCHECK(Consistent());
  return n - kept;
}

bool ActiveCoflow::Consistent() const {
  if (wave.size() != flows.size()) return false;
  std::vector<int> in_n(in_count.size(), 0), out_n(out_count.size(), 0);
  // Each port's latest flow index seen in `wave`, +1 (0 = none yet).
  std::vector<std::size_t> in_last(in_count.size(), 0);
  std::vector<std::size_t> out_last(out_count.size(), 0);
  std::vector<bool> seen(flows.size(), false);
  for (const std::uint32_t k : wave) {
    if (k >= flows.size() || seen[k]) return false;
    seen[k] = true;
    const FlowState& f = flows[k];
    if (f.done()) return false;
    const std::size_t s = Index(f.src), d = Index(f.dst);
    if (s >= in_n.size() || d >= out_n.size()) return false;
    if (k + 1 <= in_last[s] || k + 1 <= out_last[d]) return false;
    in_last[s] = out_last[d] = k + 1;
    ++in_n[s];
    ++out_n[d];
  }
  return in_n == in_count && out_n == out_count;
}

Time ActiveCoflow::RemainingTpl(Bandwidth bandwidth) const {
  SUNFLOW_CHECK(bandwidth > 0);
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

PortCapacity::PortCapacity(PortId num_ports, Bandwidth bandwidth)
    : in_(static_cast<std::size_t>(num_ports), bandwidth),
      out_(static_cast<std::size_t>(num_ports), bandwidth) {
  SUNFLOW_CHECK(num_ports > 0 && bandwidth > 0);
}

void CheckRates(const std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth) {
  std::vector<Bandwidth> in(static_cast<std::size_t>(num_ports), 0);
  std::vector<Bandwidth> out(static_cast<std::size_t>(num_ports), 0);
  for (const ActiveCoflow* c : active) {
    for (const std::uint32_t k : c->wave) {
      const FlowState& f = c->flows[k];
      SUNFLOW_CHECK(f.rate >= 0);
      in[Index(f.src)] += f.rate;
      out[Index(f.dst)] += f.rate;
    }
  }
  const Bandwidth limit = bandwidth * (1 + 1e-6);
  for (PortId p = 0; p < num_ports; ++p) {
    SUNFLOW_CHECK_MSG(in[Index(p)] <= limit,
                      "input port " << p << " oversubscribed: "
                                    << std::setprecision(17) << in[Index(p)]
                                    << " > " << limit);
    SUNFLOW_CHECK_MSG(out[Index(p)] <= limit,
                      "output port " << p << " oversubscribed: "
                                     << std::setprecision(17) << out[Index(p)]
                                     << " > " << limit);
  }
}

}  // namespace sunflow::packet
