#include "packet/fabric.h"

#include <algorithm>

#include "common/assert.h"

namespace sunflow::packet {

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

void PortCapacity::Consume(PortId src, PortId dst, Bandwidth rate) {
  SUNFLOW_CHECK(rate >= 0);
  auto& i = in_[static_cast<std::size_t>(src)];
  auto& o = out_[static_cast<std::size_t>(dst)];
  // Tolerate tiny FP overshoot, clamp at zero.
  SUNFLOW_CHECK_MSG(rate <= i * (1 + 1e-9) + 1e-6 &&
                        rate <= o * (1 + 1e-9) + 1e-6,
                    "rate exceeds port capacity");
  i = std::max(0.0, i - rate);
  o = std::max(0.0, o - rate);
}

void CheckRates(const std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth) {
  std::vector<Bandwidth> in(static_cast<std::size_t>(num_ports), 0);
  std::vector<Bandwidth> out(static_cast<std::size_t>(num_ports), 0);
  for (const ActiveCoflow* c : active) {
    for (const auto& f : c->flows) {
      SUNFLOW_CHECK(f.rate >= 0);
      in[static_cast<std::size_t>(f.src)] += f.rate;
      out[static_cast<std::size_t>(f.dst)] += f.rate;
    }
  }
  const Bandwidth limit = bandwidth * (1 + 1e-6);
  for (PortId p = 0; p < num_ports; ++p) {
    SUNFLOW_CHECK_MSG(in[static_cast<std::size_t>(p)] <= limit,
                      "input port " << p << " oversubscribed");
    SUNFLOW_CHECK_MSG(out[static_cast<std::size_t>(p)] <= limit,
                      "output port " << p << " oversubscribed");
  }
}

}  // namespace sunflow::packet
