#include "packet/varys.h"

#include <algorithm>
#include <vector>

#include "common/assert.h"

namespace sunflow::packet {

namespace {

class VarysAllocator : public RateAllocator {
 public:
  const char* name() const override { return "Varys"; }

  void Allocate(std::vector<ActiveCoflow*>& active, PortId num_ports,
                Bandwidth bandwidth, Time /*now*/) override {
    // SEBF: serve in order of remaining bottleneck (at full bandwidth),
    // each coflow's bottleneck computed once.
    struct Ranked {
      Time tpl;
      ActiveCoflow* coflow;
    };
    std::vector<Ranked> order;
    order.reserve(active.size());
    for (ActiveCoflow* c : active)
      order.push_back({c->RemainingTpl(bandwidth), c});
    std::stable_sort(order.begin(), order.end(),
                     [](const Ranked& a, const Ranked& b) {
                       if (a.tpl != b.tpl) return a.tpl < b.tpl;
                       if (a.coflow->arrival != b.coflow->arrival)
                         return a.coflow->arrival < b.coflow->arrival;
                       return a.coflow->id < b.coflow->id;
                     });

    PortCapacity cap(num_ports, bandwidth);
    in_load_.assign(static_cast<std::size_t>(num_ports), 0);
    out_load_.assign(static_cast<std::size_t>(num_ports), 0);
    for (const Ranked& r : order) MaddAllocate(*r.coflow, cap);
  }

 private:
  Bytes& in_load(PortId p) { return in_load_[static_cast<std::size_t>(p)]; }
  Bytes& out_load(PortId p) { return out_load_[static_cast<std::size_t>(p)]; }

  // MADD with residual capacities: the effective bottleneck Γ is the
  // longest time any port needs to drain this coflow's remaining demand at
  // the capacity left over from more prioritized coflows; every flow then
  // gets remaining/Γ so all flows finish together at Γ.
  void MaddAllocate(ActiveCoflow& coflow, PortCapacity& cap) {
    for (auto& f : coflow.flows) {
      f.rate = 0;
      if (f.done()) continue;
      in_load(f.src) += f.remaining;
      out_load(f.dst) += f.remaining;
    }
    Time gamma = 0;
    bool blocked = false;  // a needed port is exhausted: coflow waits
    for (const auto& f : coflow.flows) {
      if (f.done()) continue;
      if (cap.in(f.src) <= 1e-6 || cap.out(f.dst) <= 1e-6) {
        blocked = true;
        break;
      }
      gamma = std::max({gamma, in_load(f.src) / cap.in(f.src),
                        out_load(f.dst) / cap.out(f.dst)});
    }
    for (const auto& f : coflow.flows) {
      in_load(f.src) = 0;
      out_load(f.dst) = 0;
    }
    if (blocked || gamma <= 0) return;

    for (auto& f : coflow.flows) {
      if (f.done()) continue;
      f.rate = f.remaining / gamma;
      cap.Consume(f.src, f.dst, f.rate);
    }
  }

  // Per-port remaining bytes of the coflow being allocated, summed in flow
  // order; zero between coflows.
  std::vector<Bytes> in_load_, out_load_;
};

}  // namespace

std::unique_ptr<RateAllocator> MakeVarysAllocator() {
  return std::make_unique<VarysAllocator>();
}

}  // namespace sunflow::packet
