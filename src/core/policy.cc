#include "core/policy.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/assert.h"

namespace sunflow {

namespace {

using KeyFn = double (*)(const CoflowView&);

std::vector<std::size_t> SortBy(
    const std::vector<CoflowView>& views,
    const std::function<bool(const CoflowView&, const CoflowView&)>& less) {
  std::vector<std::size_t> order(views.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return less(views[a], views[b]);
                   });
  return order;
}

bool TieBreak(const CoflowView& a, const CoflowView& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}

class ShortestFirstPolicy : public PriorityPolicy {
 public:
  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    return SortBy(views, [](const CoflowView& a, const CoflowView& b) {
      if (a.remaining_tpl != b.remaining_tpl)
        return a.remaining_tpl < b.remaining_tpl;
      return TieBreak(a, b);
    });
  }
};

class StaticShortestFirstPolicy : public PriorityPolicy {
 public:
  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    return SortBy(views, [](const CoflowView& a, const CoflowView& b) {
      if (a.static_tpl != b.static_tpl) return a.static_tpl < b.static_tpl;
      return TieBreak(a, b);
    });
  }
};

class FifoPolicy : public PriorityPolicy {
 public:
  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    return SortBy(views, TieBreak);
  }
};

class ClassPolicy : public PriorityPolicy {
 public:
  ClassPolicy(std::map<CoflowId, int> classes, int default_class)
      : classes_(std::move(classes)), default_class_(default_class) {}

  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    return SortBy(views, [this](const CoflowView& a, const CoflowView& b) {
      const int ca = ClassOf(a.id);
      const int cb = ClassOf(b.id);
      if (ca != cb) return ca < cb;
      if (a.remaining_tpl != b.remaining_tpl)
        return a.remaining_tpl < b.remaining_tpl;
      return TieBreak(a, b);
    });
  }

 private:
  int ClassOf(CoflowId id) const {
    auto it = classes_.find(id);
    return it == classes_.end() ? default_class_ : it->second;
  }

  std::map<CoflowId, int> classes_;
  int default_class_;
};

class LeastAttainedServicePolicy : public PriorityPolicy {
 public:
  LeastAttainedServicePolicy(Bytes first_queue_limit, double queue_spacing)
      : first_limit_(first_queue_limit), spacing_(queue_spacing) {
    SUNFLOW_CHECK(first_queue_limit > 0 && queue_spacing > 1);
  }

  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    return SortBy(views, [this](const CoflowView& a, const CoflowView& b) {
      const int qa = QueueOf(a.attained_bytes);
      const int qb = QueueOf(b.attained_bytes);
      if (qa != qb) return qa < qb;
      return TieBreak(a, b);  // FIFO within a queue, as in Aalo
    });
  }

 private:
  int QueueOf(Bytes attained) const {
    int q = 0;
    Bytes limit = first_limit_;
    while (attained >= limit && q < 63) {
      limit *= spacing_;
      ++q;
    }
    return q;
  }

  Bytes first_limit_;
  double spacing_;
};

class WeightedShortestFirstPolicy : public PriorityPolicy {
 public:
  explicit WeightedShortestFirstPolicy(std::map<CoflowId, double> weights)
      : weights_(std::move(weights)) {
    for (const auto& [id, w] : weights_) SUNFLOW_CHECK(w > 0);
  }

  std::vector<std::size_t> Order(
      const std::vector<CoflowView>& views) const override {
    return SortBy(views, [this](const CoflowView& a, const CoflowView& b) {
      const double ka = a.remaining_tpl / WeightOf(a.id);
      const double kb = b.remaining_tpl / WeightOf(b.id);
      if (ka != kb) return ka < kb;
      return TieBreak(a, b);
    });
  }

 private:
  double WeightOf(CoflowId id) const {
    auto it = weights_.find(id);
    return it == weights_.end() ? 1.0 : it->second;
  }

  std::map<CoflowId, double> weights_;
};

}  // namespace

std::unique_ptr<PriorityPolicy> MakeLeastAttainedServicePolicy(
    Bytes first_queue_limit, double queue_spacing) {
  return std::make_unique<LeastAttainedServicePolicy>(first_queue_limit,
                                                      queue_spacing);
}

std::unique_ptr<PriorityPolicy> MakeWeightedShortestFirstPolicy(
    std::map<CoflowId, double> weight_of_coflow) {
  return std::make_unique<WeightedShortestFirstPolicy>(
      std::move(weight_of_coflow));
}

std::unique_ptr<PriorityPolicy> MakeShortestFirstPolicy() {
  return std::make_unique<ShortestFirstPolicy>();
}

std::unique_ptr<PriorityPolicy> MakeStaticShortestFirstPolicy() {
  return std::make_unique<StaticShortestFirstPolicy>();
}

std::unique_ptr<PriorityPolicy> MakeFifoPolicy() {
  return std::make_unique<FifoPolicy>();
}

std::unique_ptr<PriorityPolicy> MakeClassPolicy(
    std::map<CoflowId, int> class_of_coflow, int default_class) {
  return std::make_unique<ClassPolicy>(std::move(class_of_coflow),
                                       default_class);
}

Coflow CombineCoflows(const std::vector<const Coflow*>& coflows,
                      CoflowId combined_id) {
  SUNFLOW_CHECK(!coflows.empty());
  std::map<std::pair<PortId, PortId>, Bytes> demand;
  Time arrival = kTimeInf;
  for (const Coflow* c : coflows) {
    SUNFLOW_CHECK(c != nullptr);
    arrival = std::min(arrival, c->arrival());
    for (const Flow& f : c->flows()) demand[{f.src, f.dst}] += f.bytes;
  }
  std::vector<Flow> flows;
  flows.reserve(demand.size());
  for (const auto& [pair, bytes] : demand)
    flows.push_back({pair.first, pair.second, bytes});
  return Coflow(combined_id, arrival, std::move(flows));
}

CombinedTrace CombineTraceByClass(const Trace& trace,
                                  const std::map<CoflowId, int>& class_of) {
  CombinedTrace out;
  out.trace.num_ports = trace.num_ports;
  std::map<int, std::vector<const Coflow*>> groups;
  for (const Coflow& c : trace.coflows) {
    auto it = class_of.find(c.id());
    if (it == class_of.end()) {
      out.trace.coflows.push_back(c);
    } else {
      groups[it->second].push_back(&c);
    }
  }
  for (const auto& [cls, members] : groups) {
    const CoflowId id = kCombinedIdBase + cls;
    out.trace.coflows.push_back(CombineCoflows(members, id));
    auto& ids = out.members[id];
    for (const Coflow* c : members) ids.push_back(c->id());
  }
  std::sort(out.trace.coflows.begin(), out.trace.coflows.end(),
            [](const Coflow& a, const Coflow& b) {
              return a.arrival() < b.arrival() ||
                     (a.arrival() == b.arrival() && a.id() < b.id());
            });
  out.trace.Validate();
  return out;
}

}  // namespace sunflow
