#include "trace/coflow.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace sunflow {

const char* ToString(CoflowCategory c) {
  switch (c) {
    case CoflowCategory::kOneToOne:
      return "O2O";
    case CoflowCategory::kOneToMany:
      return "O2M";
    case CoflowCategory::kManyToOne:
      return "M2O";
    case CoflowCategory::kManyToMany:
      return "M2M";
  }
  return "?";
}

Coflow::Coflow(CoflowId id, Time arrival, std::vector<Flow> flows)
    : id_(id), arrival_(arrival), flows_(std::move(flows)) {
  SUNFLOW_CHECK_MSG(std::isfinite(arrival_),
                    "non-finite arrival in coflow " << id_);
  std::set<PortId> senders, receivers;
  std::set<std::pair<PortId, PortId>> pairs;
  for (const Flow& f : flows_) {
    SUNFLOW_CHECK_MSG(f.src >= 0 && f.dst >= 0,
                      "negative port in coflow " << id_);
    SUNFLOW_CHECK_MSG(f.bytes > 0 && std::isfinite(f.bytes),
                      "non-positive or non-finite flow size in coflow " << id_);
    SUNFLOW_CHECK_MSG(pairs.insert({f.src, f.dst}).second,
                      "duplicate (src,dst)=(" << f.src << "," << f.dst
                                              << ") in coflow " << id_);
    senders.insert(f.src);
    receivers.insert(f.dst);
    total_bytes_ += f.bytes;
    max_port_ = std::max({max_port_, static_cast<PortId>(f.src + 1),
                          static_cast<PortId>(f.dst + 1)});
  }
  SUNFLOW_CHECK_MSG(std::isfinite(total_bytes_),
                    "non-finite total size in coflow " << id_);
  num_senders_ = static_cast<int>(senders.size());
  num_receivers_ = static_cast<int>(receivers.size());
}

CoflowCategory Coflow::category() const {
  SUNFLOW_CHECK(!flows_.empty());
  const bool one_sender = num_senders_ == 1;
  const bool one_receiver = num_receivers_ == 1;
  if (one_sender && one_receiver) return CoflowCategory::kOneToOne;
  if (one_sender) return CoflowCategory::kOneToMany;
  if (one_receiver) return CoflowCategory::kManyToOne;
  return CoflowCategory::kManyToMany;
}

Time Coflow::AvgProcessingTime(Bandwidth b) const {
  SUNFLOW_CHECK(b > 0);
  if (flows_.empty()) return 0;
  return total_bytes_ / b / static_cast<double>(flows_.size());
}

Bytes Coflow::min_flow_bytes() const {
  SUNFLOW_CHECK(!flows_.empty());
  Bytes m = flows_.front().bytes;
  for (const Flow& f : flows_) m = std::min(m, f.bytes);
  return m;
}

Coflow Coflow::ScaledBytes(double factor) const {
  SUNFLOW_CHECK(factor > 0);
  std::vector<Flow> scaled = flows_;
  for (Flow& f : scaled) f.bytes *= factor;
  return Coflow(id_, arrival_, std::move(scaled));
}

Coflow Coflow::WithArrival(Time arrival) const {
  return Coflow(id_, arrival, flows_);
}

std::string Coflow::DebugString() const {
  std::ostringstream os;
  os << "Coflow{id=" << id_ << " arr=" << arrival_ << " |C|=" << flows_.size()
     << " " << ToString(category()) << " bytes=" << total_bytes_ << "}";
  return os.str();
}

Bytes Trace::total_bytes() const {
  Bytes total = 0;
  for (const auto& c : coflows) total += c.total_bytes();
  return total;
}

void Trace::Validate() const {
  for (std::size_t i = 0; i < coflows.size(); ++i) {
    const Coflow& c = coflows[i];
    SUNFLOW_CHECK_MSG(c.max_port() <= num_ports,
                      c.DebugString() << " references port beyond fabric size "
                                      << num_ports);
    SUNFLOW_CHECK_MSG(c.arrival() >= 0, "negative arrival");
    if (i > 0) {
      SUNFLOW_CHECK_MSG(coflows[i - 1].arrival() <= c.arrival() + kTimeEps,
                        "coflows not sorted by arrival");
    }
  }
}

}  // namespace sunflow
