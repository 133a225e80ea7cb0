#include "trace/coflow.h"

#include <algorithm>
#include <bit>
#include <cmath>
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
  // The (src, dst) keys seen so far, in an open-addressing table at most
  // half full. Checked ports are non-negative, so no key is kEmpty.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  const std::size_t slots = std::bit_ceil(2 * flows_.size() + 1);
  const int shift = 64 - std::bit_width(slots - 1);  // top log2(slots) bits
  std::vector<std::uint64_t> seen(slots, kEmpty);
  for (const Flow& f : flows_) {
    SUNFLOW_CHECK_MSG(f.src >= 0 && f.dst >= 0,
                      "negative port in coflow " << id_);
    SUNFLOW_CHECK_MSG(f.bytes > 0 && std::isfinite(f.bytes),
                      "non-positive or non-finite flow size in coflow " << id_);
    const std::uint64_t key = static_cast<std::uint64_t>(f.src) << 32 |
                              static_cast<std::uint64_t>(f.dst);
    std::size_t i = (key * 0x9E3779B97F4A7C15u) >> shift;  // Fibonacci hash
    while (seen[i] != kEmpty && seen[i] != key) i = (i + 1) & (slots - 1);
    SUNFLOW_CHECK_MSG(seen[i] != key, "duplicate (src,dst)=("
                                          << f.src << "," << f.dst
                                          << ") in coflow " << id_);
    seen[i] = key;
    one_sender_ = one_sender_ && f.src == flows_.front().src;
    one_receiver_ = one_receiver_ && f.dst == flows_.front().dst;
    total_bytes_ += f.bytes;
    max_port_ = std::max({max_port_, static_cast<PortId>(f.src + 1),
                          static_cast<PortId>(f.dst + 1)});
  }
  SUNFLOW_CHECK_MSG(std::isfinite(total_bytes_),
                    "non-finite total size in coflow " << id_);
}

CoflowCategory Coflow::category() const {
  SUNFLOW_CHECK(!flows_.empty());
  if (one_sender_ && one_receiver_) return CoflowCategory::kOneToOne;
  if (one_sender_) return CoflowCategory::kOneToMany;
  if (one_receiver_) return CoflowCategory::kManyToOne;
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
