#include "trace/demand_matrix.h"

#include <algorithm>

namespace sunflow {

DemandMatrix::DemandMatrix(const Coflow& coflow, Bandwidth bandwidth) {
  SUNFLOW_CHECK(bandwidth > 0);
  // Row / column of each fabric port: -1 if the coflow leaves it idle;
  // active ports, marked 0 first, take rows and columns in port order.
  std::vector<int> row(static_cast<std::size_t>(coflow.max_port()), -1);
  std::vector<int> col(row.size(), -1);
  for (const Flow& f : coflow.flows()) row[f.src] = col[f.dst] = 0;
  for (PortId p = 0; p < coflow.max_port(); ++p) {
    if (row[p] == 0) {
      row[p] = static_cast<int>(in_ports_.size());
      in_ports_.push_back(p);
    }
    if (col[p] == 0) {
      col[p] = static_cast<int>(out_ports_.size());
      out_ports_.push_back(p);
    }
  }
  m_.assign(in_ports_.size(), std::vector<Time>(out_ports_.size(), 0));
  for (const Flow& f : coflow.flows())
    m_[row[f.src]][col[f.dst]] = f.bytes / bandwidth;
}

DemandMatrix::DemandMatrix(std::vector<std::vector<Time>> entries)
    : m_(std::move(entries)) {
  const std::size_t cols = m_.empty() ? 0 : m_[0].size();
  for (const auto& row : m_) SUNFLOW_CHECK(row.size() == cols);
  for (std::size_t i = 0; i < m_.size(); ++i)
    in_ports_.push_back(static_cast<PortId>(i));
  for (std::size_t j = 0; j < cols; ++j)
    out_ports_.push_back(static_cast<PortId>(j));
}

Time DemandMatrix::RowSum(int r) const {
  Time s = 0;
  for (Time v : m_[static_cast<std::size_t>(r)]) s += v;
  return s;
}

Time DemandMatrix::ColSum(int c) const {
  Time s = 0;
  for (const auto& row : m_) s += row[static_cast<std::size_t>(c)];
  return s;
}

Time DemandMatrix::MaxRowSum() const {
  Time best = 0;
  for (int r = 0; r < rows(); ++r) best = std::max(best, RowSum(r));
  return best;
}

Time DemandMatrix::MaxColSum() const {
  Time best = 0;
  for (int c = 0; c < cols(); ++c) best = std::max(best, ColSum(c));
  return best;
}

Time DemandMatrix::MaxLineSum() const {
  return std::max(MaxRowSum(), MaxColSum());
}

Time DemandMatrix::Total() const {
  Time s = 0;
  for (const auto& row : m_)
    for (Time v : row) s += v;
  return s;
}

bool DemandMatrix::IsZero(Time eps) const {
  for (const auto& row : m_)
    for (Time v : row)
      if (v > eps) return false;
  return true;
}

void DemandMatrix::MakeSquare() {
  const int n = std::max(rows(), cols());
  for (auto& row : m_) row.resize(static_cast<std::size_t>(n), 0);
  while (static_cast<int>(m_.size()) < n)
    m_.emplace_back(static_cast<std::size_t>(n), 0);
  while (static_cast<int>(in_ports_.size()) < n) in_ports_.push_back(-1);
  while (static_cast<int>(out_ports_.size()) < n) out_ports_.push_back(-1);
}

}  // namespace sunflow
