// Dense demand-matrix view of a Coflow, restricted to its active ports.
//
// The matrix-decomposition schedulers (Solstice, TMS, Edmonds) operate on a
// dense K_in × K_out matrix of processing times. Building it over *active*
// ports only (rather than the full N-port fabric) keeps them polynomial in
// the coflow footprint, and a port map converts back to fabric port ids.
#pragma once

#include <vector>

#include "common/units.h"
#include "trace/coflow.h"

namespace sunflow {

class DemandMatrix {
 public:
  /// Builds the processing-time matrix p_ij = d_ij / bandwidth over the
  /// coflow's active ports.
  DemandMatrix(const Coflow& coflow, Bandwidth bandwidth);

  /// Builds a square matrix from explicit entries (tests, synthetic inputs).
  DemandMatrix(std::vector<std::vector<Time>> entries);

  int rows() const { return static_cast<int>(m_.size()); }
  int cols() const { return rows() == 0 ? 0 : static_cast<int>(m_[0].size()); }

  Time at(int r, int c) const { return m_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]; }
  Time& at(int r, int c) { return m_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]; }

  Time RowSum(int r) const;
  Time ColSum(int c) const;
  Time MaxRowSum() const;
  Time MaxColSum() const;
  /// max(max row sum, max col sum) — the packet lower bound of the matrix.
  Time MaxLineSum() const;
  Time Total() const;
  bool IsZero(Time eps = kTimeEps) const;

  /// Fabric port id for matrix row r / column c.
  PortId InPort(int r) const { return in_ports_[static_cast<std::size_t>(r)]; }
  PortId OutPort(int c) const { return out_ports_[static_cast<std::size_t>(c)]; }

  /// Pads with zero rows/columns so the matrix is square; padded lines map
  /// to port id -1 (dummy ports, never touched by real flows).
  void MakeSquare();

 private:
  std::vector<std::vector<Time>> m_;
  std::vector<PortId> in_ports_;
  std::vector<PortId> out_ports_;
};

}  // namespace sunflow
