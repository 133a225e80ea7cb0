// Fabric model: K parallel optical switch planes (K-core OCS).
//
// Modern optical fabrics ship several switch planes ("cores") between the
// same port pairs, each with its own reconfiguration delay δ and link
// rate. A FabricSpec describes those planes; the planner assigns every
// circuit to one plane (earliest-feasible-plane greedy, core/sunflow.cc)
// and the reservation table keeps one timeline per (side, plane, port).
//
// K=1 equivalence contract: an empty FabricSpec means the classic
// single-plane fabric, where plane 0 inherits (delta, bandwidth) from
// SunflowConfig. FabricSpec::Uniform(1, delta, bandwidth) must produce
// bit-identical schedules to the empty spec — plane-0 arithmetic uses the
// IEEE identities x * 1.0 == x and x / 1.0 == x, so no float path changes
// (docs/engine.md "Fabric model").
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"

namespace sunflow {

/// One optical switch plane: its reconfiguration delay and link rate.
struct PlaneSpec {
  Time delta = 0;        ///< per-circuit setup cost δ on this plane
  Bandwidth rate = 0;    ///< bytes/second a circuit on this plane carries

  friend bool operator==(const PlaneSpec&, const PlaneSpec&) = default;
};

/// An ordered list of switch planes. Plane ids are indices into `planes`.
struct FabricSpec {
  std::vector<PlaneSpec> planes;

  /// K identical planes. Uniform(1, delta, rate) is the explicit spelling
  /// of the default single-plane fabric.
  static FabricSpec Uniform(int k, Time delta, Bandwidth rate) {
    FabricSpec f;
    f.planes.assign(static_cast<std::size_t>(k), PlaneSpec{delta, rate});
    return f;
  }

  /// The planes circuits are assigned to: `planes`, or for the empty
  /// (default) spec the classic single plane inheriting SunflowConfig's
  /// delta and bandwidth.
  std::vector<PlaneSpec> EffectivePlanes(Time delta, Bandwidth rate) const {
    if (planes.empty()) return {PlaneSpec{delta, rate}};
    return planes;
  }

  int num_planes() const {
    return planes.empty() ? 1 : static_cast<int>(planes.size());
  }

  friend bool operator==(const FabricSpec&, const FabricSpec&) = default;
};

}  // namespace sunflow
