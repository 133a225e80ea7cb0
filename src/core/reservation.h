// Circuit reservation types shared by the Sunflow scheduler and executors.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace sunflow {

/// One scheduled circuit [in, out] occupying both ports during
/// [start, end). The first `setup` seconds are the reconfiguration delay δ
/// (no data moves); the remainder transmits at the plane's link rate. A
/// reservation with setup == 0 continues an already-established circuit.
/// `plane` is the switch plane (core) carrying the circuit; 0 on the
/// classic single-plane fabric (core/fabric.h).
struct CircuitReservation {
  PortId in = 0;
  PortId out = 0;
  Time start = 0;
  Time end = 0;
  Time setup = 0;
  CoflowId coflow = -1;
  PlaneId plane = 0;

  Time length() const { return end - start; }
  Time transmit_begin() const { return start + setup; }
  Time transmit_length() const { return end - start - setup; }

  std::string DebugString() const;
};

}  // namespace sunflow
