// Physical units and time arithmetic used throughout the library.
//
// Time is represented as double seconds; bytes and bandwidth as doubles
// (fluid flow model, matching the paper's flow-level simulator). All
// tolerance-sensitive comparisons go through the helpers below so the
// epsilon policy lives in exactly one place.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace sunflow {

using PortId = std::int32_t;  ///< 0-based switch port index.
using CoflowId = std::int64_t;
/// 0-based switch plane (core) index in a K-core fabric. The classic
/// single-switch fabric is plane 0 everywhere.
using PlaneId = std::int32_t;

/// Seconds. Simulations span microseconds (δ = 10 µs) to hours (trace
/// length), comfortably inside double precision.
using Time = double;
/// Bytes, fractional under the fluid model.
using Bytes = double;
/// Bytes per second.
using Bandwidth = double;

inline constexpr Time kTimeEps = 1e-9;   ///< 1 ns — far below any δ we model.
inline constexpr Time kTimeInf = std::numeric_limits<Time>::infinity();
inline constexpr Bytes kBytesEps = 1.0;  ///< Demands below one byte are done.

// --- Unit constructors -----------------------------------------------------

inline constexpr Bytes MB(double v) { return v * 1e6; }
inline constexpr Bytes GB(double v) { return v * 1e9; }
inline constexpr Bandwidth Gbps(double v) { return v * 1e9 / 8.0; }
inline constexpr Time Seconds(double v) { return v; }
inline constexpr Time Millis(double v) { return v * 1e-3; }
inline constexpr Time Micros(double v) { return v * 1e-6; }

// --- Tolerant comparisons --------------------------------------------------

inline bool TimeEq(Time a, Time b, Time eps = kTimeEps) {
  return std::fabs(a - b) <= eps;
}
inline bool TimeLess(Time a, Time b, Time eps = kTimeEps) {
  return a < b - eps;
}
inline bool TimeLessEq(Time a, Time b, Time eps = kTimeEps) {
  return a <= b + eps;
}

}  // namespace sunflow
