#include <gtest/gtest.h>

#include "common/assert.h"
#include "common/rng.h"
#include "core/prt.h"

namespace sunflow {
namespace {

using Side = PortReservationTable::Side;

CircuitReservation Res(PortId in, PortId out, Time start, Time end,
                       Time setup = 0.01, CoflowId coflow = 1) {
  return {in, out, start, end, setup, coflow};
}

TEST(Prt, FreshPortsAreFree) {
  PortReservationTable prt(4);
  EXPECT_TRUE(prt.FreeAt(Side::kIn, 0, 0.0));
  EXPECT_TRUE(prt.FreeAt(Side::kOut, 3, 100.0));
  EXPECT_EQ(prt.NextReservationAfter(0, 1, 0.0).start, kTimeInf);
  EXPECT_EQ(prt.NextReleaseAfter(0.0), kTimeInf);
}

TEST(Prt, ReservationOccupiesBothPorts) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 1.0, 2.0));
  EXPECT_FALSE(prt.FreeAt(Side::kIn, 0, 1.5));
  EXPECT_FALSE(prt.FreeAt(Side::kOut, 1, 1.5));
  EXPECT_TRUE(prt.FreeAt(Side::kIn, 1, 1.5));   // other input port untouched
  EXPECT_TRUE(prt.FreeAt(Side::kOut, 0, 1.5));  // other direction untouched
}

TEST(Prt, HalfOpenIntervals) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 1.0, 2.0));
  EXPECT_TRUE(prt.FreeAt(Side::kIn, 0, 0.999999));
  EXPECT_FALSE(prt.FreeAt(Side::kIn, 0, 1.0));  // busy at start
  EXPECT_TRUE(prt.FreeAt(Side::kIn, 0, 2.0));   // free at end
}

TEST(Prt, NextReservationStart) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 5.0, 6.0));
  prt.Reserve(Res(2, 3, 3.0, 4.0));
  EXPECT_DOUBLE_EQ(prt.NextReservationAfter(0, 3, 0.0).start, 3.0);
  EXPECT_DOUBLE_EQ(prt.NextReservationAfter(0, 1, 0.0).start, 5.0);
  EXPECT_DOUBLE_EQ(prt.NextReservationAfter(2, 3, 3.5).start, kTimeInf);
}

TEST(Prt, NextReleaseAfter) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 0.0, 2.0));
  prt.Reserve(Res(2, 3, 0.0, 1.0));
  EXPECT_DOUBLE_EQ(prt.NextReleaseAfter(0.0), 1.0);
  EXPECT_DOUBLE_EQ(prt.NextReleaseAfter(1.0), 2.0);
  EXPECT_DOUBLE_EQ(prt.NextReleaseAfter(2.0), kTimeInf);
}

TEST(Prt, RejectsOverlapOnInputPort) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 0.0, 2.0));
  EXPECT_THROW(prt.Reserve(Res(0, 2, 1.0, 3.0)), CheckFailure);
}

TEST(Prt, RejectsOverlapOnOutputPort) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 0.0, 2.0));
  EXPECT_THROW(prt.Reserve(Res(2, 1, 1.5, 3.0)), CheckFailure);
}

TEST(Prt, AllowsBackToBackReservations) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 0.0, 2.0));
  prt.Reserve(Res(0, 1, 2.0, 4.0));  // starts exactly at previous end
  prt.CheckInvariants();
  EXPECT_EQ(prt.reservations().size(), 2u);
}

TEST(Prt, RejectsEmptyAndMalformed) {
  PortReservationTable prt(4);
  EXPECT_THROW(prt.Reserve(Res(0, 1, 2.0, 2.0)), CheckFailure);
  EXPECT_THROW(prt.Reserve(Res(0, 1, 2.0, 1.0)), CheckFailure);
  // setup longer than the reservation
  EXPECT_THROW(prt.Reserve({0, 1, 0.0, 1.0, 2.0, 1}), CheckFailure);
  EXPECT_THROW(prt.Reserve(Res(-1, 1, 0.0, 1.0)), CheckFailure);
  EXPECT_THROW(prt.Reserve(Res(0, 9, 0.0, 1.0)), CheckFailure);
}

TEST(Prt, TimelinesSorted) {
  PortReservationTable prt(4);
  prt.Reserve(Res(0, 1, 4.0, 5.0));
  prt.Reserve(Res(0, 2, 0.0, 1.0));
  prt.Reserve(Res(0, 3, 2.0, 3.0));
  // Inserted out of order, input port 0's slots are probed in start order
  // (output port 0 holds none).
  std::vector<Time> starts;
  for (Time t = -1.0;;) {
    t = prt.NextReservationAfter(0, 0, t).start;
    if (t == kTimeInf) break;
    starts.push_back(t);
  }
  EXPECT_EQ(starts, (std::vector<Time>{0.0, 2.0, 4.0}));
  EXPECT_DOUBLE_EQ(prt.BusyUntil(Side::kIn, 0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(prt.BusyUntil(Side::kIn, 0, 2.5), 3.0);
  EXPECT_DOUBLE_EQ(prt.BusyUntil(Side::kIn, 0, 4.5), 5.0);
}

// Property: random non-overlapping insertions keep invariants; random
// overlapping insertions always throw.
TEST(Prt, RandomizedInvariants) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    PortReservationTable prt(6);
    int accepted = 0;
    for (int k = 0; k < 100; ++k) {
      const PortId in = static_cast<PortId>(rng.UniformInt(0, 5));
      const PortId out = static_cast<PortId>(rng.UniformInt(0, 5));
      const Time start = rng.Uniform(0, 50);
      const Time len = rng.Uniform(0.1, 5.0);
      try {
        prt.Reserve({in, out, start, start + len, 0.01, 1});
        ++accepted;
      } catch (const CheckFailure&) {
        // overlap — expected for colliding draws
      }
      prt.CheckInvariants();
    }
    EXPECT_GT(accepted, 0);
  }
}

}  // namespace
}  // namespace sunflow
