#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "exp/classify.h"
#include "trace/bounds.h"
#include "trace/coflow.h"
#include "trace/demand_matrix.h"
#include "trace/generator.h"
#include "trace/idleness.h"

#include "trace/parser.h"

namespace sunflow {
namespace {

Coflow MakeM2M() {
  // 2 senders x 2 receivers, distinct sizes.
  return Coflow(1, 0.0,
                {{0, 2, MB(10)}, {0, 3, MB(20)}, {1, 2, MB(30)}, {1, 3, MB(5)}});
}

TEST(Coflow, Aggregates) {
  const Coflow c = MakeM2M();
  EXPECT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.total_bytes(), MB(65));
  EXPECT_EQ(c.num_senders(), 2);
  EXPECT_EQ(c.num_receivers(), 2);
  EXPECT_EQ(c.max_port(), 4);
  EXPECT_DOUBLE_EQ(c.min_flow_bytes(), MB(5));
}

TEST(Coflow, Categories) {
  EXPECT_EQ(Coflow(1, 0, {{0, 1, 1}}).category(), CoflowCategory::kOneToOne);
  EXPECT_EQ(Coflow(2, 0, {{0, 1, 1}, {0, 2, 1}}).category(),
            CoflowCategory::kOneToMany);
  EXPECT_EQ(Coflow(3, 0, {{0, 2, 1}, {1, 2, 1}}).category(),
            CoflowCategory::kManyToOne);
  EXPECT_EQ(MakeM2M().category(), CoflowCategory::kManyToMany);
}

TEST(Coflow, SelfLoopFlowAllowed) {
  // in.i -> out.i is a valid circuit (distinct directions of one port).
  const Coflow c(1, 0, {{2, 2, MB(1)}});
  EXPECT_EQ(c.category(), CoflowCategory::kOneToOne);
}

TEST(Coflow, RejectsDuplicatePairs) {
  EXPECT_THROW(Coflow(1, 0, {{0, 1, 1}, {0, 1, 2}}), CheckFailure);
}

TEST(Coflow, RejectsNonPositiveBytes) {
  EXPECT_THROW(Coflow(1, 0, {{0, 1, 0}}), CheckFailure);
}

TEST(Coflow, RejectsNonFiniteBytesAndArrival) {
  EXPECT_THROW(Coflow(1, 0, {{0, 1, INFINITY}}), CheckFailure);
  EXPECT_THROW(Coflow(1, 0, {{0, 1, NAN}}), CheckFailure);
  EXPECT_THROW(Coflow(1, INFINITY, {{0, 1, 1}}), CheckFailure);
  EXPECT_THROW(Coflow(1, NAN, {{0, 1, 1}}), CheckFailure);
  EXPECT_THROW(Coflow(1, 0, {{0, 1, 1e308}, {0, 2, 1e308}}), CheckFailure);
}

TEST(Coflow, ScaledBytesPreservesStructure) {
  const Coflow c = MakeM2M();
  const Coflow s = c.ScaledBytes(2.0);
  EXPECT_EQ(s.size(), c.size());
  EXPECT_DOUBLE_EQ(s.total_bytes(), 2 * c.total_bytes());
  EXPECT_EQ(s.category(), c.category());
}

TEST(Bounds, PacketLowerBoundIsBusiestPort) {
  const Coflow c = MakeM2M();
  const Bandwidth b = Gbps(1);
  // in.0: 30 MB, in.1: 35 MB, out.2: 40 MB, out.3: 25 MB -> 40 MB.
  EXPECT_DOUBLE_EQ(PacketLowerBound(c, b), MB(40) / b);
}

TEST(Bounds, CircuitLowerBoundAddsDeltaPerFlow) {
  const Coflow c = MakeM2M();
  const Bandwidth b = Gbps(1);
  const Time d = Millis(10);
  // Every port carries two flows: busiest port is out.2 with 40 MB + 2δ.
  EXPECT_DOUBLE_EQ(CircuitLowerBound(c, b, d), MB(40) / b + 2 * d);
}

TEST(Bounds, CircuitBoundReducesToPacketWhenDeltaZero) {
  const Coflow c = MakeM2M();
  EXPECT_DOUBLE_EQ(CircuitLowerBound(c, Gbps(1), 0),
                   PacketLowerBound(c, Gbps(1)));
}

TEST(Bounds, LemmaTwoAlpha) {
  const Coflow c = MakeM2M();
  const Bandwidth b = Gbps(1);
  EXPECT_DOUBLE_EQ(LemmaTwoAlpha(c, b, Millis(10)),
                   Millis(10) / (MB(5) / b));
}

TEST(DemandMatrix, BuildsOverActivePorts) {
  const Coflow c(1, 0, {{5, 9, MB(10)}, {7, 9, MB(20)}});
  DemandMatrix m(c, Gbps(1));
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 1);
  EXPECT_EQ(m.InPort(0), 5);
  EXPECT_EQ(m.InPort(1), 7);
  EXPECT_EQ(m.OutPort(0), 9);
  EXPECT_DOUBLE_EQ(m.at(0, 0), MB(10) / Gbps(1));
  EXPECT_EQ(m.NonZeroCount(), 2);
}

TEST(DemandMatrix, MakeSquarePadsWithDummyPorts) {
  const Coflow c(1, 0, {{5, 9, MB(10)}, {7, 9, MB(20)}});
  DemandMatrix m(c, Gbps(1));
  m.MakeSquare();
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.OutPort(1), -1);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(DemandMatrix, LineSums) {
  DemandMatrix m({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3);
  EXPECT_DOUBLE_EQ(m.ColSum(1), 6);
  EXPECT_DOUBLE_EQ(m.MaxRowSum(), 7);
  EXPECT_DOUBLE_EQ(m.MaxColSum(), 6);
  EXPECT_DOUBLE_EQ(m.MaxLineSum(), 7);
  EXPECT_DOUBLE_EQ(m.Total(), 10);
}

TEST(Parser, ParsesBenchmarkFormat) {
  std::istringstream in(
      "150 2\n"
      "1 100 2 1 2 1 3:10\n"
      "2 250 1 5 2 6:4 7:2\n");
  const Trace trace = ParseCoflowBenchmark(in);
  EXPECT_EQ(trace.num_ports, 150);
  ASSERT_EQ(trace.coflows.size(), 2u);

  const Coflow& c1 = trace.coflows[0];
  EXPECT_EQ(c1.id(), 1);
  EXPECT_DOUBLE_EQ(c1.arrival(), 0.1);
  // 2 mappers x 1 reducer; 10 MB split across 2 mappers = 5 MB each.
  EXPECT_EQ(c1.size(), 2u);
  EXPECT_DOUBLE_EQ(c1.total_bytes(), MB(10));
  EXPECT_EQ(c1.category(), CoflowCategory::kManyToOne);

  const Coflow& c2 = trace.coflows[1];
  EXPECT_EQ(c2.size(), 2u);
  EXPECT_EQ(c2.category(), CoflowCategory::kOneToMany);
  EXPECT_DOUBLE_EQ(c2.total_bytes(), MB(6));
}

TEST(Parser, SortsByArrival) {
  std::istringstream in(
      "10 2\n"
      "1 500 1 1 1 2:1\n"
      "2 100 1 3 1 4:1\n");
  const Trace trace = ParseCoflowBenchmark(in);
  EXPECT_EQ(trace.coflows[0].id(), 2);
  EXPECT_EQ(trace.coflows[1].id(), 1);
}

TEST(Parser, MergesDuplicateRacks) {
  // The same reducer rack twice: demand must be aggregated.
  std::istringstream in(
      "10 1\n"
      "1 0 1 1 2 2:3 2:4\n");
  const Trace trace = ParseCoflowBenchmark(in);
  ASSERT_EQ(trace.coflows[0].size(), 1u);
  EXPECT_DOUBLE_EQ(trace.coflows[0].total_bytes(), MB(7));
}

TEST(Parser, RejectsBadInput) {
  std::istringstream empty("");
  EXPECT_THROW(ParseCoflowBenchmark(empty), std::runtime_error);
  std::istringstream bad_port(
      "4 1\n"
      "1 0 1 9 1 2:1\n");
  EXPECT_THROW(ParseCoflowBenchmark(bad_port), std::runtime_error);
  std::istringstream bad_token(
      "4 1\n"
      "1 0 1 1 1 2-1\n");
  EXPECT_THROW(ParseCoflowBenchmark(bad_token), std::runtime_error);
}

TEST(Parser, RoundTripsThroughWriter) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 20;
  cfg.num_ports = 30;
  const Trace original = GenerateSyntheticTrace(cfg);

  std::ostringstream out;
  WriteCoflowBenchmark(out, original);
  std::istringstream in(out.str());
  const Trace parsed = ParseCoflowBenchmark(in);

  EXPECT_EQ(parsed.num_ports, original.num_ports);
  ASSERT_EQ(parsed.coflows.size(), original.coflows.size());
  // Arrivals agree to ms rounding; byte totals to the writer's per-reducer
  // MB rounding (bounded by 0.5 MB per distinct destination port).
  for (std::size_t i = 0; i < parsed.coflows.size(); ++i) {
    const Coflow& a = original.coflows[i];
    const Coflow& b = parsed.coflows[i];
    EXPECT_NEAR(b.arrival(), a.arrival(), 1e-3);
    EXPECT_EQ(b.num_senders(), a.num_senders());
    EXPECT_EQ(b.num_receivers(), a.num_receivers());
    EXPECT_NEAR(b.total_bytes(), a.total_bytes(),
                MB(0.5) * a.num_receivers() + 1);
  }
}

TEST(Generator, DeterministicPerSeed) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 50;
  const Trace a = GenerateSyntheticTrace(cfg);
  const Trace b = GenerateSyntheticTrace(cfg);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].flows(), b.coflows[i].flows());
    EXPECT_DOUBLE_EQ(a.coflows[i].arrival(), b.coflows[i].arrival());
  }
}

TEST(Generator, MatchesRequestedShape) {
  SyntheticTraceConfig cfg;
  const Trace trace = GenerateSyntheticTrace(cfg);
  EXPECT_EQ(trace.num_ports, 150);
  EXPECT_EQ(trace.coflows.size(), 526u);
  // Flow sizes are MB-rounded with a 1 MB floor.
  for (const auto& c : trace.coflows) {
    for (const auto& f : c.flows()) {
      EXPECT_GE(f.bytes, MB(1) - 1);
      EXPECT_NEAR(f.bytes / 1e6, std::round(f.bytes / 1e6), 1e-9);
    }
  }
}

TEST(Generator, CategoryMixNearTable4) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 2000;  // enough samples to test the mix
  const Trace trace = GenerateSyntheticTrace(cfg);
  const auto breakdown = sunflow::exp::ClassifyTrace(trace);
  EXPECT_NEAR(breakdown[0].coflow_fraction, 0.234, 0.05);  // O2O
  EXPECT_NEAR(breakdown[1].coflow_fraction, 0.099, 0.05);  // O2M
  EXPECT_NEAR(breakdown[2].coflow_fraction, 0.401, 0.05);  // M2O
  EXPECT_NEAR(breakdown[3].coflow_fraction, 0.266, 0.05);  // M2M
  // Table 4: M2M carries ~99.9% of bytes.
  EXPECT_GT(breakdown[3].byte_fraction, 0.95);
}

TEST(Generator, PerturbationStaysWithinBand) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 50;
  const Trace base = GenerateSyntheticTrace(cfg);
  const Trace perturbed = PerturbFlowSizes(base, 0.05, MB(1), 99);
  ASSERT_EQ(perturbed.coflows.size(), base.coflows.size());
  for (std::size_t i = 0; i < base.coflows.size(); ++i) {
    const auto& bf = base.coflows[i].flows();
    const auto& pf = perturbed.coflows[i].flows();
    ASSERT_EQ(bf.size(), pf.size());
    for (std::size_t k = 0; k < bf.size(); ++k) {
      EXPECT_GE(pf[k].bytes, MB(1));
      EXPECT_LE(pf[k].bytes, bf[k].bytes * 1.0501);
      EXPECT_GE(pf[k].bytes, std::min(MB(1), bf[k].bytes * 0.9499));
    }
  }
}

TEST(Generator, BackToBackZeroesArrivals) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 10;
  const Trace t = ToBackToBack(GenerateSyntheticTrace(cfg));
  for (const auto& c : t.coflows) EXPECT_DOUBLE_EQ(c.arrival(), 0.0);
}

TEST(Idleness, FullyIdleBetweenBursts) {
  Trace trace;
  trace.num_ports = 4;
  // Two 1-second coflows (8 MB at 1 Gbps ≈ 0.064 s)... use explicit sizes:
  // TpL = bytes / B. 125 MB at 1 Gbps = 1 s.
  trace.coflows.push_back(Coflow(1, 0.0, {{0, 1, MB(125)}}));
  trace.coflows.push_back(Coflow(2, 3.0, {{2, 3, MB(125)}}));
  // Active: [0,1) and [3,4): busy 2 s of 4 s horizon -> idleness 0.5.
  EXPECT_NEAR(NetworkIdleness(trace, Gbps(1)), 0.5, 1e-9);
}

TEST(Idleness, ScalingHitsTarget) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 80;
  const Trace trace = GenerateSyntheticTrace(cfg);
  for (double target : {0.2, 0.4, 0.8}) {
    const auto scaled = ScaleTraceToIdleness(trace, Gbps(1), target, 0.01);
    EXPECT_NEAR(scaled.achieved_idleness, target, 0.02);
    // Structure preserved.
    EXPECT_EQ(scaled.trace.coflows.size(), trace.coflows.size());
  }
}

TEST(Idleness, MonotoneInByteFactor) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 40;
  const Trace trace = GenerateSyntheticTrace(cfg);
  const double idle1 = NetworkIdleness(ScaleTraceBytes(trace, 0.5), Gbps(1));
  const double idle2 = NetworkIdleness(ScaleTraceBytes(trace, 2.0), Gbps(1));
  EXPECT_GE(idle1, idle2);
}

TEST(Classify, Table4Shares) {
  Trace trace;
  trace.num_ports = 8;
  trace.coflows.push_back(Coflow(1, 0, {{0, 1, MB(1)}}));               // O2O
  trace.coflows.push_back(Coflow(2, 1, {{0, 1, MB(1)}, {0, 2, MB(1)}}));  // O2M
  trace.coflows.push_back(
      Coflow(3, 2, {{0, 2, MB(4)}, {1, 2, MB(4)}}));  // M2O
  trace.coflows.push_back(Coflow(
      4, 3, {{0, 2, MB(5)}, {0, 3, MB(5)}, {1, 2, MB(5)}, {1, 3, MB(5)}}));
  const auto b = sunflow::exp::ClassifyTrace(trace);
  EXPECT_DOUBLE_EQ(b[0].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[1].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[2].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[3].coflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(b[3].byte_fraction, 20.0 / 31.0);
}

TEST(Generator, DefaultCalibrationMatchesPaperWorkload) {
  // Locks the DESIGN.md §4.1 calibration: the default synthetic trace must
  // keep matching the paper's published workload statistics. A change to
  // the generator that silently shifts these shifts every experiment.
  SyntheticTraceConfig cfg;  // paper-scale defaults
  const Trace trace =
      PerturbFlowSizes(GenerateSyntheticTrace(cfg), 0.05, MB(1), cfg.seed + 1);
  // Network idleness at 1 Gbps: paper 12%.
  EXPECT_NEAR(NetworkIdleness(trace, Gbps(1)), 0.12, 0.03);
  // M2M byte share: paper 99.94%.
  const auto breakdown = sunflow::exp::ClassifyTrace(trace);
  EXPECT_GT(breakdown[3].byte_fraction, 0.97);
  // Long coflows (avg subflow >= 5 MB): paper 25.2% of coflows, 98.8% of
  // bytes.
  int long_count = 0;
  Bytes long_bytes = 0, total = 0;
  for (const Coflow& c : trace.coflows) {
    total += c.total_bytes();
    if (c.total_bytes() / static_cast<double>(c.size()) >= MB(5)) {
      ++long_count;
      long_bytes += c.total_bytes();
    }
  }
  const double long_frac =
      static_cast<double>(long_count) / static_cast<double>(trace.coflows.size());
  EXPECT_NEAR(long_frac, 0.252, 0.04);
  EXPECT_GT(long_bytes / total, 0.97);
  // Lemma-2 alpha: min flow is 1 MB at 1 Gbps with delta 10 ms -> 1.25.
  Bytes min_flow = kTimeInf;
  for (const Coflow& c : trace.coflows)
    min_flow = std::min(min_flow, c.min_flow_bytes());
  EXPECT_NEAR(Millis(10) / (min_flow / Gbps(1)), 1.25, 0.01);
}

TEST(TraceValidate, CatchesPortOverflow) {
  Trace trace;
  trace.num_ports = 2;
  trace.coflows.push_back(Coflow(1, 0, {{0, 5, MB(1)}}));
  EXPECT_THROW(trace.Validate(), CheckFailure);
}

TEST(TraceValidate, CatchesUnsortedArrivals) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, 5.0, {{0, 1, MB(1)}}));
  trace.coflows.push_back(Coflow(2, 1.0, {{2, 3, MB(1)}}));
  EXPECT_THROW(trace.Validate(), CheckFailure);
}

TEST(TraceValidate, CatchesNegativeArrival) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.push_back(Coflow(1, -0.5, {{0, 1, MB(1)}}));
  EXPECT_THROW(trace.Validate(), CheckFailure);
}

TEST(Parser, RejectsNegativeReducerSize) {
  std::istringstream in(
      "4 1\n"
      "1 0 1 1 1 2:-5\n");
  EXPECT_THROW(ParseCoflowBenchmark(in), std::runtime_error);
}

TEST(Parser, RejectsDuplicateCoflowIds) {
  std::istringstream in(
      "4 2\n"
      "7 0 1 1 1 2:1\n"
      "7 100 1 3 1 4:1\n");
  try {
    ParseCoflowBenchmark(in);
    FAIL() << "duplicate id must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate coflow id 7"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, RejectsTruncatedLine) {
  // Reducer count promises two tokens; the line ends after one.
  std::istringstream in(
      "4 1\n"
      "1 0 1 1 2 2:1\n");
  try {
    ParseCoflowBenchmark(in);
    FAIL() << "truncated line must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing reducer token"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, ErrorsNameSourceAndLine) {
  std::istringstream in(
      "4 1\n"
      "1 0 1 1 1 2:0\n");
  try {
    ParseCoflowBenchmark(in, "fb-trace.txt");
    FAIL() << "zero-size reducer must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fb-trace.txt"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

// Expects `text` to be rejected with the parser's located error.
void ExpectParseErrorAt(const std::string& text, int line) {
  std::istringstream in(text);
  try {
    ParseCoflowBenchmark(in, "bad.txt");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string want =
        "parse error in bad.txt at line " + std::to_string(line);
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(Parser, RejectsNonFiniteReducerSize) {
  ExpectParseErrorAt("4 1\n1 0 1 1 1 2:inf\n", 2);
  ExpectParseErrorAt("4 1\n1 0 1 1 1 2:nan\n", 2);
  ExpectParseErrorAt("4 1\n1 0 1 1 1 2:1e305\n", 2);  // inf once in bytes
}

TEST(Parser, RejectsPortCountAboveInt32Max) {
  // 2^32 + 1 used to wrap to a valid 1-port fabric.
  ExpectParseErrorAt("4294967297 1\n1 0 1 1 1 1:1\n", 1);
}

TEST(Parser, DoesNotReserveFromTheHeaderCoflowCount) {
  std::istringstream in("4 99999999999999\n1 0 1 1 1 2:1\n");
  const Trace trace = ParseCoflowBenchmark(in);
  EXPECT_EQ(trace.coflows.size(), 1u);
}

TEST(Parser, FileErrorsNameThePath) {
  const std::string path = testing::TempDir() + "/malformed_trace.txt";
  std::ofstream(path) << "4 1\n1 0 1 99 1 2:1\n";  // mapper rack beyond fabric
  try {
    ParseCoflowBenchmarkFile(path);
    FAIL() << "bad mapper rack must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "parse error should carry the file path: " << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sunflow
