// Coverage for the reporting/table utilities and experiment-runner helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/table.h"
#include "exp/classify.h"
#include "exp/inter_runner.h"
#include "exp/intra_runner.h"
#include "trace/generator.h"

namespace sunflow {
namespace {

TEST(TextTable, AlignsColumnsAndPrintsFootnotes) {
  TextTable table("demo");
  table.SetHeader({"a", "bbbb", "c"});
  table.AddRow({"1", "2", "3"});
  table.AddRow({"wide-cell", "x", "y"});
  table.AddFootnote("note");
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("wide-cell"), std::string::npos);
  EXPECT_NE(text.find("* note"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable table("demo");
  table.SetHeader({"a", "b"});
  EXPECT_THROW(table.AddRow({"only-one"}), CheckFailure);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Fmt(2.0, 0), "2");
  EXPECT_EQ(TextTable::FmtPct(0.5), "50.0%");
}

TEST(PrintCdfAscii, RendersGrid) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::ostringstream os;
  PrintCdfAscii(os, "demo", xs, 0, 6, 30, 5);
  const std::string text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find('+'), std::string::npos);
}

TEST(PrintCdf, DownsamplesLongInputs) {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(i);
  std::ostringstream os;
  PrintCdf(os, "big", xs, 10);
  // Roughly 10-12 rows, not 1000.
  const std::string text = os.str();
  const auto lines = std::count(text.begin(), text.end(), '\n');
  EXPECT_LT(lines, 20);
}

TEST(IntraRunner, CollectExtractsField) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 10;
  tc.num_ports = 8;
  const Trace trace = GenerateSyntheticTrace(tc);
  exp::IntraRunConfig cfg;
  const auto run = RunIntra(trace, exp::IntraAlgorithm::kSunflow, cfg);
  const auto ccts =
      run.Collect([](const exp::IntraRecord& r) { return r.cct; });
  ASSERT_EQ(ccts.size(), 10u);
  for (double v : ccts) EXPECT_GT(v, 0.0);
}

TEST(IntraRunner, RecordsMatchCoflows) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 12;
  tc.num_ports = 8;
  const Trace trace = GenerateSyntheticTrace(tc);
  exp::IntraRunConfig cfg;
  const auto run = RunIntra(trace, exp::IntraAlgorithm::kSunflow, cfg);
  ASSERT_EQ(run.records.size(), trace.coflows.size());
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    EXPECT_EQ(run.records[i].id, trace.coflows[i].id());
    EXPECT_EQ(run.records[i].num_flows, trace.coflows[i].size());
    EXPECT_EQ(run.records[i].category, trace.coflows[i].category());
  }
}

TEST(IntraRunner, LongCoflowThreshold) {
  exp::IntraRecord rec;
  rec.pavg = 0.05;  // 50 ms
  EXPECT_TRUE(exp::IsLongCoflow(rec, Millis(10)));          // 4δ = 40 ms
  EXPECT_FALSE(exp::IsLongCoflow(rec, Millis(10), 40.0));   // 40δ = 400 ms
  EXPECT_TRUE(exp::IsLongCoflow(/*pavg=*/1.0, Millis(10)));
}

TEST(IntraRunner, AllStopFlagChangesBaselineResults) {
  SyntheticTraceConfig tc;
  tc.num_coflows = 8;
  tc.num_ports = 8;
  const Trace trace = GenerateSyntheticTrace(tc);
  exp::IntraRunConfig fast;
  exp::IntraRunConfig slow;
  slow.all_stop = true;
  const auto run_fast = RunIntra(trace, exp::IntraAlgorithm::kSolstice, fast);
  const auto run_slow = RunIntra(trace, exp::IntraAlgorithm::kSolstice, slow);
  double fast_total = 0, slow_total = 0;
  for (const auto& r : run_fast.records) fast_total += r.cct;
  for (const auto& r : run_slow.records) slow_total += r.cct;
  EXPECT_LE(fast_total, slow_total + 1e-9);
}

TEST(InterRunner, DifferenceHelpers) {
  exp::InterComparison cmp;
  cmp.sunflow = {{1, 2.0}, {2, 4.0}};
  cmp.varys = {{1, 1.0}, {2, 8.0}};
  const auto diffs =
      exp::InterComparison::Differences(cmp.sunflow, cmp.varys);
  EXPECT_DOUBLE_EQ(diffs[0], 1.0);
  EXPECT_DOUBLE_EQ(diffs[1], -4.0);
  EXPECT_DOUBLE_EQ(cmp.AvgCct(cmp.sunflow), 3.0);
}

}  // namespace
}  // namespace sunflow
