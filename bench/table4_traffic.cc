// Table 4: Coflows classified by sender-to-receiver ratio.
//
// Paper (Facebook trace): O2O 23.4% of coflows / 0.005% of bytes,
// O2M 9.9% / 0.024%, M2O 40.1% / 0.028%, M2M 26.6% / 99.943%.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "exp/classify.h"

int main(int argc, char** argv) {
  using namespace sunflow;
  // --threads is accepted for CLI uniformity across bench targets but
  // classification is pure counting; there is nothing to parallelize.
  // --trace_out is accepted for the same reason: nothing is scheduled, so
  // the trace stays empty (the session warns on stderr).
  bench::BenchSession session(
      argc, argv,
      {.name = "table4_traffic",
       .help = "Table 4: coflow classification",
       .banner =
           "Table 4 — Coflow classification by sender-to-receiver ratio"});
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();

  const auto breakdown = exp::ClassifyTrace(w.trace);

  TextTable table("Coflow% and Bytes% by category");
  table.SetHeader({"Category", "O2O", "O2M", "M2O", "M2M"});
  std::vector<std::string> coflow_row = {"Coflow%"};
  std::vector<std::string> bytes_row = {"Bytes%"};
  std::vector<std::string> count_row = {"Count"};
  for (const auto& share : breakdown) {
    coflow_row.push_back(TextTable::Fmt(share.coflow_fraction * 100, 1));
    bytes_row.push_back(TextTable::Fmt(share.byte_fraction * 100, 3));
    count_row.push_back(std::to_string(share.count));
  }
  table.AddRow(coflow_row);
  table.AddRow(bytes_row);
  table.AddRow(count_row);
  table.AddFootnote("paper: Coflow% 23.4 / 9.9 / 40.1 / 26.6");
  table.AddFootnote("paper: Bytes%  0.005 / 0.024 / 0.028 / 99.943");
  table.Print(std::cout);
  return session.Finish();
}
