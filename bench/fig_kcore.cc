// K-core OCS sweep: joint plane-aware planning ("circuit") vs the
// Sunflow-per-core baseline ("kcore") on the same K-plane fabric,
// K ∈ {1, 2, 4, 8} by default.
//
// For each K the fabric is FabricSpec::Uniform(K, δ, B/K) — the aggregate
// capacity is held constant across the sweep (pass --split_bandwidth=false
// for K full-rate planes instead), so the CCT columns isolate the
// scheduling question: how much does pinning each coflow to one core (the
// K-core literature's O(K)-style baseline, sched/kcore.h) cost against
// letting the planner pick the earliest feasible plane per reservation?
// Every replay is traced into a memory sink and audited (obs/audit.h)
// with its demand — per-plane port exclusivity, δ paid once and in full
// per circuit, and every byte served; any violation fails the bench, so
// the committed baseline doubles as a physical-consistency gate for the
// K-core execution path.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/fabric.h"
#include "core/policy.h"
#include "obs/audit.h"
#include "obs/trace_sink.h"
#include "sim/engine/scenario.h"

namespace {

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sunflow;
  bench::BenchSession session(
      argc, argv,
      {.name = "fig_kcore",
       .help = "K-core OCS: joint plane-aware planning vs Sunflow-per-core"});
  const std::string k_csv = session.flags().GetString(
      "k_list", "1,2,4,8", "comma-separated plane counts to sweep");
  const double bandwidth_gbps = session.flags().GetDouble(
      "bandwidth_gbps", 1.0, "aggregate fabric bandwidth in Gbit/s");
  const double delta_ms = session.flags().GetDouble(
      "delta_ms", 10.0, "circuit reconfiguration delay per plane, ms");
  const bool split_bandwidth = session.flags().GetBool(
      "split_bandwidth", true,
      "true: each of the K planes runs at B/K (constant aggregate "
      "capacity); false: K full-rate planes");
  if (session.done()) return 0;
  const bench::Workload& w = session.workload();

  const auto policy = MakeShortestFirstPolicy();
  const Bandwidth bandwidth = Gbps(bandwidth_gbps);
  const Time delta = Millis(delta_ms);

  TextTable table(std::string("joint vs per-core CCT (") +
                  (split_bandwidth ? "aggregate capacity held constant"
                                   : "K full-rate planes") +
                  ")");
  table.SetHeader({"K", "joint total CCT", "percore total CCT",
                   "percore/joint", "joint makespan", "percore makespan"});

  std::size_t audit_violations = 0;
  std::vector<obs::Event> last_joint_events;
  for (const int k : ParseIntList(k_csv)) {
    engine::EngineConfig ec;
    ec.sunflow.bandwidth = bandwidth;
    ec.sunflow.delta = delta;
    ec.sunflow.fabric = FabricSpec::Uniform(
        k, delta, split_bandwidth ? bandwidth / k : bandwidth);

    double totals[2] = {0, 0};
    double makespans[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      obs::MemorySink sink;
      ec.sink = &sink;
      const engine::EngineResult result =
          engine::ScenarioRegistry::Global().Run(
              mode == 0 ? "circuit" : "kcore", w.trace, policy.get(), ec);
      for (const auto& [id, cct] : result.cct) totals[mode] += cct;
      makespans[mode] = result.makespan;

      const obs::AuditDemand demand = AuditDemandOf(w.trace, ec.sunflow);
      const obs::AuditReport audit = obs::AuditTrace(
          sink.events(), -1, obs::AuditScope::kSharedFabric, &demand);
      for (const obs::AuditViolation& v : audit.violations) {
        std::fprintf(stderr, "K=%d %s audit [%s] %s\n", k,
                     mode == 0 ? "joint" : "percore", v.invariant.c_str(),
                     v.detail.c_str());
      }
      audit_violations += audit.violations.size();
      // Every run is traced through a private sink for the audit. With
      // --trace_out the session tracer gets the joint replay of the last
      // K in the sweep — one physically consistent run, so the exported
      // file itself passes `trace_inspect --audit` (concatenating all
      // 2·|K| replays would re-admit every coflow per run).
      if (mode == 0) last_joint_events = sink.events();
    }

    table.AddRow({std::to_string(k), TextTable::Fmt(totals[0], 2),
                  TextTable::Fmt(totals[1], 2),
                  TextTable::Fmt(totals[0] > 0 ? totals[1] / totals[0] : 0, 4),
                  TextTable::Fmt(makespans[0], 2),
                  TextTable::Fmt(makespans[1], 2)});
    const std::string prefix = "kcore.K" + std::to_string(k);
    session.AddManifestValue(prefix + ".joint_total_cct", totals[0]);
    session.AddManifestValue(prefix + ".percore_total_cct", totals[1]);
    session.AddManifestValue(
        prefix + ".percore_over_joint",
        totals[0] > 0 ? totals[1] / totals[0] : 0);
  }
  table.AddFootnote(
      "every replay audited per plane (port exclusivity, delta paid once "
      "and in full, every byte served); violations fail the bench");
  table.Print(std::cout);
  session.AddManifestValue("kcore.audit_violations",
                           static_cast<double>(audit_violations));
  if (session.sink() != nullptr) {
    for (const obs::Event& e : last_joint_events) session.sink()->OnEvent(e);
  }

  if (audit_violations > 0) {
    std::fprintf(stderr, "FAILED: %zu audit violation(s)\n",
                 audit_violations);
    session.Finish();
    return 1;
  }
  return session.Finish();
}
