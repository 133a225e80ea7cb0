#include "exp/intra_runner.h"

#include "common/assert.h"
#include "runtime/sweep.h"
#include "sched/edmonds.h"
#include "sched/executor.h"
#include "sched/solstice.h"
#include "sched/tms.h"
#include "trace/bounds.h"
#include "trace/demand_matrix.h"

namespace sunflow::exp {

const char* ToString(IntraAlgorithm a) {
  switch (a) {
    case IntraAlgorithm::kSunflow:
      return "Sunflow";
    case IntraAlgorithm::kSolstice:
      return "Solstice";
    case IntraAlgorithm::kTms:
      return "TMS";
    case IntraAlgorithm::kEdmonds:
      return "Edmonds";
  }
  return "?";
}

std::vector<double> IntraRunResult::Collect(
    double (*fn)(const IntraRecord&)) const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(fn(r));
  return out;
}

namespace {

IntraRecord BaseRecord(const Coflow& coflow, const IntraRunConfig& config) {
  IntraRecord rec;
  rec.id = coflow.id();
  rec.category = coflow.category();
  rec.num_flows = coflow.size();
  rec.bytes = coflow.total_bytes();
  rec.pavg = coflow.AvgProcessingTime(config.bandwidth);
  rec.tcl = CircuitLowerBound(coflow, config.bandwidth, config.delta);
  rec.tpl = PacketLowerBound(coflow, config.bandwidth);
  return rec;
}

void RunSunflowOne(const Coflow& coflow, PortId num_ports,
                   const IntraRunConfig& config, IntraRecord& rec,
                   obs::TraceSink* sink) {
  SunflowConfig sc;
  sc.bandwidth = config.bandwidth;
  sc.delta = config.delta;
  sc.fabric = config.fabric;
  sc.order = config.order;
  sc.shuffle_seed = config.shuffle_seed;
  const Coflow at_zero = coflow.WithArrival(0);
  const SunflowSchedule schedule =
      ScheduleSingleCoflow(at_zero, num_ports, sc, sink);
  rec.cct = schedule.completion_time.at(coflow.id());
  rec.switching_count = schedule.reservation_count.at(coflow.id());
}

void RunBaselineOne(const Coflow& coflow, IntraAlgorithm algorithm,
                    const IntraRunConfig& config, IntraRecord& rec,
                    obs::TraceSink* sink) {
  DemandMatrix demand(coflow, config.bandwidth);
  demand.MakeSquare();
  AssignmentSchedule schedule;
  switch (algorithm) {
    case IntraAlgorithm::kSolstice:
      schedule = ScheduleSolstice(demand);
      break;
    case IntraAlgorithm::kTms:
      schedule = ScheduleTms(demand);
      break;
    case IntraAlgorithm::kEdmonds:
      schedule = ScheduleEdmonds(demand);
      break;
    case IntraAlgorithm::kSunflow:
      SUNFLOW_CHECK(false);
  }
  const ExecutionResult exec =
      config.all_stop ? ExecuteAllStop(demand, schedule, config.delta,
                                       /*start=*/0, sink, coflow.id())
                      : ExecuteNotAllStop(demand, schedule, config.delta,
                                          /*start=*/0, sink, coflow.id());
  rec.cct = exec.cct;
  rec.switching_count = exec.circuit_setups;
}

}  // namespace

IntraRunResult RunIntra(const Trace& trace, IntraAlgorithm algorithm,
                        const IntraRunConfig& config) {
  IntraRunResult result;
  result.algorithm = ToString(algorithm);
  result.config = config;

  // Each coflow is evaluated in isolation, which makes this the canonical
  // sweep: one task per coflow, records written to their own slots, events
  // buffered per task. Results are bit-identical at any thread count.
  runtime::SweepConfig sweep_cfg;
  sweep_cfg.threads = config.threads;
  sweep_cfg.base_seed = config.shuffle_seed;
  runtime::SweepRunner runner(sweep_cfg);
  auto sweep = runner.Run<IntraRecord>(
      trace.coflows.size(), config.sink != nullptr,
      [&](runtime::TaskContext& ctx) {
        const Coflow& coflow = trace.coflows[ctx.index];
        IntraRecord rec = BaseRecord(coflow, config);
        obs::Emit(ctx.sink, {.type = obs::EventType::kCoflowAdmitted,
                             .t = 0,
                             .coflow = coflow.id()});
        if (algorithm == IntraAlgorithm::kSunflow) {
          RunSunflowOne(coflow, trace.num_ports, config, rec, ctx.sink);
        } else {
          RunBaselineOne(coflow, algorithm, config, rec, ctx.sink);
        }
        obs::Emit(ctx.sink, {.type = obs::EventType::kCoflowCompleted,
                             .t = rec.cct,
                             .coflow = coflow.id(),
                             .value = rec.cct});
        return rec;
      });
  result.records = std::move(sweep.results);

  // The paper's framing is sequential ("a Coflow arrives only after the
  // previous one is finished"): merge the per-task buffers in task order,
  // shifting each coflow onto the shared end-to-end clock — the same
  // stream a serial run emits through an OffsetSink.
  if (config.sink != nullptr) {
    obs::OffsetSink sequenced(config.sink);
    Time clock = 0;
    for (std::size_t i = 0; i < sweep.events.size(); ++i) {
      sequenced.set_offset(clock);
      for (const obs::Event& e : sweep.events[i]) sequenced.OnEvent(e);
      clock += result.records[i].cct;
    }
  }
  return result;
}

bool IsLongCoflow(const IntraRecord& record, Time delta, double multiple) {
  return record.pavg > multiple * delta;
}

bool IsLongCoflow(Time pavg, Time delta, double multiple) {
  return pavg > multiple * delta;
}

}  // namespace sunflow::exp
