// Out-of-core replay at scale: generate → external-sort → streamed replay
// of a trace that never sits in memory, with a peak-RSS assertion proving
// the bound.
//
// The pipeline is the million-coflow path from docs/traces.md:
//   1. GenerateSyntheticTrace streams i.i.d.-arrival coflows straight to a
//      block-structured .sft file (O(block) writer memory, emission order
//      deliberately NOT arrival order).
//   2. ExternalSortTrace produces the arrival-ordered replay input with a
//      bounded in-memory run budget (--run_mb).
//   3. RunScenarioStream replays the circuit engine pulling arrivals
//      lazily, streaming completions out through a CompletionSink — engine
//      memory is O(active coflows), independent of the trace length.
//
// --max_rss_mb (default 0 = report only) turns the RSS ceiling into a
// hard gate: the process exits 1 when getrusage peak RSS exceeds it. CI
// runs the 100k-coflow smoke with a ceiling that a whole-trace load would
// blow through.
//
//   trace_scale --coflows=1000000 --run_mb=64 --max_rss_mb=1024
#include <chrono>
#include <cstdio>
#include <memory>

#ifdef __unix__
#include <sys/resource.h>
#endif

#include "bench_util.h"
#include "common/assert.h"
#include "core/policy.h"
#include "runtime/thread_pool.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "trace/extsort.h"
#include "trace/generator.h"
#include "trace/stream.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double MbPerSec(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? bytes / 1e6 / seconds : 0;
}

long PeakRssKb() {
#ifdef __unix__
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
#else
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sunflow;
  bench::BenchSession session(
      argc, argv,
      {.name = "trace_scale",
       .help = "Out-of-core pipeline: generate, external sort, streamed "
               "replay under an RSS ceiling",
       .banner = "Trace scale — bounded-memory million-coflow replay",
       .use_timeline = true,
       .load_workload = false});
  CliFlags& flags = session.flags();
  const auto coflows = flags.GetInt("coflows", 20000, "coflows to replay");
  const auto ports = flags.GetInt("ports", 150, "fabric ports");
  const auto seed = flags.GetInt("seed", 20161212, "generator seed");
  const auto block_kb = flags.GetInt("block_kb", 256, "stream block, KiB");
  const auto run_mb = flags.GetInt("run_mb", 64, "extsort run budget, MB");
  const auto max_rss_mb = flags.GetInt(
      "max_rss_mb", 0,
      "fail (exit 1) if peak RSS exceeds this many MB; 0 = report only");
  const Time delta =
      Millis(flags.GetDouble("delta_ms", 10, "reconfiguration delay"));
  const Bandwidth bandwidth =
      Gbps(flags.GetDouble("bandwidth_gbps", 1, "per-port link rate"));
  const bool keep =
      flags.GetBool("keep", false, "keep the generated .sft files");
  if (session.done()) return 0;
  const int threads = session.threads();

  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1)
    pool = std::make_unique<runtime::ThreadPool>(threads);
  TraceStreamOptions stream_options;
  stream_options.block_bytes = static_cast<std::size_t>(block_kb) << 10;
  stream_options.pool = pool.get();

  SyntheticTraceConfig cfg;
  cfg.num_coflows = static_cast<int>(coflows);
  cfg.num_ports = static_cast<PortId>(ports);
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.horizon = 3600.0 * cfg.num_coflows / 526.0;  // paper arrival density
  cfg.iid_arrivals = true;  // scrambled emission — the sorter earns its keep

  const std::string unsorted = "trace_scale_unsorted.sft";
  const std::string sorted = "trace_scale_sorted.sft";

  // 1. Generate straight to disk.
  auto begin = Clock::now();
  std::uint64_t payload_bytes = 0;
  {
    TraceStreamOptions wo = stream_options;
    wo.pool = nullptr;
    TraceWriter writer(unsorted, cfg.num_ports, wo);
    GenerateSyntheticTrace(cfg, [&](Coflow&& c) { writer.Append(c); });
    writer.Close();
    payload_bytes = writer.stats().payload_bytes;
  }
  const double write_s = SecondsSince(begin);
  std::printf("generate: %lld coflows, %.1f MB payload, %.2f s (%.1f MB/s)\n",
              static_cast<long long>(coflows), payload_bytes / 1e6, write_s,
              MbPerSec(payload_bytes, write_s));

  // 2. External sort into arrival order.
  begin = Clock::now();
  ExtSortOptions sort_options;
  sort_options.stream = stream_options;
  sort_options.run_payload_bytes = static_cast<std::size_t>(run_mb) << 20;
  const auto sort_stats = ExternalSortTrace(unsorted, sorted, sort_options);
  const double sort_s = SecondsSince(begin);
  std::printf("extsort : %llu run(s), %llu merge pass(es), %.2f s "
              "(%.1f MB/s)\n",
              static_cast<unsigned long long>(sort_stats.runs),
              static_cast<unsigned long long>(sort_stats.merge_passes),
              sort_s, MbPerSec(sort_stats.payload_bytes, sort_s));

  // 3. Streamed replay with a completion sink: nothing accumulates
  // per-coflow — completions reduce to count/sum on the way out.
  begin = Clock::now();
  std::uint64_t completed = 0;
  double cct_sum = 0, cct_max = 0;
  engine::EngineConfig ec;
  ec.sunflow.bandwidth = bandwidth;
  ec.sunflow.delta = delta;
  ec.sink = session.sink();
  ec.timeline = session.timeline();
  const auto policy = MakeShortestFirstPolicy();
  const auto scenario =
      engine::MakeCircuitScenario(cfg.num_ports, *policy, ec);
  {
    TraceReader reader(sorted, stream_options);
    const auto result = engine::RunScenarioStream(
        reader, *scenario, ec.sink, ec.timeline,
        [&](const engine::CompletionRecord& r) {
          ++completed;
          cct_sum += r.cct;
          cct_max = std::max(cct_max, r.cct);
        });
    SUNFLOW_CHECK_MSG(result.completed == static_cast<std::uint64_t>(coflows),
                      "streamed replay lost coflows");
  }
  const double replay_s = SecondsSince(begin);
  SUNFLOW_CHECK_MSG(completed == static_cast<std::uint64_t>(coflows),
                    "completion sink missed coflows");
  const double read_mb_s = MbPerSec(payload_bytes, replay_s);
  std::printf("replay  : %llu completions, avg CCT %.3f s, max %.3f s, "
              "%.2f s (%.0f coflows/s)\n",
              static_cast<unsigned long long>(completed),
              completed > 0 ? cct_sum / static_cast<double>(completed) : 0,
              cct_max, replay_s,
              replay_s > 0 ? static_cast<double>(completed) / replay_s : 0);

  const long rss_kb = PeakRssKb();
  std::printf("peak RSS: %.1f MB (trace payload %.1f MB)\n", rss_kb / 1024.0,
              payload_bytes / 1e6);
  if (!keep) {
    std::remove(unsorted.c_str());
    std::remove(sorted.c_str());
  }

  session.SetManifestSeed(cfg.seed);
  session.AddManifestValue("coflows", static_cast<double>(coflows));
  session.AddManifestValue("ports", static_cast<double>(ports));
  session.AddManifestValue("trace.payload_mb", payload_bytes / 1e6);
  session.AddManifestValue("trace.write_mb_s", MbPerSec(payload_bytes, write_s));
  session.AddManifestValue("trace.sort_mb_s",
                           MbPerSec(sort_stats.payload_bytes, sort_s));
  session.AddManifestValue("trace.read_mb_s", read_mb_s);
  session.AddManifestValue("trace.sort_runs",
                           static_cast<double>(sort_stats.runs));
  session.AddManifestValue(
      "replay.coflows_per_s",
      replay_s > 0 ? static_cast<double>(completed) / replay_s : 0);
  session.AddManifestValue("replay.avg_cct_s",
                           completed > 0 ? cct_sum / completed : 0);

  if (max_rss_mb > 0 && rss_kb > max_rss_mb * 1024) {
    std::fprintf(stderr,
                 "RSS GATE FAILED: peak %.1f MB exceeds --max_rss_mb=%lld\n",
                 rss_kb / 1024.0, static_cast<long long>(max_rss_mb));
    return 1;
  }
  if (max_rss_mb > 0) std::printf("RSS gate OK (<= %lld MB)\n",
                                  static_cast<long long>(max_rss_mb));
  return 0;
}
