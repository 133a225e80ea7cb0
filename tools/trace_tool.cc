// sunflow_trace_tool — inspect, generate, convert, sort and benchmark
// coflow traces, in both the text coflow-benchmark format and the
// block-compressed stream format (.sft, trace/stream.h).
//
// Subcommands (first positional argument):
//   info      print fabric size, classification (Table 4 view), idleness,
//             size distributions; stream files are summarized in
//             O(block) memory
//   generate  write a synthetic FB-like trace; --out writes text,
//             --stream_out streams straight to .sft in O(block) memory
//   convert   text <-> stream, directions sniffed from the input magic
//   sort      external-memory (arrival, id) sort of a stream file
//   cat       print per-coflow summary lines from a stream file
//   bench     write/read/sort throughput (MB/s, coflows/s) + manifest
//   scale     rescale a trace's bytes to a target network idleness
//   bounds    per-coflow TpL / TcL listing (CSV on stdout)
//
// Examples:
//   sunflow_trace_tool info --trace=FB2010-1Hr-150-0.txt
//   sunflow_trace_tool generate --coflows=1000000 --iid_arrivals
//       --stream_out=/tmp/big.sft
//   sunflow_trace_tool sort --in=/tmp/big.sft --out=/tmp/big.sorted.sft
//   sunflow_trace_tool convert --in=/tmp/big.sorted.sft --out=/tmp/big.txt
//   sunflow_trace_tool bench --coflows=200000 --threads=8
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "common/cli.h"
#include "common/rng.h"
#include "common/version.h"
#include "common/stats.h"
#include "common/table.h"
#include "exp/classify.h"
#include "obs/manifest.h"
#include "runtime/thread_pool.h"
#include "trace/bounds.h"
#include "trace/extsort.h"
#include "trace/generator.h"
#include "trace/idleness.h"
#include "trace/parser.h"
#include "trace/stream.h"

using namespace sunflow;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double MbPerSec(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? bytes / 1e6 / seconds : 0;
}

StreamCodec CodecFromFlags(CliFlags& flags) {
  const std::string name = flags.GetString(
      "codec", "store",
      "stream block codec: store | deflate (smaller files for whole-MB "
      "sizes, slower writes)");
  if (name == "store") return StreamCodec::kStore;
  if (name == "deflate") return StreamCodec::kDeflate;
  throw std::runtime_error("unknown --codec '" + name + "'");
}

TraceStreamOptions StreamOptionsFromFlags(CliFlags& flags,
                                          runtime::ThreadPool* pool) {
  TraceStreamOptions o;
  o.block_bytes = static_cast<std::size_t>(
                      flags.GetInt("block_kb", 256, "stream block size, KiB"))
                  << 10;
  o.codec = CodecFromFlags(flags);
  o.readahead_blocks = static_cast<std::size_t>(
      flags.GetInt("readahead", 4, "reader look-ahead, blocks"));
  o.pool = pool;
  return o;
}

/// The reader decode pool behind --threads (0/1 = synchronous decode).
std::unique_ptr<runtime::ThreadPool> PoolFromFlags(CliFlags& flags) {
  const auto n = flags.GetInt(
      "threads", 1, "stream decode/prefetch threads (<=1 = synchronous)");
  if (n <= 1) return nullptr;
  return std::make_unique<runtime::ThreadPool>(static_cast<int>(n));
}

Trace Load(CliFlags& flags) {
  const std::string path = flags.GetString("trace", "", "input trace file");
  if (!path.empty()) {
    return IsTraceStreamFile(path) ? ReadTraceStream(path)
                                   : ParseCoflowBenchmarkFile(path);
  }
  SyntheticTraceConfig cfg;
  cfg.num_coflows =
      static_cast<int>(flags.GetInt("coflows", 526, "synthetic coflows"));
  cfg.num_ports =
      static_cast<PortId>(flags.GetInt("ports", 150, "fabric ports"));
  cfg.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", 20161212, "synthetic seed"));
  Trace t = GenerateSyntheticTrace(cfg);
  const double perturb = flags.GetDouble("perturb", 0.05, "size perturbation");
  if (perturb > 0) t = PerturbFlowSizes(t, perturb, MB(1), cfg.seed + 1);
  return t;
}

/// Streaming `info` for .sft files: one pass, O(block) memory — works on
/// traces far larger than RAM.
int StreamInfo(const std::string& path, CliFlags& flags) {
  auto pool = PoolFromFlags(flags);
  TraceReader reader(path, StreamOptionsFromFlags(flags, pool.get()));
  std::array<std::uint64_t, 4> count{};
  std::array<double, 4> bytes{};
  double min_arrival = 0, max_arrival = 0;
  std::uint64_t flows = 0;
  bool sorted = true;
  Time prev = 0;
  Coflow c;
  bool first = true;
  while (reader.Next(c)) {
    const auto cat = static_cast<std::size_t>(c.category());
    ++count[cat];
    bytes[cat] += c.total_bytes();
    flows += c.size();
    if (first) {
      min_arrival = max_arrival = c.arrival();
      first = false;
    } else {
      min_arrival = std::min(min_arrival, c.arrival());
      max_arrival = std::max(max_arrival, c.arrival());
      if (c.arrival() < prev) sorted = false;
    }
    prev = c.arrival();
  }
  const auto& st = reader.stats();
  double total_bytes = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    total_bytes += bytes[i];
    total += count[i];
  }
  std::printf("stream file: %s\n", path.c_str());
  std::printf("ports: %d\ncoflows: %llu\nflows: %llu\ntotal bytes: %.2f GB\n",
              reader.num_ports(), static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(flows), total_bytes / 1e9);
  std::printf("blocks: %llu (payload %.1f MB, file %.1f MB)\n",
              static_cast<unsigned long long>(st.blocks),
              st.payload_bytes / 1e6, st.file_bytes / 1e6);
  std::printf("arrivals: [%.3f s, %.3f s], %s\n", min_arrival, max_arrival,
              sorted ? "sorted" : "NOT sorted (run `sort` before replay)");
  TextTable table("Classification (Table 4 view)");
  table.SetHeader({"", "O2O", "O2M", "M2O", "M2M"});
  std::vector<std::string> row1 = {"Coflow%"}, row2 = {"Bytes%"};
  for (std::size_t i = 0; i < 4; ++i) {
    row1.push_back(TextTable::Fmt(
        total > 0 ? 100.0 * static_cast<double>(count[i]) / total : 0, 1));
    row2.push_back(TextTable::Fmt(
        total_bytes > 0 ? 100.0 * bytes[i] / total_bytes : 0, 3));
  }
  table.AddRow(row1);
  table.AddRow(row2);
  table.Print(std::cout);
  return 0;
}

int Info(CliFlags& flags) {
  const std::string path = flags.GetString("trace", "", "input trace file");
  if (!path.empty() && IsTraceStreamFile(path)) return StreamInfo(path, flags);
  const Trace trace = Load(flags);
  const Bandwidth b = Gbps(flags.GetDouble("bandwidth_gbps", 1, "link rate"));

  std::printf("ports: %d\ncoflows: %zu\ntotal bytes: %.2f GB\n",
              trace.num_ports, trace.coflows.size(),
              trace.total_bytes() / 1e9);
  std::printf("network idleness at %.0f Gbps: %.1f%%\n",
              b * 8 / 1e9, NetworkIdleness(trace, b) * 100);

  const auto breakdown = exp::ClassifyTrace(trace);
  TextTable table("Classification (Table 4 view)");
  table.SetHeader({"", "O2O", "O2M", "M2O", "M2M"});
  std::vector<std::string> row1 = {"Coflow%"}, row2 = {"Bytes%"};
  for (const auto& share : breakdown) {
    row1.push_back(TextTable::Fmt(share.coflow_fraction * 100, 1));
    row2.push_back(TextTable::Fmt(share.byte_fraction * 100, 3));
  }
  table.AddRow(row1);
  table.AddRow(row2);
  table.Print(std::cout);

  std::vector<double> sizes, widths;
  for (const Coflow& c : trace.coflows) {
    sizes.push_back(c.total_bytes());
    widths.push_back(static_cast<double>(c.size()));
  }
  std::printf("coflow bytes: %s\n",
              stats::ToString(stats::Summarize(sizes)).c_str());
  std::printf("coflow |C|  : %s\n",
              stats::ToString(stats::Summarize(widths)).c_str());
  return 0;
}

/// ±perturb jitter on one coflow's flows — the streaming counterpart of
/// PerturbFlowSizes (identical draw sequence when coflows pass through in
/// trace order, which default generation order is).
Coflow PerturbCoflow(Rng& rng, const Coflow& c, double fraction,
                     Bytes min_bytes) {
  std::vector<Flow> flows = c.flows();
  for (Flow& f : flows) {
    f.bytes = std::max(min_bytes,
                       f.bytes * (1.0 + rng.Uniform(-fraction, fraction)));
  }
  return Coflow(c.id(), c.arrival(), std::move(flows));
}

int Generate(CliFlags& flags) {
  const std::string stream_out = flags.GetString(
      "stream_out", "",
      "write a .sft stream directly (O(block) memory — use for "
      "million-coflow traces)");
  if (!stream_out.empty()) {
    SyntheticTraceConfig cfg;
    cfg.num_coflows = static_cast<int>(
        flags.GetInt("coflows", 526, "synthetic coflows"));
    cfg.num_ports =
        static_cast<PortId>(flags.GetInt("ports", 150, "fabric ports"));
    cfg.seed = static_cast<std::uint64_t>(
        flags.GetInt("seed", 20161212, "synthetic seed"));
    cfg.horizon = flags.GetDouble(
        "horizon", cfg.horizon * cfg.num_coflows / 526.0,
        "arrival horizon, seconds (default keeps the paper's density)");
    cfg.iid_arrivals = flags.GetBool(
        "iid_arrivals", false,
        "draw arrivals i.i.d. uniform (emission order is then NOT arrival "
        "order; sort before replay)");
    const double perturb =
        flags.GetDouble("perturb", 0.05, "size perturbation");
    TraceWriter writer(stream_out, cfg.num_ports,
                       StreamOptionsFromFlags(flags, nullptr));
    Rng perturb_rng(cfg.seed + 1);
    GenerateSyntheticTrace(cfg, [&](Coflow&& c) {
      writer.Append(perturb > 0
                        ? PerturbCoflow(perturb_rng, c, perturb, MB(1))
                        : c);
    });
    writer.Close();
    std::printf("wrote %llu coflows (%.1f MB payload, %.1f MB on disk) "
                "to %s\n",
                static_cast<unsigned long long>(writer.stats().coflows),
                writer.stats().payload_bytes / 1e6,
                writer.stats().file_bytes / 1e6, stream_out.c_str());
    return 0;
  }
  const Trace trace = Load(flags);
  const std::string out = flags.GetString("out", "", "output file");
  if (out.empty()) {
    std::cerr << "generate: --out=<file> or --stream_out=<file> required\n";
    return 2;
  }
  std::ofstream f(out);
  WriteCoflowBenchmark(f, trace);
  std::printf("wrote %zu coflows to %s\n", trace.coflows.size(),
              out.c_str());
  return 0;
}

int Convert(CliFlags& flags) {
  const std::string in = flags.GetString("in", "", "input trace (text/.sft)");
  const std::string out = flags.GetString("out", "", "output trace");
  if (in.empty() || out.empty()) {
    std::cerr << "convert: --in=<file> --out=<file> required\n";
    return 2;
  }
  auto pool = PoolFromFlags(flags);
  const TraceStreamOptions options = StreamOptionsFromFlags(flags, pool.get());
  if (IsTraceStreamFile(in)) {
    // Stream -> text, one coflow at a time (the text header needs the
    // coflow count, so the file must have been Close()d).
    TraceReader reader(in, options);
    if (!reader.size_hint().has_value()) {
      std::cerr << "convert: " << in << " was not closed (no coflow count); "
                << "re-write it first\n";
      return 2;
    }
    std::ofstream f(out);
    if (!f) throw std::runtime_error("cannot open " + out);
    WriteCoflowBenchmarkHeader(f, reader.num_ports(), *reader.size_hint());
    Coflow c;
    while (reader.Next(c)) WriteCoflowBenchmarkLine(f, c);
    f.flush();
    if (!f) throw std::runtime_error("failed writing " + out);
    std::printf("converted %llu coflows %s -> %s (text)\n",
                static_cast<unsigned long long>(reader.stats().coflows),
                in.c_str(), out.c_str());
  } else {
    const Trace trace = ParseCoflowBenchmarkFile(in);
    TraceStreamOptions wo = options;
    wo.pool = nullptr;
    WriteTraceStream(out, trace, wo);
    std::printf("converted %zu coflows %s -> %s (stream)\n",
                trace.coflows.size(), in.c_str(), out.c_str());
  }
  return 0;
}

int Sort(CliFlags& flags) {
  const std::string in = flags.GetString("in", "", "input stream file");
  const std::string out = flags.GetString("out", "", "output stream file");
  if (in.empty() || out.empty()) {
    std::cerr << "sort: --in=<file.sft> --out=<file.sft> required\n";
    return 2;
  }
  auto pool = PoolFromFlags(flags);
  ExtSortOptions options;
  options.stream = StreamOptionsFromFlags(flags, pool.get());
  options.run_payload_bytes = static_cast<std::size_t>(flags.GetInt(
                                  "run_mb", 64, "in-memory run budget, MB"))
                              << 20;
  options.fan_in = static_cast<std::size_t>(
      flags.GetInt("fan_in", 16, "streams merged per pass"));
  options.keep_runs =
      flags.GetBool("keep_runs", false, "keep spilled run files");
  const auto stats = ExternalSortTrace(in, out, options);
  std::printf(
      "sorted %llu coflows (%.1f MB payload) in %llu run(s), %llu merge "
      "pass(es)\n",
      static_cast<unsigned long long>(stats.coflows),
      stats.payload_bytes / 1e6, static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.merge_passes));
  std::printf("run phase %.2f s (%.1f MB/s), merge phase %.2f s (%.1f MB/s)\n",
              stats.run_seconds,
              MbPerSec(stats.payload_bytes, stats.run_seconds),
              stats.merge_seconds,
              MbPerSec(stats.payload_bytes, stats.merge_seconds));
  return 0;
}

int Cat(CliFlags& flags) {
  const std::string in = flags.GetString("in", "", "input stream file");
  if (in.empty()) {
    std::cerr << "cat: --in=<file.sft> required\n";
    return 2;
  }
  const auto limit = flags.GetInt("limit", 0, "max coflows to print (0=all)");
  auto pool = PoolFromFlags(flags);
  TraceReader reader(in, StreamOptionsFromFlags(flags, pool.get()));
  std::printf("coflow_id,arrival_s,category,flows,bytes\n");
  Coflow c;
  std::int64_t printed = 0;
  while (reader.Next(c)) {
    std::printf("%lld,%.6f,%s,%zu,%.0f\n", static_cast<long long>(c.id()),
                c.arrival(), ToString(c.category()), c.size(),
                c.total_bytes());
    if (limit > 0 && ++printed >= limit) break;
  }
  return 0;
}

int Bench(CliFlags& flags, int argc, char** argv) {
  auto manifest = obs::RunManifest::Begin("trace_io", argc, argv);
  const auto coflows = flags.GetInt("coflows", 20000, "coflows to generate");
  const auto ports = flags.GetInt("ports", 150, "fabric ports");
  const auto seed = flags.GetInt("seed", 20161212, "generator seed");
  const auto threads =
      flags.GetInt("threads", 1, "decode/prefetch threads (<=1 = sync)");
  const std::string dir =
      flags.GetString("dir", ".", "scratch directory for bench files");
  const bool keep = flags.GetBool("keep", false, "keep bench files");
  const std::string manifest_out = flags.GetString(
      "manifest_out", "trace_io.manifest.json", "run manifest (empty=skip)");
  // Ignored workload flag accepted for harness compatibility.
  flags.GetDouble("perturb", 0.05, "unused (harness compatibility)");

  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(
      static_cast<int>(threads));
  const TraceStreamOptions options = StreamOptionsFromFlags(flags, pool.get());
  ExtSortOptions sort_options;
  sort_options.stream = options;
  sort_options.run_payload_bytes = static_cast<std::size_t>(flags.GetInt(
                                      "run_mb", 32, "in-memory run budget, MB"))
                                   << 20;
  sort_options.fan_in = static_cast<std::size_t>(
      flags.GetInt("fan_in", 16, "streams merged per pass"));

  const std::string unsorted = dir + "/trace_io_unsorted.sft";
  const std::string sorted = dir + "/trace_io_sorted.sft";

  SyntheticTraceConfig cfg;
  cfg.num_coflows = static_cast<int>(coflows);
  cfg.num_ports = static_cast<PortId>(ports);
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.horizon = 3600.0 * cfg.num_coflows / 526.0;  // paper arrival density
  cfg.iid_arrivals = true;  // unsorted emission — exercises the sorter

  // 1. Generate straight to disk (write path).
  auto begin = Clock::now();
  std::uint64_t payload_bytes = 0;
  {
    TraceStreamOptions wo = options;
    wo.pool = nullptr;
    TraceWriter writer(unsorted, cfg.num_ports, wo);
    GenerateSyntheticTrace(cfg, [&](Coflow&& c) { writer.Append(c); });
    writer.Close();
    payload_bytes = writer.stats().payload_bytes;
  }
  const double write_s = SecondsSince(begin);

  // 2. Full scan (read path, with --threads of decode look-ahead).
  begin = Clock::now();
  std::uint64_t read_coflows = 0;
  {
    TraceReader reader(unsorted, options);
    Coflow c;
    while (reader.Next(c)) ++read_coflows;
  }
  const double read_s = SecondsSince(begin);

  // 3. External sort (run generation + k-way merge).
  begin = Clock::now();
  const auto sort_stats = ExternalSortTrace(unsorted, sorted, sort_options);
  const double sort_s = SecondsSince(begin);

  // 4. Streaming verification: sorted order and conserved count.
  std::uint64_t verify_coflows = 0;
  bool is_sorted = true;
  {
    TraceReader reader(sorted, options);
    Coflow c;
    Time prev = -1;
    while (reader.Next(c)) {
      if (c.arrival() < prev) is_sorted = false;
      prev = c.arrival();
      ++verify_coflows;
    }
  }
  const bool ok = is_sorted && verify_coflows == read_coflows &&
                  read_coflows == static_cast<std::uint64_t>(coflows);

  const double write_mb_s = MbPerSec(payload_bytes, write_s);
  const double read_mb_s = MbPerSec(payload_bytes, read_s);
  const double sort_mb_s = MbPerSec(sort_stats.payload_bytes, sort_s);
  std::printf("trace I/O bench: %lld coflows, %.1f MB payload, codec %s, "
              "%lld thread(s)\n",
              static_cast<long long>(coflows), payload_bytes / 1e6,
              options.codec == StreamCodec::kDeflate ? "deflate" : "store",
              static_cast<long long>(threads));
  std::printf("  write: %6.2f s  %8.1f MB/s  %10.0f coflows/s\n", write_s,
              write_mb_s, write_s > 0 ? coflows / write_s : 0);
  std::printf("  read : %6.2f s  %8.1f MB/s  %10.0f coflows/s\n", read_s,
              read_mb_s, read_s > 0 ? coflows / read_s : 0);
  std::printf("  sort : %6.2f s  %8.1f MB/s  (%llu runs, %llu passes)\n",
              sort_s, sort_mb_s,
              static_cast<unsigned long long>(sort_stats.runs),
              static_cast<unsigned long long>(sort_stats.merge_passes));
  std::printf("  %s (%llu coflows through sort)\n",
              ok ? "sorted OK" : "VERIFY FAILED",
              static_cast<unsigned long long>(verify_coflows));

  if (!keep) {
    std::remove(unsorted.c_str());
    std::remove(sorted.c_str());
  }
  if (!manifest_out.empty()) {
    manifest.seed = cfg.seed;
    manifest.threads = static_cast<int>(threads);
    manifest.extra["coflows"] = static_cast<double>(coflows);
    manifest.extra["ports"] = static_cast<double>(ports);
    manifest.extra["trace.payload_mb"] = payload_bytes / 1e6;
    manifest.extra["trace.write_mb_s"] = write_mb_s;
    manifest.extra["trace.read_mb_s"] = read_mb_s;
    manifest.extra["trace.sort_mb_s"] = sort_mb_s;
    manifest.extra["trace.sort_runs"] =
        static_cast<double>(sort_stats.runs);
    manifest.Finalize();
    manifest.WriteFile(manifest_out);
    std::printf("wrote run manifest to %s\n", manifest_out.c_str());
  }
  return ok ? 0 : 1;
}

int Scale(CliFlags& flags) {
  const Trace trace = Load(flags);
  const Bandwidth b = Gbps(flags.GetDouble("bandwidth_gbps", 1, "link rate"));
  const double target = flags.GetDouble("idleness", 0.4, "target idleness");
  const std::string out = flags.GetString("out", "", "output file");
  const auto scaled = ScaleTraceToIdleness(trace, b, target);
  std::printf("byte factor %.4f -> idleness %.1f%%\n", scaled.factor,
              scaled.achieved_idleness * 100);
  if (!out.empty()) {
    std::ofstream f(out);
    WriteCoflowBenchmark(f, scaled.trace);
    std::printf("wrote scaled trace to %s\n", out.c_str());
  }
  return 0;
}

int Bounds(CliFlags& flags) {
  const Trace trace = Load(flags);
  const Bandwidth b = Gbps(flags.GetDouble("bandwidth_gbps", 1, "link rate"));
  const Time delta =
      Millis(flags.GetDouble("delta_ms", 10, "reconfiguration delay"));
  std::printf("coflow_id,category,flows,bytes,tpl_seconds,tcl_seconds\n");
  for (const Coflow& c : trace.coflows) {
    std::printf("%lld,%s,%zu,%.0f,%.6f,%.6f\n",
                static_cast<long long>(c.id()), ToString(c.category()),
                c.size(), c.total_bytes(), PacketLowerBound(c, b),
                CircuitLowerBound(c, b, delta));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  if (flags.GetBool("version", false, "print build/version info and exit")) {
    std::printf("%s\n", sunflow::VersionString("sunflow_trace_tool").c_str());
    return 0;
  }
  const auto& positional = flags.positional();
  const std::string cmd = positional.empty() ? "info" : positional[0];
  try {
    if (cmd == "info") return Info(flags);
    if (cmd == "generate") return Generate(flags);
    if (cmd == "convert") return Convert(flags);
    if (cmd == "sort") return Sort(flags);
    if (cmd == "cat") return Cat(flags);
    if (cmd == "bench") return Bench(flags, argc, argv);
    if (cmd == "scale") return Scale(flags);
    if (cmd == "bounds") return Bounds(flags);
    std::cerr << "unknown subcommand '" << cmd
              << "' (expected info|generate|convert|sort|cat|bench|scale|"
                 "bounds)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
