// The out-of-core trace pipeline: block-compressed streams (trace/stream.h),
// the external arrival sort (trace/extsort.h), and the streaming engine
// path (ReplayDriver::RunStream + CompletionSink).
//
// The load-bearing contracts proven here:
//   * stream round-trips are BIT-exact (arrival doubles included), at any
//     block size, codec, and decode-pool width;
//   * corruption — a flipped payload byte, a truncated block, a bogus
//     magic, a header field sized past the file — is detected, not
//     silently replayed, and never sizes an allocation;
//   * the external sort is a permutation (multiset-equal) of its input,
//     arrival-ordered, through multi-run multi-pass merges;
//   * streamed replay is byte-identical to the in-memory engines at
//     --threads 1 and 8, pinned against the committed fig10 golden.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/fabric.h"
#include "core/policy.h"
#include "runtime/thread_pool.h"
#include "sim/engine/driver.h"
#include "sim/engine/scenario.h"
#include "trace/extsort.h"
#include "trace/generator.h"
#include "trace/parser.h"
#include "trace/source.h"
#include "trace/stream.h"

#if defined(SUNFLOW_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace sunflow {
namespace {

#ifndef SUNFLOW_GOLDEN_DIR
#error "SUNFLOW_GOLDEN_DIR must point at tests/golden"
#endif

std::string TmpPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Deflate where the build has zlib, else store: the cases that take it
// cover the deflate writer and reader (on pool threads too) in a zlib
// build and still run in one without.
StreamCodec DeflateIfBuilt() {
  return DeflateSupported() ? StreamCodec::kDeflate : StreamCodec::kStore;
}

// The codec fields of an .sft file: the file header's (offset 12), then
// each block header's (offset 16 of the block), in file order.
std::vector<std::uint32_t> CodecFields(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  EXPECT_GE(bytes.size(), 32u) << path;
  const auto u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    if (at + 4 <= bytes.size()) std::memcpy(&v, bytes.data() + at, 4);
    return v;
  };
  std::vector<std::uint32_t> codecs = {u32(12)};
  for (std::size_t at = 32; at + 24 <= bytes.size(); at += 24 + u32(at + 4))
    codecs.push_back(u32(at + 16));
  return codecs;
}

// Same workload the golden-equivalence suite replays.
Trace GoldenTrace(int coflows, PortId ports) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = coflows;
  cfg.num_ports = ports;
  const Trace base = GenerateSyntheticTrace(cfg);
  return PerturbFlowSizes(base, 0.05, MB(1), cfg.seed + 1);
}

// Bit-exact coflow comparison: ids, arrival double bits, every flow.
void ExpectTracesIdentical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_ports, b.num_ports);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    const Coflow& x = a.coflows[i];
    const Coflow& y = b.coflows[i];
    ASSERT_EQ(x.id(), y.id());
    std::uint64_t xa, ya;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    const double xt = x.arrival(), yt = y.arrival();
    std::memcpy(&xa, &xt, sizeof(xa));
    std::memcpy(&ya, &yt, sizeof(ya));
    ASSERT_EQ(xa, ya) << "arrival bits differ for coflow " << x.id();
    ASSERT_EQ(x.flows().size(), y.flows().size());
    for (std::size_t f = 0; f < x.flows().size(); ++f) {
      ASSERT_EQ(x.flows()[f].src, y.flows()[f].src);
      ASSERT_EQ(x.flows()[f].dst, y.flows()[f].dst);
      ASSERT_EQ(x.flows()[f].bytes, y.flows()[f].bytes);
    }
  }
}

// --- Round trips -------------------------------------------------------

TEST(TraceStream, RoundTripBitExactStoreCodec) {
  const Trace trace = GoldenTrace(40, 24);
  const std::string path = TmpPath("roundtrip_store.sft");
  TraceStreamOptions o;
  o.codec = StreamCodec::kStore;
  o.block_bytes = 512;  // many tiny blocks
  WriteTraceStream(path, trace, o);
  ExpectTracesIdentical(trace, ReadTraceStream(path, o));
  std::remove(path.c_str());
}

TEST(TraceStream, RoundTripBitExactDeflateCodec) {
  if (!DeflateSupported()) GTEST_SKIP() << "built without zlib";
  const Trace trace = GoldenTrace(40, 24);
  const std::string path = TmpPath("roundtrip_deflate.sft");
  TraceStreamOptions o;
  o.codec = StreamCodec::kDeflate;
  o.block_bytes = 2048;
  WriteTraceStream(path, trace, o);
  ExpectTracesIdentical(trace, ReadTraceStream(path, o));
  std::remove(path.c_str());
}

TEST(TraceStream, PoolPrefetchMatchesSerialRead) {
  const Trace trace = GoldenTrace(60, 24);
  const std::string path = TmpPath("prefetch.sft");
  TraceStreamOptions o;
  o.block_bytes = 1024;
  o.codec = DeflateIfBuilt();
  WriteTraceStream(path, trace, o);

  const Trace serial = ReadTraceStream(path, o);
  runtime::ThreadPool pool(4);
  TraceStreamOptions po = o;
  po.pool = &pool;
  po.readahead_blocks = 3;
  const Trace prefetched = ReadTraceStream(path, po);
  ExpectTracesIdentical(serial, prefetched);
  std::remove(path.c_str());
}

TEST(TraceStream, WriterHeaderCountsAndSizeHint) {
  const Trace trace = GoldenTrace(25, 16);
  const std::string path = TmpPath("counts.sft");
  TraceStreamOptions o;
  o.block_bytes = 4096;
  {
    TraceWriter writer(path, trace.num_ports, o);
    for (const Coflow& c : trace.coflows) writer.Append(c);
    writer.Close();
    EXPECT_EQ(writer.stats().coflows, 25u);
    EXPECT_GT(writer.stats().blocks, 1u);
    EXPECT_GT(writer.stats().payload_bytes, 0u);
    EXPECT_GT(writer.stats().file_bytes, 0u);
  }
  EXPECT_TRUE(IsTraceStreamFile(path));
  // Default options store every block: codec 0 in the file header and in
  // each block header.
  const std::vector<std::uint32_t> codecs = CodecFields(path);
  EXPECT_GT(codecs.size(), 2u);
  EXPECT_EQ(codecs, std::vector<std::uint32_t>(codecs.size(), 0u));
  TraceReader reader(path, o);
  ASSERT_TRUE(reader.size_hint().has_value());
  EXPECT_EQ(*reader.size_hint(), 25u);
  EXPECT_EQ(reader.num_ports(), trace.num_ports);
  std::remove(path.c_str());
}

TEST(TraceStream, TextFileIsNotAStreamFile) {
  const std::string path = TmpPath("not_a_stream.txt");
  std::ofstream(path) << "150 3\n1 0 1 1 1 2:10\n";
  EXPECT_FALSE(IsTraceStreamFile(path));
  std::remove(path.c_str());
}

// --- Corruption detection ---------------------------------------------

TEST(TraceStream, CorruptPayloadByteDetected) {
  const Trace trace = GoldenTrace(30, 16);
  const std::string path = TmpPath("corrupt.sft");
  TraceStreamOptions o;
  o.codec = StreamCodec::kStore;  // payload flip must land in checksummed data
  o.block_bytes = 1024;
  WriteTraceStream(path, trace, o);

  // Flip one byte well past the file header, inside some block's payload.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 200);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xff);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  EXPECT_THROW(
      {
        TraceReader reader(path, o);
        Coflow c;
        while (reader.Next(c)) {
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceStream, TruncatedBlockDetected) {
  const Trace trace = GoldenTrace(30, 16);
  const std::string path = TmpPath("truncated.sft");
  TraceStreamOptions o;
  o.block_bytes = 1024;
  WriteTraceStream(path, trace, o);

  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  in.close();
  bytes.resize(bytes.size() - bytes.size() / 4);  // chop the tail
  std::ofstream(path, std::ios::binary) << bytes;

  EXPECT_THROW(
      {
        TraceReader reader(path, o);
        Coflow c;
        while (reader.Next(c)) {
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceStream, BadMagicRejected) {
  const std::string path = TmpPath("bad_magic.sft");
  std::ofstream(path, std::ios::binary)
      << "XXXXGARBAGEGARBAGEGARBAGEGARBAGEGARBAGE";
  EXPECT_THROW(TraceReader reader(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceStream, ErrorMessagesNameTheFile) {
  const std::string path = TmpPath("named_error.sft");
  std::ofstream(path, std::ios::binary) << "XXXX";
  try {
    TraceReader reader(path);
    FAIL() << "expected a format error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error should carry the file path: " << e.what();
  }
  std::remove(path.c_str());
}

// The `sunflow_trace_tool generate --coflows=20 --ports=16 --stream_out
// --codec=deflate` file (one block) with the u32 at byte `offset`
// overwritten.
std::string PatchedStream(const std::string& name, std::streamoff offset,
                          std::uint32_t value) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 20;
  cfg.num_ports = 16;
  const std::string path = TmpPath(name);
  TraceStreamOptions o;
  o.codec = DeflateIfBuilt();
  WriteTraceStream(path, GenerateSyntheticTrace(cfg), o);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  return path;
}

// Reading `path` must fail with a runtime_error naming the file and the
// offending header field.
void ExpectHeaderFieldRejected(const std::string& path,
                               const std::string& field) {
  try {
    ReadTraceStream(path);
    ADD_FAILURE() << "expected a format error for " << field;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const std::size_t at = what.find(path);
    ASSERT_NE(at, std::string::npos) << what;
    // The reason follows the path, which names the field too.
    EXPECT_NE(what.find(field, at + path.size()), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Byte 36 is the first block's stored_bytes (32-byte file header + magic).
TEST(TraceStream, StoredBytesBeyondTheFileRejectedBeforeAllocating) {
  const std::string path = PatchedStream("stored_bytes.sft", 36, 0xfffffff0u);
  const long before_kb = PeakRssKb();
  ExpectHeaderFieldRejected(path, "stored_bytes");
  EXPECT_LT(PeakRssKb() - before_kb, 64 * 1024) << "peak RSS grew (KB)";
}

TEST(TraceStream, DeflateRawBytesAboveZlibRatioRejected) {
  if (!DeflateSupported()) GTEST_SKIP() << "built without zlib";
  ExpectHeaderFieldRejected(PatchedStream("raw_bytes.sft", 40, 0xfffffff0u),
                            "raw_bytes");
}

TEST(TraceStream, BlockCoflowCountAboveRawBytesRejected) {
  ExpectHeaderFieldRejected(PatchedStream("num_coflows.sft", 44, 0xffffffffu),
                            "num_coflows");
}

TEST(TraceStream, HeaderPortCountAboveInt32MaxRejected) {
  ExpectHeaderFieldRejected(PatchedStream("num_ports.sft", 8, 0x80000001u),
                            "num_ports");
}

// A one-block store-codec file over a `num_ports` fabric whose block is
// `payload` (one coflow) under a valid checksum.
std::string StoreBlockFile(const std::string& name, std::uint32_t num_ports,
                           const std::vector<std::uint8_t>& payload) {
  const auto u32 = [](std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string file = "SFT1";
  u32(file, 1);                              // version
  u32(file, num_ports);                      // num_ports
  u32(file, 0);                              // codec: store
  file.append(16, '\xff');                   // unclosed: counts unknown
  for (std::uint32_t v : {0x4b4c4253u, size, size, 1u, 0u,
                          Crc32(payload.data(), payload.size())})
    u32(file, v);
  file.append(payload.begin(), payload.end());
  const std::string path = TmpPath(name);
  std::ofstream(path, std::ios::binary) << file;
  return path;
}

// A checksum-valid store block whose one coflow claims 2^56 flows: the
// count must be bounded by the payload before it sizes the flow vector.
TEST(TraceStream, FlowCountAboveBlockPayloadRejected) {
  std::vector<std::uint8_t> payload(17, 0x80);  // bytes 9..16: varint 2^56
  std::fill_n(payload.begin(), 9, 0);            // id 0, arrival 0.0
  payload.push_back(0x01);
  ExpectHeaderFieldRejected(StoreBlockFile("flow_count.sft", 4, payload),
                            "flow count");
}

// One coflow (id 0, arrival 0) with a single 1 MB flow src -> 0.
std::vector<std::uint8_t> OneFlowPayload(std::uint64_t src) {
  std::vector<std::uint8_t> payload(9, 0);  // id 0, arrival 0.0
  payload.push_back(0x01);                  // one flow
  for (; src >= 0x80; src >>= 7)
    payload.push_back(static_cast<std::uint8_t>(src) | 0x80);
  payload.push_back(static_cast<std::uint8_t>(src));
  payload.push_back(0x00);  // dst 0
  const double bytes = MB(1);
  const auto* b = reinterpret_cast<const std::uint8_t*>(&bytes);
  payload.insert(payload.end(), b, b + sizeof(bytes));
  return payload;
}

// 2^32 + 3 would truncate to port 3 if the varint were cast before the
// bound check.
TEST(TraceStream, PortVarintAboveInt32MaxRejected) {
  ExpectHeaderFieldRejected(
      StoreBlockFile("port_varint.sft", 8, OneFlowPayload((1ull << 32) + 3)),
      "port 4294967299");
}

TEST(TraceStream, PortOutsideTheHeaderFabricRejected) {
  ExpectHeaderFieldRejected(
      StoreBlockFile("port_range.sft", 8, OneFlowPayload(200)), "port 200");
}

// The byte-at-a-time table CRC-32, the oracle for the word-at-a-time
// Crc32: same reflected polynomial, seed and final XOR.
std::uint32_t BytewiseCrc32(const std::uint8_t* p, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

TEST(TraceStream, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Five 8-byte words and a 3-byte tail.
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32(fox.data(), fox.size()), 0x414FA339u);

  // Every length 0..64 at every start offset 0..7 (each word alignment and
  // tail length), then 1 MiB, against the bytewise loop and zlib's crc32().
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  Rng rng(20161212);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.NextU64());
  const auto check = [](const std::uint8_t* p, std::size_t n) {
    const std::uint32_t want = BytewiseCrc32(p, n);
    EXPECT_EQ(Crc32(p, n), want) << n << " bytes";
#if defined(SUNFLOW_HAVE_ZLIB)
    EXPECT_EQ(crc32(0, p, static_cast<uInt>(n)), want) << n << " bytes";
#endif
  };
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 64; ++n) check(buf.data() + offset, n);
  check(buf.data(), buf.size());
}

// --- External sort ------------------------------------------------------

SyntheticTraceConfig ScrambledConfig(int coflows) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = coflows;
  cfg.num_ports = 24;
  cfg.iid_arrivals = true;  // emission order is NOT arrival order
  return cfg;
}

using CoflowKey = std::tuple<CoflowId, double, std::size_t, double>;

std::multiset<CoflowKey> Keys(const std::string& path) {
  std::multiset<CoflowKey> keys;
  TraceReader reader(path);
  Coflow c;
  while (reader.Next(c))
    keys.insert({c.id(), c.arrival(), c.size(), c.total_bytes()});
  return keys;
}

TEST(ExtSort, MultiRunMultiPassMergeIsASortedPermutation) {
  const std::string in = TmpPath("extsort_in.sft");
  const std::string out = TmpPath("extsort_out.sft");
  const auto cfg = ScrambledConfig(200);
  ExtSortOptions o;
  o.run_payload_bytes = 16 * 1024;  // force many runs
  o.fan_in = 2;                     // force multiple merge passes
  o.keep_runs = true;
  o.stream.codec = DeflateIfBuilt();
  {
    TraceWriter writer(in, cfg.num_ports, o.stream);
    GenerateSyntheticTrace(cfg, [&](Coflow&& c) { writer.Append(c); });
    writer.Close();
  }
  const auto stats = ExternalSortTrace(in, out, o);
  EXPECT_EQ(stats.coflows, 200u);
  EXPECT_GT(stats.runs, 4u) << "run budget did not force a spill";
  EXPECT_GT(stats.merge_passes, 1u) << "fan_in=2 should need several passes";

  // Runs are temporary and spill stored; only the output takes the codec.
  for (std::uint64_t i = 0; i < stats.runs; ++i) {
    const std::string run = out + ".run." + std::to_string(i) + ".sft";
    EXPECT_EQ(CodecFields(run)[0], 0u) << run;
    std::remove(run.c_str());
  }
  EXPECT_EQ(CodecFields(out)[0], static_cast<std::uint32_t>(o.stream.codec));

  // Output is a permutation of the input...
  EXPECT_EQ(Keys(in), Keys(out));
  // ...in arrival order (Validate enforces it).
  const Trace sorted = ReadTraceStream(out);
  EXPECT_EQ(sorted.coflows.size(), 200u);
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(ExtSort, SortedInputTakesTheSingleRunFastPath) {
  const Trace trace = GoldenTrace(50, 24);
  const std::string in = TmpPath("extsort_sorted_in.sft");
  const std::string out = TmpPath("extsort_sorted_out.sft");
  ExtSortOptions o;  // default budget holds 50 coflows easily
  o.stream.codec = DeflateIfBuilt();
  WriteTraceStream(in, trace, o.stream);
  const auto stats = ExternalSortTrace(in, out, o);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.merge_passes, 0u);
  // The lone run is the output, so it takes the requested codec.
  EXPECT_EQ(CodecFields(out)[0], static_cast<std::uint32_t>(o.stream.codec));
  ExpectTracesIdentical(trace, ReadTraceStream(out));
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(ExtSort, SortedStreamReplaysIdenticallyToInMemorySort) {
  // The pipeline contract: extsort(iid stream) must equal the in-memory
  // generator's own stable (arrival, id) sort of the same coflows.
  const auto cfg = ScrambledConfig(120);
  const std::string in = TmpPath("extsort_eq_in.sft");
  const std::string out = TmpPath("extsort_eq_out.sft");
  ExtSortOptions o;
  o.run_payload_bytes = 32 * 1024;
  o.stream.codec = DeflateIfBuilt();
  {
    TraceWriter writer(in, cfg.num_ports, o.stream);
    GenerateSyntheticTrace(cfg, [&](Coflow&& c) { writer.Append(c); });
    writer.Close();
  }
  ExternalSortTrace(in, out, o);
  ExpectTracesIdentical(GenerateSyntheticTrace(cfg), ReadTraceStream(out));
  std::remove(in.c_str());
  std::remove(out.c_str());
}

// --- Generator streaming ------------------------------------------------

TEST(Generator, StreamingSinkMatchesBatchOverload) {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 80;
  cfg.num_ports = 24;
  Trace streamed;
  streamed.num_ports = cfg.num_ports;
  GenerateSyntheticTrace(
      cfg, [&](Coflow&& c) { streamed.coflows.push_back(std::move(c)); });
  ExpectTracesIdentical(GenerateSyntheticTrace(cfg), streamed);
}

// --- Streamed replay == in-memory replay --------------------------------

void ExpectResultsIdentical(const engine::EngineResult& a,
                            const engine::EngineResult& b) {
  EXPECT_EQ(a.cct, b.cct);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.reservations, b.reservations);
  EXPECT_EQ(a.max_service_gap, b.max_service_gap);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.replans, b.replans);
}

engine::EngineConfig BaseEngineConfig() {
  engine::EngineConfig ec;
  ec.sunflow.bandwidth = Gbps(1);
  ec.sunflow.delta = Millis(10);
  return ec;
}

// Replays `trace` both ways — whole-trace seeding vs pulling from a .sft
// file written in `codec` through a decode pool of `threads` — on a fabric
// of `planes` planes, and demands identical results. Both ways build the
// scenario from its name alone.
void CheckStreamedEquivalence(const std::string& scenario_name, int planes,
                              int threads, StreamCodec codec) {
  const Trace trace = GoldenTrace(60, 24);
  const std::string path =
      TmpPath("replay_" + scenario_name + "_" + std::to_string(planes) + "_" +
              std::to_string(threads) + ".sft");
  TraceStreamOptions so;
  so.block_bytes = 2048;
  so.codec = codec;
  WriteTraceStream(path, trace, so);

  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseEngineConfig();
  if (planes > 1) {
    ec.sunflow.fabric =
        FabricSpec::Uniform(planes, ec.sunflow.delta, ec.sunflow.bandwidth);
  }

  const auto in_memory = engine::ScenarioRegistry::Global().Run(
      scenario_name, trace, policy.get(), ec);

  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(threads);
  TraceStreamOptions ro = so;
  ro.pool = pool.get();
  const auto scenario =
      engine::MakeScenario(scenario_name, trace.num_ports, policy.get(), ec);
  TraceReader reader(path, ro);
  const auto streamed =
      engine::RunScenarioStream(reader, *scenario, nullptr, nullptr);
  ExpectResultsIdentical(in_memory, streamed);
  std::remove(path.c_str());
}

TEST(StreamedReplay, CircuitMatchesInMemorySerial) {
  CheckStreamedEquivalence("circuit", 1, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, CircuitMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("circuit", 1, 8, DeflateIfBuilt());
}
TEST(StreamedReplay, GuardedMatchesInMemorySerial) {
  CheckStreamedEquivalence("guarded", 1, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, GuardedMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("guarded", 1, 8, DeflateIfBuilt());
}
TEST(StreamedReplay, RotorMatchesInMemorySerial) {
  CheckStreamedEquivalence("rotor", 1, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, RotorMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("rotor", 1, 8, DeflateIfBuilt());
}
TEST(StreamedReplay, VarysMatchesInMemorySerial) {
  CheckStreamedEquivalence("varys", 1, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, VarysMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("varys", 1, 8, DeflateIfBuilt());
}
TEST(StreamedReplay, AaloMatchesInMemorySerial) {
  CheckStreamedEquivalence("aalo", 1, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, AaloMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("aalo", 1, 8, DeflateIfBuilt());
}
// Joint planning on a K-plane fabric is "circuit" there; "kcore" is the
// per-core baseline on the same fabric.
TEST(StreamedReplay, KCoreJointMatchesInMemorySerial) {
  CheckStreamedEquivalence("circuit", 2, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, KCoreJointMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("circuit", 2, 8, DeflateIfBuilt());
}
TEST(StreamedReplay, KCorePerCoreMatchesInMemorySerial) {
  CheckStreamedEquivalence("kcore", 2, 1, StreamCodec::kStore);
}
TEST(StreamedReplay, KCorePerCoreMatchesInMemoryThreads8) {
  CheckStreamedEquivalence("kcore", 2, 8, DeflateIfBuilt());
}

TEST(StreamedReplay, CompletionSinkMatchesResultMaps) {
  const Trace trace = GoldenTrace(50, 24);
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseEngineConfig();

  auto legacy_scenario =
      engine::MakeCircuitScenario(trace.num_ports, *policy, ec);
  TraceCoflowSource legacy_source(trace);
  const auto legacy = engine::RunScenarioStream(legacy_source,
                                                *legacy_scenario, nullptr);

  std::map<CoflowId, engine::CompletionRecord> records;
  auto scenario = engine::MakeCircuitScenario(trace.num_ports, *policy, ec);
  TraceCoflowSource source(trace);
  const auto streamed = engine::RunScenarioStream(
      source, *scenario, nullptr, nullptr,
      [&](const engine::CompletionRecord& r) { records[r.id] = r; });

  // With a sink the per-coflow maps stay empty (the memory contract)...
  EXPECT_TRUE(streamed.cct.empty());
  EXPECT_TRUE(streamed.completion.empty());
  EXPECT_TRUE(streamed.reservations.empty());
  EXPECT_EQ(streamed.completed, trace.coflows.size());
  EXPECT_EQ(streamed.makespan, legacy.makespan);
  EXPECT_EQ(streamed.replans, legacy.replans);

  // ...and the records carry exactly what the maps would have.
  ASSERT_EQ(records.size(), legacy.cct.size());
  double cct_sum = 0;
  for (const auto& [id, cct] : legacy.cct) {
    const auto& r = records.at(id);
    EXPECT_EQ(r.cct, cct);
    EXPECT_EQ(r.finish, legacy.completion.at(id));
    EXPECT_EQ(r.reservations, legacy.reservations.at(id));
    EXPECT_EQ(r.max_service_gap, legacy.max_service_gap.at(id));
    cct_sum += cct;
  }
  EXPECT_EQ(streamed.cct_sum, cct_sum);
}

TEST(StreamedReplay, UnsortedSourceIsRejected) {
  Trace trace;
  trace.num_ports = 4;
  trace.coflows.emplace_back(1, 5.0, std::vector<Flow>{{0, 1, MB(1)}});
  trace.coflows.emplace_back(2, 1.0, std::vector<Flow>{{2, 3, MB(1)}});
  // Bypass Trace::Validate by feeding the engine directly.
  const auto policy = MakeShortestFirstPolicy();
  engine::EngineConfig ec = BaseEngineConfig();
  auto scenario = engine::MakeCircuitScenario(trace.num_ports, *policy, ec);
  TraceCoflowSource source(trace);
  EXPECT_THROW(engine::RunScenarioStream(source, *scenario, nullptr),
               CheckFailure);
}

// --- The committed fig10 golden, replayed through the streamed path -----

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(StreamedReplay, DeltaSweepMatchesCommittedFig10Golden) {
  if (std::getenv("SUNFLOW_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden regen is owned by golden_equivalence_test";
  }
  const Trace trace = GoldenTrace(60, 24);
  const std::string path = TmpPath("fig10_stream.sft");
  WriteTraceStream(path, trace);

  const auto policy = MakeShortestFirstPolicy();
  const std::vector<std::pair<std::string, Time>> deltas = {
      {"100ms", Millis(100)}, {"10ms", Millis(10)},   {"1ms", Millis(1)},
      {"100us", Micros(100)}, {"10us", Micros(10)},
  };
  runtime::ThreadPool pool(8);
  std::string out;
  for (const auto& [label, delta] : deltas) {
    engine::EngineConfig ec;
    ec.sunflow.bandwidth = Gbps(1);
    ec.sunflow.delta = delta;
    auto scenario = engine::MakeCircuitScenario(trace.num_ports, *policy, ec);
    TraceStreamOptions ro;
    ro.pool = &pool;
    TraceReader reader(path, ro);
    const auto result =
        engine::RunScenarioStream(reader, *scenario, nullptr);
    out += "delta=" + label + " replans=" + std::to_string(result.replans) +
           " makespan=" + Fmt(result.makespan) + "\n";
    for (const auto& [id, cct] : result.cct) {
      out += "  " + std::to_string(id) + " cct=" + Fmt(cct) + " res=" +
             std::to_string(result.reservations.at(id)) + "\n";
    }
  }
  std::remove(path.c_str());

  const std::string golden_path =
      std::string(SUNFLOW_GOLDEN_DIR) + "/fig10_delta.txt";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), out)
      << "streamed delta sweep drifted from the in-memory golden";
}

}  // namespace
}  // namespace sunflow
