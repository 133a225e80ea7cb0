// Deterministic mutation fuzz of the trace readers. From a fixed seed,
// byte flips, truncations, and 32-bit header fields forced to 0, 1,
// 0x7fffffff or 0xffffffff are applied to a valid text trace and to valid
// .sft files in both codecs. Every read must either return a trace that
// passes Validate() with finite arrivals and sizes, or throw
// std::runtime_error / CheckFailure: never std::bad_alloc,
// std::length_error or any other exception.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "trace/generator.h"
#include "trace/parser.h"
#include "trace/stream.h"

namespace sunflow {
namespace {

constexpr int kMutations = 2000;
constexpr std::uint32_t kFieldValues[] = {0, 1, 0x7fffffffu, 0xffffffffu};

Trace SmallTrace() {
  SyntheticTraceConfig cfg;
  cfg.num_coflows = 20;
  cfg.num_ports = 16;
  return GenerateSyntheticTrace(cfg);
}

std::size_t Pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

// A byte flip (kind 0) or a truncation (kind 1) anywhere in `bytes`.
void FlipOrTruncate(Rng& rng, std::string& bytes, int kind) {
  const std::size_t at = Pick(rng, bytes.size());
  if (kind == 0) {
    bytes[at] = static_cast<char>(bytes[at] ^ rng.UniformInt(1, 255));
  } else {
    bytes.resize(at);
  }
}

// One read of mutated input: it must return a valid, finite trace or throw
// runtime_error / CheckFailure.
void ExpectCleanOutcome(const std::function<Trace()>& read, int mutation) {
  try {
    const Trace trace = read();
    trace.Validate();
    for (const Coflow& c : trace.coflows) {
      EXPECT_TRUE(std::isfinite(c.arrival())) << "mutation " << mutation;
      EXPECT_TRUE(std::isfinite(c.total_bytes())) << "mutation " << mutation;
      for (const Flow& f : c.flows())
        EXPECT_TRUE(std::isfinite(f.bytes)) << "mutation " << mutation;
    }
  } catch (const std::runtime_error&) {
  } catch (const CheckFailure&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutation " << mutation << " threw " << e.what();
  }
}

// The text format's "32-bit header fields" are its numeric tokens (the
// header line's port and coflow counts, ids, mapper/reducer counts, racks
// and sizes): a third of the mutations overwrite one with a boundary value.
TEST(TraceFuzz, TextParserSurvivesMutations) {
  std::ostringstream out;
  WriteCoflowBenchmark(out, SmallTrace());
  const std::string valid = out.str();
  std::vector<std::size_t> token_begin;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const bool sep = valid[i] == ' ' || valid[i] == '\n' || valid[i] == ':';
    const bool after_sep = i == 0 || valid[i - 1] == ' ' ||
                           valid[i - 1] == '\n' || valid[i - 1] == ':';
    if (!sep && after_sep) token_begin.push_back(i);
  }
  Rng rng(20161212);
  for (int m = 0; m < kMutations; ++m) {
    std::string bytes = valid;
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    if (kind < 2) {
      FlipOrTruncate(rng, bytes, kind);
    } else {
      // The two header-line counts get a quarter of the field mutations.
      const std::size_t begin = rng.UniformInt(0, 3) == 0
                                    ? token_begin[Pick(rng, 2)]
                                    : token_begin[Pick(rng, token_begin.size())];
      const std::size_t end = bytes.find_first_of(" \n:", begin);
      bytes.replace(begin, end - begin,
                    std::to_string(kFieldValues[Pick(rng, 4)]));
    }
    ExpectCleanOutcome(
        [&] {
          std::istringstream in(bytes);
          return ParseCoflowBenchmark(in, "fuzz.txt");
        },
        m);
  }
}

TEST(TraceFuzz, StreamReaderSurvivesMutationsInBothCodecs) {
  const std::string path = testing::TempDir() + "/fuzz.sft";
  for (const StreamCodec codec : {StreamCodec::kStore, StreamCodec::kDeflate}) {
    if (codec == StreamCodec::kDeflate && !DeflateSupported()) continue;
    TraceStreamOptions o;
    o.codec = codec;
    o.block_bytes = 1024;  // several blocks, so several block headers
    WriteTraceStream(path, SmallTrace(), o);
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string valid = buf.str();

    // Every 32-bit header field: the file header's seven words after the
    // magic, and the six words of each block header.
    std::vector<std::size_t> fields = {4, 8, 12, 16, 20, 24, 28};
    for (std::size_t at = 32; at + 24 <= valid.size();) {
      for (std::size_t w = 0; w < 6; ++w) fields.push_back(at + 4 * w);
      std::uint32_t stored = 0;
      std::memcpy(&stored, valid.data() + at + 4, 4);
      at += 24 + stored;
    }
    ASSERT_GT(fields.size(), 7u + 6u) << "expected several blocks";

    Rng rng(20161212 + static_cast<std::uint64_t>(codec));
    for (int m = 0; m < kMutations; ++m) {
      std::string bytes = valid;
      const int kind = static_cast<int>(rng.UniformInt(0, 2));
      if (kind < 2) {
        FlipOrTruncate(rng, bytes, kind);
      } else {
        const std::uint32_t v = kFieldValues[Pick(rng, 4)];
        std::memcpy(bytes.data() + fields[Pick(rng, fields.size())], &v, 4);
      }
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
      ExpectCleanOutcome([&] { return ReadTraceStream(path); }, m);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sunflow
