// Binary block trace streams (".sft" — Sunflow trace format).
//
// The text coflow-benchmark format (trace/parser.h) materializes the
// whole trace; this format is built for out-of-core pipelines: coflows
// are serialized into fixed-target-size blocks, each independently
// encoded (stored or deflated) and checksummed, so a reader touches
// O(block) bytes at a time and a corrupt byte is caught at the block that
// holds it.
//
// File layout (all integers little-endian; docs/traces.md has the full
// schema):
//   file header (32 B):  magic "SFT1" | u32 version | u32 num_ports |
//                        u32 default codec | u64 num_coflows |
//                        u64 payload_bytes
//   blocks until EOF:    u32 block magic | u32 stored_bytes |
//                        u32 raw_bytes | u32 num_coflows | u32 codec |
//                        u32 crc32(raw payload)  — then stored payload
//
// Per-coflow encoding inside a block payload: varint id (zigzag), the
// raw IEEE-754 bits of the arrival time (bit-exact round-trip — replay
// determinism depends on it), varint flow count, then per flow varint
// src/dst and raw byte-count bits.
//
// The writer patches num_coflows/payload_bytes into the header at
// Close(); a reader of an unclosed file still works (counts unknown).
// Blocks are stored raw unless the writer asks for deflate (zlib). Every
// build reads store; a deflate file needs a deflate-enabled build
// (DeflateSupported()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/source.h"

namespace sunflow::runtime {
class ThreadPool;
}  // namespace sunflow::runtime

namespace sunflow {

/// Per-block payload codec. kStore is always available; kDeflate needs a
/// zlib-enabled build (SUNFLOW_HAVE_ZLIB).
enum class StreamCodec : std::uint32_t { kStore = 0, kDeflate = 1 };

/// True when this build can compress/decompress kDeflate blocks.
bool DeflateSupported();

struct TraceStreamOptions {
  /// Uncompressed payload target per block. A single coflow larger than
  /// this still forms a (oversized) block — blocks are never split.
  std::size_t block_bytes = 256 * 1024;
  /// The writer's block codec; readers take each block's codec from its
  /// header. Store by default: the generator's ±5%-perturbed sizes are
  /// raw doubles with random mantissas, which deflate shrinks by about 7%
  /// for about 4x the write time. Deflate pays on whole-MB sizes (4.7x
  /// smaller) and throws in a build without zlib.
  StreamCodec codec = StreamCodec::kStore;
  /// Decoded blocks the reader keeps in flight ahead of the consumer
  /// (>= 1). Bounds reader memory at readahead_blocks * block_bytes-ish.
  std::size_t readahead_blocks = 4;
  /// Optional pool for the reader's block decode (decompress + checksum +
  /// parse). Null decodes synchronously on the calling thread. Decode
  /// order of *consumption* is FIFO either way, so the coflow sequence is
  /// identical at any pool size. Not owned.
  runtime::ThreadPool* pool = nullptr;
};

struct TraceStreamStats {
  std::uint64_t blocks = 0;
  std::uint64_t coflows = 0;
  std::uint64_t payload_bytes = 0;  ///< uncompressed serialized bytes
  std::uint64_t file_bytes = 0;     ///< bytes on disk including headers
};

/// Streaming writer. Append() in any order (sorting is the external
/// sorter's job); Close() flushes the tail block and patches the header.
/// Throws std::runtime_error on I/O failure.
class TraceWriter {
 public:
  TraceWriter(const std::string& path, PortId num_ports,
              TraceStreamOptions options = {});
  ~TraceWriter();  ///< best-effort Close(); errors reported to stderr

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void Append(const Coflow& coflow);
  /// Flush + header patch. Idempotent; called by the destructor.
  void Close();

  const TraceStreamStats& stats() const { return stats_; }

 private:
  void FlushBlock();

  std::string path_;
  std::ofstream out_;
  TraceStreamOptions options_;
  std::vector<std::uint8_t> payload_;    ///< current block, uncompressed
  std::vector<std::uint8_t> stored_;     ///< compression scratch
  std::uint32_t block_coflows_ = 0;
  TraceStreamStats stats_;
  bool closed_ = false;
};

/// Streaming reader with bounded look-ahead: raw blocks are read
/// sequentially and decoded up to `readahead_blocks` ahead (on `pool`
/// when given), but consumed strictly FIFO — the coflow sequence is
/// byte-identical at any thread count. Throws std::runtime_error on a
/// malformed file, a checksum mismatch, or truncation.
class TraceReader final : public CoflowSource {
 public:
  explicit TraceReader(const std::string& path,
                       TraceStreamOptions options = {});
  ~TraceReader() override;

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  PortId num_ports() const override { return num_ports_; }
  /// Header coflow count; nullopt for an unclosed file.
  std::optional<std::uint64_t> size_hint() const override;
  bool Next(Coflow& out) override;

  /// Bytes/blocks consumed so far (payload_bytes grows as blocks decode).
  const TraceStreamStats& stats() const { return stats_; }

 private:
  struct DecodedBlock {
    std::vector<Coflow> coflows;
    std::size_t next = 0;
    std::uint64_t payload_bytes = 0;
  };

  /// Reads raw blocks off the file and queues their decode until the
  /// pipeline holds readahead_blocks futures or the file is exhausted.
  void FillPipeline();

  std::string path_;
  std::ifstream in_;
  TraceStreamOptions options_;
  PortId num_ports_ = 0;
  std::uint64_t header_coflows_ = 0;  ///< ~0 when the file was not closed
  std::uint64_t file_size_ = 0;       ///< bounds every block's stored_bytes
  std::deque<std::future<DecodedBlock>> inflight_;
  DecodedBlock current_;
  TraceStreamStats stats_;
  bool raw_eof_ = false;
};

// --- Whole-trace conveniences (tests, converters) -----------------------

void WriteTraceStream(const std::string& path, const Trace& trace,
                      TraceStreamOptions options = {});

/// Materializes a stream file; Validate()s, so the file must be
/// arrival-ordered (use extsort first otherwise).
Trace ReadTraceStream(const std::string& path, TraceStreamOptions options = {});

/// Sniffs the 4-byte magic. False for short/unreadable files.
bool IsTraceStreamFile(const std::string& path);

/// CRC-32 (IEEE 802.3 polynomial, zlib-compatible) over `n` bytes.
/// Exposed for tests; the stream format checksums every raw block with it.
std::uint32_t Crc32(const void* data, std::size_t n);

}  // namespace sunflow
