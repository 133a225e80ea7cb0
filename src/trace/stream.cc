#include "trace/stream.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/assert.h"
#include "runtime/thread_pool.h"

#if defined(SUNFLOW_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace sunflow {

namespace {

constexpr std::array<char, 4> kFileMagic = {'S', 'F', 'T', '1'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kBlockMagic = 0x4b4c4253;  // "SBLK" little-endian
constexpr std::size_t kFileHeaderBytes = 32;
constexpr std::size_t kBlockHeaderBytes = 24;
/// zlib's maximum expansion: a deflate block inflates at most 1032:1.
constexpr std::uint64_t kMaxDeflateRatio = 1032;
/// The smallest encoded coflow: 1-byte id, 8-byte arrival, 1-byte count.
constexpr std::uint32_t kMinCoflowBytes = 10;
/// Header coflow-count sentinel for a file that was never Close()d.
constexpr std::uint64_t kUnclosedCount = ~std::uint64_t{0};
// Offset of the num_coflows / payload_bytes pair patched at Close().
constexpr std::streamoff kCountsOffset = 16;

// All multi-byte fields are little-endian. The encoder writes native
// byte order and the format is only defined on little-endian hosts (the
// static_assert-style runtime check below trips on anything else).
bool HostIsLittleEndian() {
  const std::uint32_t probe = 1;
  std::uint8_t first;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

[[noreturn]] void FormatFail(const std::string& path, const std::string& why) {
  throw std::runtime_error("trace stream '" + path + "': " + why);
}

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t n = out.size();
  out.resize(n + 4);
  std::memcpy(out.data() + n, &v, 4);
}

void AppendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t n = out.size();
  out.resize(n + 8);
  std::memcpy(out.data() + n, &v, 8);
}

void AppendVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void AppendDoubleBits(std::vector<std::uint8_t>& out, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, 8);
  AppendU64(out, bits);
}

/// Bounded-buffer decoder cursor; every read is range-checked so a
/// corrupt count cannot walk past the block.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  const std::string& path;
  PortId num_ports;  ///< the file header's fabric size

  void Need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n)
      FormatFail(path, "block payload truncated mid-record");
  }
  std::uint64_t Varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      Need(1);
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
      if (shift >= 64) FormatFail(path, "varint overruns 64 bits");
    }
  }
  // Checked before the narrowing cast, so a varint above INT32_MAX cannot
  // truncate to an in-range port.
  PortId Port() {
    const std::uint64_t v = Varint();
    if (v >= static_cast<std::uint64_t>(num_ports))
      FormatFail(path, "port " + std::to_string(v) + " outside the " +
                           std::to_string(num_ports) + "-port fabric");
    return static_cast<PortId>(v);
  }
  double DoubleBits() {
    Need(8);
    std::uint64_t bits;
    std::memcpy(&bits, p, 8);
    p += 8;
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  }
};

void EncodeCoflow(std::vector<std::uint8_t>& out, const Coflow& c) {
  AppendVarint(out, ZigZag(c.id()));
  AppendDoubleBits(out, c.arrival());
  AppendVarint(out, c.flows().size());
  for (const Flow& f : c.flows()) {
    AppendVarint(out, static_cast<std::uint64_t>(f.src));
    AppendVarint(out, static_cast<std::uint64_t>(f.dst));
    AppendDoubleBits(out, f.bytes);
  }
}

Coflow DecodeCoflow(Cursor& cur) {
  const auto id = static_cast<CoflowId>(UnZigZag(cur.Varint()));
  const double arrival = cur.DoubleBits();
  const std::uint64_t n = cur.Varint();
  // A flow takes at least 10 bytes: two 1-byte varints and 8 size bytes.
  if (n > static_cast<std::uint64_t>(cur.end - cur.p) / 10)
    FormatFail(cur.path, "flow count exceeds the block payload");
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Flow f;
    f.src = cur.Port();
    f.dst = cur.Port();
    f.bytes = cur.DoubleBits();
    flows.push_back(f);
  }
  return Coflow(id, arrival, std::move(flows));
}

struct RawBlock {
  std::vector<std::uint8_t> stored;
  std::uint32_t raw_bytes = 0;
  std::uint32_t num_coflows = 0;
  std::uint32_t codec = 0;
  std::uint32_t crc = 0;
};

}  // namespace

bool DeflateSupported() {
#if defined(SUNFLOW_HAVE_ZLIB)
  return true;
#else
  return false;
#endif
}

StreamCodec DefaultStreamCodec() {
  return DeflateSupported() ? StreamCodec::kDeflate : StreamCodec::kStore;
}

std::uint32_t Crc32(const void* data, std::size_t n) {
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
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

// --- TraceWriter --------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, PortId num_ports,
                         TraceStreamOptions options)
    : path_(path), options_(options) {
  SUNFLOW_CHECK_MSG(HostIsLittleEndian(),
                    "trace stream format requires a little-endian host");
  SUNFLOW_CHECK(num_ports > 0);
  if (options_.codec == StreamCodec::kDeflate && !DeflateSupported())
    FormatFail(path_, "deflate codec requested but zlib is not built in");
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) FormatFail(path_, "cannot open for writing");
  std::vector<std::uint8_t> header;
  header.reserve(kFileHeaderBytes);
  for (char m : kFileMagic) header.push_back(static_cast<std::uint8_t>(m));
  AppendU32(header, kFormatVersion);
  AppendU32(header, static_cast<std::uint32_t>(num_ports));
  AppendU32(header, static_cast<std::uint32_t>(options_.codec));
  AppendU64(header, kUnclosedCount);  // num_coflows, patched at Close
  AppendU64(header, 0);               // payload_bytes, patched at Close
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  stats_.file_bytes = kFileHeaderBytes;
  payload_.reserve(options_.block_bytes + 4096);
}

TraceWriter::~TraceWriter() {
  try {
    Close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace writer: %s\n", e.what());
  }
}

void TraceWriter::Append(const Coflow& coflow) {
  SUNFLOW_CHECK_MSG(!closed_, "Append after Close");
  EncodeCoflow(payload_, coflow);
  ++block_coflows_;
  if (payload_.size() >= options_.block_bytes) FlushBlock();
}

void TraceWriter::FlushBlock() {
  if (payload_.empty()) return;
  const std::uint32_t crc = Crc32(payload_.data(), payload_.size());
  const std::uint8_t* stored = payload_.data();
  std::size_t stored_n = payload_.size();
  auto codec = options_.codec;
  if (codec == StreamCodec::kDeflate) {
#if defined(SUNFLOW_HAVE_ZLIB)
    uLongf bound = compressBound(static_cast<uLong>(payload_.size()));
    stored_.resize(bound);
    // Level 1: the pipeline is I/O-bandwidth-shaped, so the fast setting
    // wins; the per-block codec field lets incompressible blocks fall
    // back to store.
    const int rc =
        compress2(stored_.data(), &bound, payload_.data(),
                  static_cast<uLong>(payload_.size()), /*level=*/1);
    if (rc != Z_OK) FormatFail(path_, "deflate failed");
    if (bound < payload_.size()) {
      stored = stored_.data();
      stored_n = bound;
    } else {
      codec = StreamCodec::kStore;
    }
#else
    FormatFail(path_, "deflate codec unavailable in this build");
#endif
  }
  std::vector<std::uint8_t> header;
  header.reserve(kBlockHeaderBytes);
  AppendU32(header, kBlockMagic);
  AppendU32(header, static_cast<std::uint32_t>(stored_n));
  AppendU32(header, static_cast<std::uint32_t>(payload_.size()));
  AppendU32(header, block_coflows_);
  AppendU32(header, static_cast<std::uint32_t>(codec));
  AppendU32(header, crc);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
  out_.write(reinterpret_cast<const char*>(stored),
             static_cast<std::streamsize>(stored_n));
  if (!out_) FormatFail(path_, "write failed");
  ++stats_.blocks;
  stats_.coflows += block_coflows_;
  stats_.payload_bytes += payload_.size();
  stats_.file_bytes += kBlockHeaderBytes + stored_n;
  payload_.clear();
  block_coflows_ = 0;
}

void TraceWriter::Close() {
  if (closed_) return;
  FlushBlock();
  closed_ = true;
  out_.seekp(kCountsOffset);
  std::vector<std::uint8_t> counts;
  AppendU64(counts, stats_.coflows);
  AppendU64(counts, stats_.payload_bytes);
  out_.write(reinterpret_cast<const char*>(counts.data()),
             static_cast<std::streamsize>(counts.size()));
  out_.flush();
  if (!out_) FormatFail(path_, "close failed");
  out_.close();
}

// --- TraceReader --------------------------------------------------------

TraceReader::TraceReader(const std::string& path, TraceStreamOptions options)
    : path_(path), options_(options) {
  SUNFLOW_CHECK_MSG(HostIsLittleEndian(),
                    "trace stream format requires a little-endian host");
  in_.open(path_, std::ios::binary);
  if (!in_) FormatFail(path_, "cannot open for reading");
  std::array<std::uint8_t, kFileHeaderBytes> header;
  in_.read(reinterpret_cast<char*>(header.data()), kFileHeaderBytes);
  if (in_.gcount() != static_cast<std::streamsize>(kFileHeaderBytes))
    FormatFail(path_, "file header truncated");
  if (std::memcmp(header.data(), kFileMagic.data(), 4) != 0)
    FormatFail(path_, "bad magic (not a trace stream file)");
  std::uint32_t version, ports, codec;
  std::memcpy(&version, header.data() + 4, 4);
  std::memcpy(&ports, header.data() + 8, 4);
  std::memcpy(&codec, header.data() + 12, 4);
  std::memcpy(&header_coflows_, header.data() + 16, 8);
  if (version != kFormatVersion)
    FormatFail(path_, "unsupported version " + std::to_string(version));
  if (ports == 0 || ports > static_cast<std::uint32_t>(INT32_MAX))
    FormatFail(path_, "num_ports " + std::to_string(ports) + " out of range");
  if (codec == static_cast<std::uint32_t>(StreamCodec::kDeflate) &&
      !DeflateSupported())
    FormatFail(path_, "deflate file but zlib is not built in");
  num_ports_ = static_cast<PortId>(ports);
  stats_.file_bytes = kFileHeaderBytes;
  file_size_ = std::filesystem::file_size(path_);
}

TraceReader::~TraceReader() {
  // Decode tasks hold no reference to the reader, but quiesce them so
  // their exceptions (if any) die with the futures, not the process.
  for (auto& f : inflight_)
    if (f.valid()) f.wait();
}

std::optional<std::uint64_t> TraceReader::size_hint() const {
  if (header_coflows_ == kUnclosedCount) return std::nullopt;
  return header_coflows_;
}

void TraceReader::FillPipeline() {
  const std::size_t depth = std::max<std::size_t>(1, options_.readahead_blocks);
  while (!raw_eof_ && inflight_.size() < depth) {
    std::array<std::uint8_t, kBlockHeaderBytes> hdr;
    in_.read(reinterpret_cast<char*>(hdr.data()), kBlockHeaderBytes);
    if (in_.gcount() == 0) {
      raw_eof_ = true;
      break;
    }
    if (in_.gcount() != static_cast<std::streamsize>(kBlockHeaderBytes))
      FormatFail(path_, "block header truncated");
    std::uint32_t magic, stored_bytes;
    auto raw = std::make_shared<RawBlock>();
    std::memcpy(&magic, hdr.data(), 4);
    std::memcpy(&stored_bytes, hdr.data() + 4, 4);
    std::memcpy(&raw->raw_bytes, hdr.data() + 8, 4);
    std::memcpy(&raw->num_coflows, hdr.data() + 12, 4);
    std::memcpy(&raw->codec, hdr.data() + 16, 4);
    std::memcpy(&raw->crc, hdr.data() + 20, 4);
    if (magic != kBlockMagic) FormatFail(path_, "bad block magic");
    // Bound every header field before it sizes an allocation.
    if (stored_bytes > file_size_ - stats_.file_bytes - kBlockHeaderBytes)
      FormatFail(path_, "block stored_bytes exceeds the bytes left in file");
    if (raw->codec == static_cast<std::uint32_t>(StreamCodec::kDeflate) &&
        raw->raw_bytes > kMaxDeflateRatio * stored_bytes)
      FormatFail(path_, "deflate raw_bytes exceeds 1032 x stored_bytes");
    if (raw->num_coflows > raw->raw_bytes / kMinCoflowBytes)
      FormatFail(path_, "block num_coflows exceeds raw_bytes / 10");
    raw->stored.resize(stored_bytes);
    in_.read(reinterpret_cast<char*>(raw->stored.data()), stored_bytes);
    if (in_.gcount() != static_cast<std::streamsize>(stored_bytes))
      FormatFail(path_, "block payload truncated");
    stats_.file_bytes += kBlockHeaderBytes + stored_bytes;

    auto prom = std::make_shared<std::promise<DecodedBlock>>();
    inflight_.push_back(prom->get_future());
    // The decode is self-contained (owns its raw bytes), so tasks run in
    // any order on the pool; consumption below stays FIFO regardless.
    auto decode = [raw, prom, path = path_, num_ports = num_ports_] {
      try {
        std::vector<std::uint8_t> plain;
        const std::uint8_t* data = raw->stored.data();
        std::size_t n = raw->stored.size();
        if (raw->codec == static_cast<std::uint32_t>(StreamCodec::kDeflate)) {
#if defined(SUNFLOW_HAVE_ZLIB)
          plain.resize(raw->raw_bytes);
          uLongf out_n = raw->raw_bytes;
          const int rc = uncompress(plain.data(), &out_n, raw->stored.data(),
                                    static_cast<uLong>(raw->stored.size()));
          if (rc != Z_OK || out_n != raw->raw_bytes)
            FormatFail(path, "deflate block corrupt");
          data = plain.data();
          n = plain.size();
#else
          FormatFail(path, "deflate block but zlib is not built in");
#endif
        } else if (raw->codec !=
                   static_cast<std::uint32_t>(StreamCodec::kStore)) {
          FormatFail(path, "unknown block codec " +
                               std::to_string(raw->codec));
        } else if (n != raw->raw_bytes) {
          FormatFail(path, "stored block size mismatch");
        }
        if (Crc32(data, n) != raw->crc)
          FormatFail(path, "block checksum mismatch");
        DecodedBlock block;
        block.payload_bytes = n;
        block.coflows.reserve(raw->num_coflows);
        Cursor cur{data, data + n, path, num_ports};
        for (std::uint32_t i = 0; i < raw->num_coflows; ++i)
          block.coflows.push_back(DecodeCoflow(cur));
        if (cur.p != cur.end)
          FormatFail(path, "trailing bytes after last coflow in block");
        prom->set_value(std::move(block));
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    };
    if (options_.pool != nullptr) {
      options_.pool->Submit(decode);
    } else {
      decode();
    }
  }
}

bool TraceReader::Next(Coflow& out) {
  while (current_.next >= current_.coflows.size()) {
    if (inflight_.empty()) FillPipeline();
    if (inflight_.empty()) {
      if (header_coflows_ != kUnclosedCount &&
          stats_.coflows != header_coflows_) {
        FormatFail(path_, "header promises " +
                              std::to_string(header_coflows_) +
                              " coflows but blocks carried " +
                              std::to_string(stats_.coflows));
      }
      return false;
    }
    current_ = inflight_.front().get();
    inflight_.pop_front();
    ++stats_.blocks;
    stats_.payload_bytes += current_.payload_bytes;
    FillPipeline();
  }
  out = std::move(current_.coflows[current_.next++]);
  ++stats_.coflows;
  return true;
}

// --- Conveniences -------------------------------------------------------

void WriteTraceStream(const std::string& path, const Trace& trace,
                      TraceStreamOptions options) {
  TraceWriter writer(path, trace.num_ports, options);
  for (const Coflow& c : trace.coflows) writer.Append(c);
  writer.Close();
}

Trace ReadTraceStream(const std::string& path, TraceStreamOptions options) {
  TraceReader reader(path, options);
  return MaterializeSource(reader);
}

bool IsTraceStreamFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::array<char, 4> magic;
  f.read(magic.data(), 4);
  return f.gcount() == 4 &&
         std::memcmp(magic.data(), kFileMagic.data(), 4) == 0;
}

}  // namespace sunflow
