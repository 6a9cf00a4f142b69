// Little-endian wire primitives for the snapshot format.
//
// Snapshots must load safely from untrusted bytes: a truncated download, a
// bit-flipped disk block or a file of the wrong kind has to surface as
// ron::Error, never as UB or an unbounded allocation. WireStreamWriter and
// WireStreamReader carry every snapshot section to and from disk a chunk at
// a time. WireWriter builds a small body in memory (a served frame, a
// simulator message); WireReader is a bounds-checked cursor over such bytes.
// Every read validates the remaining length first, and every count that
// sizes an allocation is validated against the bytes that could possibly
// back it (see read_count).
//
// All integers are fixed-width little-endian; doubles travel as their IEEE
// bit pattern (round trips are bit-identical, which the serving layer's
// "save → load → estimate is bit-identical" invariant relies on).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace ron {

/// Writes `bytes` to `out` (binary), throwing ron::Error naming `what` on a
/// short write. This and read_stream_bytes are the ONLY place snapshot code
/// touches raw char buffers: tools/ron_lint.py forbids memcpy and
/// reinterpret_cast in src/oracle/ outside wire.{h,cpp}, so every byte that
/// crosses a stream boundary goes through these bounds-checked helpers.
void write_stream_bytes(std::ostream& out, std::span<const std::uint8_t> bytes,
                        const char* what);

/// Reads exactly `bytes.size()` bytes from `in` into `bytes`, throwing
/// ron::Error naming `what` on a short read.
void read_stream_bytes(std::istream& in, std::span<std::uint8_t> bytes,
                       const char* what);

/// Best-effort prefix read for sniffing: fills as much of `bytes` as the
/// stream yields and returns the byte count. A short read at EOF is NOT an
/// error (callers that probe a possibly-foreign file decide what a short
/// prefix means), but a stream-level failure (badbit: disk error, throwing
/// streambuf) throws ron::Error — a failing device must never look like a
/// short foreign file.
std::size_t read_stream_prefix(std::istream& in, std::span<std::uint8_t> bytes);

/// Snapshot container framing, written and validated by the streaming
/// classes below: magic[8] + u32 version + u32 kind + u64 payload length +
/// u64 checksum, then the payload.
inline constexpr std::uint8_t kSnapshotMagic[8] = {'R', 'O', 'N', 'S',
                                                   'N', 'A', 'P', '\n'};
inline constexpr std::size_t kSnapshotHeaderBytes = 8 + 4 + 4 + 8 + 8;

/// FNV-1a 64-bit checksum (the snapshot header's corruption detector; this
/// guards against accidental damage, not adversaries). The _continue form
/// chains over multiple spans: fnv1a64(a+b) ==
/// fnv1a64_continue(fnv1a64(a), b) — the streaming classes fold each chunk
/// into a running state this way.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);
std::uint64_t fnv1a64_continue(std::uint64_t state,
                               std::span<const std::uint8_t> bytes);

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u64) byte string.
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Chunked streaming counterpart of WireWriter, the writer of every snapshot
/// section: payload bytes are folded into a running FNV-1a state and flushed
/// to disk kStreamChunkBytes at a time, so peak memory is one chunk instead
/// of the whole payload. The bytes go to a sibling temporary file of `path`.
/// The snapshot header is written up front with placeholder length/checksum
/// fields; finish() seeks back, patches them and renames the temporary file
/// over `path`. The primitive API mirrors WireWriter, so helpers shared
/// with in-memory bodies (write_spec, write_trace_payload) are written once
/// as templates.
inline constexpr std::size_t kStreamChunkBytes = 1 << 20;

class WireStreamWriter {
 public:
  /// Opens a temporary file next to `path` and writes the magic/version/kind
  /// header with placeholder length and checksum. `checksum_seed` is the
  /// initial FNV state (the v2 domain folds the version/kind prefix in).
  WireStreamWriter(const std::string& path, std::uint32_t version,
                   std::uint32_t kind, std::uint64_t checksum_seed);
  ~WireStreamWriter();
  WireStreamWriter(const WireStreamWriter&) = delete;
  WireStreamWriter& operator=(const WireStreamWriter&) = delete;

  void u8(std::uint8_t v) {
    chunk_.push_back(v);
    if (chunk_.size() >= kStreamChunkBytes) flush_chunk();
  }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u64) byte string.
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) u8(static_cast<std::uint8_t>(c));
  }

  /// Payload bytes emitted so far.
  std::uint64_t size() const { return total_ + chunk_.size(); }

  /// Flushes the tail chunk, patches the header's payload length and
  /// checksum, closes the file and renames it over `path`. Must be called
  /// exactly once for a valid snapshot. Destroying an unfinished writer
  /// (the exception path) removes the temporary file, so whatever was at
  /// `path` before the save is left untouched.
  void finish();

 private:
  void flush_chunk();

  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::string path_;
  std::string tmp_path_;  // where the bytes go until finish() renames them
  std::ofstream out_;
  std::vector<std::uint8_t> chunk_;
  std::uint64_t total_ = 0;  // payload bytes already flushed
  std::uint64_t sum_;        // running checksum over flushed bytes
  bool finished_ = false;
};

class WireReader {
 public:
  /// A non-owning cursor; `bytes` must outlive the reader.
  explicit WireReader(std::span<const std::uint8_t> bytes) : data_(bytes) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  double f64() { return std::bit_cast<double>(get_le<std::uint64_t>("f64")); }

  std::string str() {
    const std::uint64_t len = u64();
    need(len, "str body");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  /// An element count that will size an allocation: rejected unless
  /// count * min_elem_bytes still fits in the unread payload, so a corrupt
  /// header cannot request a multi-gigabyte reserve.
  std::uint64_t read_count(std::size_t min_elem_bytes, const char* what) {
    const std::uint64_t count = u64();
    RON_CHECK(min_elem_bytes == 0 ||
                  count <= remaining() / min_elem_bytes,
              "snapshot: implausible " << what << " count " << count
                                       << " (" << remaining()
                                       << " bytes left)");
    return count;
  }

  /// Loads must consume the payload exactly; trailing garbage is corruption.
  void expect_done() const {
    RON_CHECK(done(), "snapshot: " << remaining() << " trailing bytes");
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    RON_CHECK(n <= remaining(), "snapshot truncated reading " << what << " ("
                                    << n << " bytes wanted, " << remaining()
                                    << " left)");
  }

  template <typename T>
  T get_le(const char* what) {
    need(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Bounded-memory streaming counterpart of WireReader, the reader of every
/// snapshot section: serves the same primitive API from a sliding window
/// over the file, so loading a million-node section holds one chunk plus
/// the data structure being built, never the whole payload. The running
/// checksum is folded over bytes as they are buffered; expect_done() —
/// which every loader must reach — verifies full consumption AND the
/// checksum, so a corrupt tail still surfaces as ron::Error before the
/// loaded object is returned. Construction validates the magic and the
/// exact file length against the header's payload promise; the snapshot
/// layer checks version and kind from header().
class WireStreamReader {
 public:
  struct Header {
    std::uint32_t version = 0;
    std::uint32_t kind = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t checksum = 0;  // the header's claimed checksum
  };

  explicit WireStreamReader(const std::string& path);
  WireStreamReader(const WireStreamReader&) = delete;
  WireStreamReader& operator=(const WireStreamReader&) = delete;

  const Header& header() const { return header_; }

  /// Re-seeds the running checksum (must be called before any payload read).
  /// The construction default is the FNV basis (the v1 domain); v2 loaders
  /// seed with the version/kind prefix hash after inspecting header().
  void seed_checksum(std::uint64_t seed);

  /// Consumes the rest of the payload unparsed (the inspect path: verifies
  /// length and checksum without building anything).
  void drain();

  std::uint64_t remaining() const { return header_.payload_bytes - consumed_; }
  bool done() const { return consumed_ == header_.payload_bytes; }

  std::uint8_t u8() {
    need(1, "u8");
    ++consumed_;
    return buf_[pos_++];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t u64() { return get_le<std::uint64_t>("u64"); }
  double f64() { return std::bit_cast<double>(get_le<std::uint64_t>("f64")); }

  std::string str();

  /// An element count that will size an allocation (see WireReader).
  std::uint64_t read_count(std::size_t min_elem_bytes, const char* what) {
    const std::uint64_t count = u64();
    RON_CHECK(min_elem_bytes == 0 || count <= remaining() / min_elem_bytes,
              "snapshot: implausible " << what << " count " << count << " ("
                                       << remaining() << " bytes left)");
    return count;
  }

  /// Verifies the payload was consumed exactly and the checksum matches.
  void expect_done();

 private:
  /// Ensures >= n contiguous unread bytes are buffered (n <= chunk size).
  void need(std::size_t n, const char* what);

  template <typename T>
  T get_le(const char* what) {
    need(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(buf_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    consumed_ += sizeof(T);
    return v;
  }

  std::string path_;
  std::ifstream in_;
  Header header_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;        // next unread byte in buf_
  std::size_t avail_ = 0;      // valid bytes in buf_
  std::uint64_t fetched_ = 0;  // payload bytes pulled off the stream
  std::uint64_t consumed_ = 0; // payload bytes handed to the parser
  std::uint64_t sum_;          // running checksum over fetched bytes
};

}  // namespace ron
