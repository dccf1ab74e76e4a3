#ifndef ROBUST_SAMPLING_WIRE_CODEC_H_
#define ROBUST_SAMPLING_WIRE_CODEC_H_

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace robust_sampling {
namespace wire {

// ---------------------------------------------------------------------------
// Versioned, length-prefixed binary codec — the bottom layer of the wire
// subsystem (see docs/wire.md for the format rules and layering).
//
// Design constraints, in order:
//  * A corrupted or truncated blob must fail *cleanly*: every Get* returns
//    false and poisons the source, no RS_CHECK aborts, no unbounded
//    allocations driven by attacker-controlled length prefixes, no UB.
//  * No exceptions (library style) and no dependencies above core/, so the
//    sketch headers in core/, quantiles/ and heavy/ can implement their
//    SerializeTo/DeserializeFrom hooks against this header alone.
//  * Byte order is fixed little-endian regardless of host.
//  * I/O cost is amortized: bulk array primitives emit whole rows per
//    Append, and the Buffered{Sink,Source} adapters turn socket traffic
//    into one syscall per ~64 KiB window instead of one per field.
// ---------------------------------------------------------------------------

// ----------------------------------------------------- format versions ---

/// Frame format versions. v1 framed `magic | version | body_len | body |
/// checksum` with per-element varint payload encodings. v2 adds a body
/// encoding byte (none/zstd) after the version and switches the bulk
/// payload shapes (value vectors, count maps, CountMin rows) to
/// fixed-width 8-byte elements. v3 changes only the trailing checksum
/// (XXH64 instead of FNV-1a64, see FrameChecksum); its payloads decode
/// with the v2 rules. Writers always emit kWireFormatCurrent; readers
/// accept every version in [kWireFormatV1, kWireFormatCurrent] via
/// explicit version-upgrade paths (see docs/wire.md).
inline constexpr uint64_t kWireFormatV1 = 1;
inline constexpr uint64_t kWireFormatV2 = 2;
inline constexpr uint64_t kWireFormatV3 = 3;
inline constexpr uint64_t kWireFormatCurrent = kWireFormatV3;

/// Body encoding carried in the frame header since v2. kZstd is written only
/// when compiled-in support exists *and* compression actually shrinks the
/// body; otherwise writers silently fall back to kNone, so producing a
/// compressed checkpoint can never fail on a zstd-less build.
enum class BodyEncoding : uint8_t { kNone = 0, kZstd = 1 };

/// True when zstd support was compiled in (CMake found the header and
/// library). When false, WriteFramedBody ignores a kZstd request and
/// ReadFramedBody cleanly rejects zstd-encoded frames.
bool ZstdSupported();

/// Window size of the buffered adapters and of the chunked bulk reads.
inline constexpr size_t kWireBufferBytes = size_t{64} * 1024;

// ----------------------------------------------------------------- sinks ---

/// Abstract byte output. Append never aborts; media errors (disk full,
/// closed peer) latch `ok() == false` and later Appends become no-ops, so
/// callers may write a whole message and check once at the end.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void Append(const void* data, size_t n) = 0;
  virtual bool ok() const = 0;
};

/// Grows an in-memory byte buffer (snapshot staging, tests).
class BufferSink final : public ByteSink {
 public:
  void Append(const void* data, size_t n) override;
  bool ok() const override { return true; }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Buffered writes to a file opened at construction ("wb"). `ok()` is false
/// if the open or any write failed. SyncAndClose() flushes user and kernel
/// buffers (fflush + fsync) before closing — the durability half of the
/// checkpoint write-then-rename protocol.
class FileSink final : public ByteSink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void Append(const void* data, size_t n) override;
  bool ok() const override { return ok_; }

  /// fflush + fsync + fclose; returns the final ok(). Idempotent.
  bool SyncAndClose();

 private:
  std::FILE* file_ = nullptr;
  bool ok_ = true;
};

/// Writes all `n` bytes to the connected socket `fd` with
/// send(..., MSG_NOSIGNAL), retrying short writes and EINTR; returns false
/// on any unrecoverable error (the caller latches its failure state). A
/// hung-up peer surfaces as EPIPE -> false instead of killing the process
/// with SIGPIPE. Successful chunks count toward rs_wire_bytes_out_total.
bool WriteAllFd(int fd, const void* data, size_t n);

/// Batches small Appends into a 64 KiB window and forwards one Append per
/// full window to the wrapped sink, so a serializer emitting per-field
/// varints through a net::SocketSink costs one send per window instead of
/// per field. Appends at least a window in size bypass the buffer after a
/// flush (no double copy). Flushes on destruction; callers that need the
/// bytes on the wire before continuing (the shipper's ship write) call
/// Flush() explicitly and then check ok().
class BufferedSink final : public ByteSink {
 public:
  explicit BufferedSink(ByteSink& base, size_t capacity = kWireBufferBytes);
  ~BufferedSink() override;
  BufferedSink(const BufferedSink&) = delete;
  BufferedSink& operator=(const BufferedSink&) = delete;

  void Append(const void* data, size_t n) override;
  bool ok() const override { return base_.ok(); }

  /// Forwards all buffered bytes to the wrapped sink in one Append.
  void Flush();

 private:
  ByteSink& base_;
  std::vector<uint8_t> buf_;
  size_t capacity_;
};

// --------------------------------------------------------------- sources ---

/// Abstract byte input. `Read` pulls exactly n bytes or returns false and
/// poisons the source; once failed, every subsequent Read fails. Decoders
/// may also call `Fail()` when bytes arrive but do not parse (bad varint,
/// out-of-range value), so `failed()` reports any malformation.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  bool Read(void* out, size_t n) {
    if (failed_) return false;
    if (!ReadImpl(out, n)) failed_ = true;
    return !failed_;
  }

  /// Reads up to n bytes, returning the count delivered (0 at EOF or on a
  /// failed source). Unlike Read, a short result is not an error and does
  /// not poison the source — BufferedSource uses it to fill its window
  /// with whatever the medium has ready (one recv on a socket).
  size_t ReadSome(void* out, size_t n) {
    if (failed_ || n == 0) return 0;
    return ReadSomeImpl(out, n);
  }

  /// Marks the source malformed; returns false for `return src.Fail();`.
  bool Fail() {
    failed_ = true;
    return false;
  }

  bool failed() const { return failed_; }

  /// Frame format version governing how nested payloads decode (the
  /// vector/count-map element encodings changed in v2). ReadSnapshot and
  /// ShardedPipeline::Restore stamp the version parsed from the frame
  /// header onto the payload sources they hand to DeserializeFrom; a
  /// fresh source assumes the current version.
  uint64_t wire_version() const { return wire_version_; }
  void set_wire_version(uint64_t v) { wire_version_ = v; }

  /// Bytes left before EOF when the medium knows (buffers, regular files);
  /// nullopt on sockets. Used to reject length prefixes that exceed
  /// the data that could possibly back them.
  virtual std::optional<uint64_t> remaining() const = 0;

 protected:
  virtual bool ReadImpl(void* out, size_t n) = 0;

  /// Partial-read primitive backing ReadSome. The default delegates to
  /// ReadImpl (exact-or-fail); socket sources override it with a single
  /// short-read syscall, in-memory sources with a clamp to what is left.
  virtual size_t ReadSomeImpl(void* out, size_t n) {
    return ReadImpl(out, n) ? n : 0;
  }

 private:
  bool failed_ = false;
  uint64_t wire_version_ = kWireFormatCurrent;
};

/// Reads from a caller-owned span of bytes.
class BufferSource final : public ByteSource {
 public:
  explicit BufferSource(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  std::optional<uint64_t> remaining() const override {
    return bytes_.size() - pos_;
  }

 protected:
  bool ReadImpl(void* out, size_t n) override;
  size_t ReadSomeImpl(void* out, size_t n) override;

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Buffered reads from a file opened at construction ("rb").
class FileSource final : public ByteSource {
 public:
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  /// False if the file could not be opened (every Read will fail).
  bool open() const { return file_ != nullptr; }

  std::optional<uint64_t> remaining() const override;

 protected:
  bool ReadImpl(void* out, size_t n) override;
  size_t ReadSomeImpl(void* out, size_t n) override;

 private:
  std::FILE* file_ = nullptr;
  uint64_t size_ = 0;
  uint64_t pos_ = 0;
};

/// Buffered adapter over another source: refills a 64 KiB window with one
/// ReadSome per refill (one recv on a socket) and serves decoder reads from
/// memory, turning the per-varint syscall pattern into bulk transfers.
/// Reads ahead of what the decoder consumes, so wrap exactly one logical
/// stream per BufferedSource; consecutive messages on the same stream must
/// share the adapter (the look-ahead bytes belong to the next message).
class BufferedSource final : public ByteSource {
 public:
  explicit BufferedSource(ByteSource& base,
                          size_t capacity = kWireBufferBytes);
  BufferedSource(const BufferedSource&) = delete;
  BufferedSource& operator=(const BufferedSource&) = delete;

  std::optional<uint64_t> remaining() const override;

 protected:
  bool ReadImpl(void* out, size_t n) override;
  size_t ReadSomeImpl(void* out, size_t n) override;

 private:
  size_t buffered() const { return fill_ - pos_; }

  ByteSource& base_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;   // next unconsumed byte in buf_
  size_t fill_ = 0;  // valid bytes in buf_
};

// --------------------------------------------------------- primitives ---

/// Hard caps applied when a length prefix cannot be validated against
/// `remaining()` (socket sources). Generous for every in-tree sketch state,
/// tight enough that a corrupt prefix cannot drive an OOM.
inline constexpr uint64_t kMaxStringBytes = uint64_t{1} << 16;
inline constexpr uint64_t kMaxVectorElements = uint64_t{1} << 26;

/// LEB128 unsigned varint, at most 10 bytes for 64 bits.
void PutVarint(ByteSink& sink, uint64_t v);
bool GetVarint(ByteSource& source, uint64_t* out);

/// Little-endian fixed-width integers.
void PutFixed32(ByteSink& sink, uint32_t v);
void PutFixed64(ByteSink& sink, uint64_t v);
bool GetFixed32(ByteSource& source, uint32_t* out);
bool GetFixed64(ByteSource& source, uint64_t* out);

/// Bulk little-endian fixed64 rows: on little-endian hosts the span is a
/// single Append / Read of the raw bytes; big-endian hosts pay a
/// per-element byte swap. GetFixed64Array trusts `count` — callers
/// validate it against remaining()/caps before allocating `out`.
void PutFixed64Array(ByteSink& sink, std::span<const uint64_t> values);
bool GetFixed64Array(ByteSource& source, uint64_t* out, size_t count);

/// IEEE doubles/floats as little-endian bit patterns (exact round trip,
/// NaN payloads included).
void PutDouble(ByteSink& sink, double v);
bool GetDouble(ByteSource& source, double* out);

/// Length-prefixed byte strings. Get rejects lengths above
/// min(max_bytes, remaining()).
void PutString(ByteSink& sink, const std::string& s);
bool GetString(ByteSource& source, std::string* out,
               uint64_t max_bytes = kMaxStringBytes);

/// Length-prefixed raw byte blocks (nested payloads inside a framed body).
void PutBytes(ByteSink& sink, std::span<const uint8_t> bytes);
bool GetBytes(ByteSource& source, std::vector<uint8_t>* out,
              uint64_t max_bytes);

/// Xoshiro256pp state words, encoded as four fixed64 values — one helper
/// so every sketch puts RNG state on the wire identically.
void PutStateWords(ByteSink& sink, const std::array<uint64_t, 4>& words);
bool GetStateWords(ByteSource& source, std::array<uint64_t, 4>* words);

/// The integrity checksum a frame of format `version` carries over its
/// stored body: FNV-1a64 for v1 and v2, XXH64 with seed 0 from v3 on.
/// Both catch torn writes and flipped bits; neither authenticates a peer.
uint64_t FrameChecksum(uint64_t version, std::span<const uint8_t> bytes);

// -------------------------------------------------------- value codec ---

/// Element types the generic samplers can put on the wire. Types outside
/// this concept simply leave the serialize hooks undiscovered (the
/// capability bit stays off).
///
/// Two element encodings exist: single scalars (PutValue/GetValue) use
/// varints — zigzag for signed, plain for unsigned, fixed64 bit patterns
/// for floating point — in every format version; bulk shapes (vectors,
/// count maps) use the same varints in v1 but fixed 8-byte rows from v2 on
/// (integral as two's-complement little-endian, floating point as IEEE
/// double bits), which is what makes whole-row memcpy emission possible.
template <typename T>
concept WireValue = (std::integral<T> || std::floating_point<T>) &&
                    !std::is_same_v<T, bool>;

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

template <WireValue T>
void PutValue(ByteSink& sink, const T& v) {
  if constexpr (std::floating_point<T>) {
    PutDouble(sink, static_cast<double>(v));
  } else if constexpr (std::is_signed_v<T>) {
    PutVarint(sink, ZigzagEncode(static_cast<int64_t>(v)));
  } else {
    PutVarint(sink, static_cast<uint64_t>(v));
  }
}

template <WireValue T>
bool GetValue(ByteSource& source, T* out) {
  if constexpr (std::floating_point<T>) {
    double d = 0.0;
    if (!GetDouble(source, &d)) return false;
    *out = static_cast<T>(d);
    return true;
  } else if constexpr (std::is_signed_v<T>) {
    uint64_t raw = 0;
    if (!GetVarint(source, &raw)) return false;
    const int64_t v = ZigzagDecode(raw);
    if (v < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
        v > static_cast<int64_t>(std::numeric_limits<T>::max())) {
      return source.Fail();
    }
    *out = static_cast<T>(v);
    return true;
  } else {
    uint64_t v = 0;
    if (!GetVarint(source, &v)) return false;
    if (v > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      return source.Fail();
    }
    *out = static_cast<T>(v);
    return true;
  }
}

/// True when T's in-memory representation *is* the v2 wire encoding
/// (8-byte two's-complement integral or IEEE double on a little-endian
/// host) — the whole span copies with one Append/Read, no per-element
/// work.
template <typename T>
inline constexpr bool kFixed64Transparent =
    std::endian::native == std::endian::little && sizeof(T) == 8 &&
    (std::integral<T> || std::same_as<T, double>);

/// v2 fixed-width element encoding: integral values as two's-complement
/// little-endian fixed64, floating point as IEEE double bit patterns.
template <WireValue T>
uint64_t FixedEncodeValue(T v) {
  if constexpr (std::floating_point<T>) {
    return std::bit_cast<uint64_t>(static_cast<double>(v));
  } else if constexpr (std::is_signed_v<T>) {
    return static_cast<uint64_t>(static_cast<int64_t>(v));
  } else {
    return static_cast<uint64_t>(v);
  }
}

template <WireValue T>
bool FixedDecodeValue(ByteSource& source, uint64_t raw, T* out) {
  if constexpr (std::floating_point<T>) {
    *out = static_cast<T>(std::bit_cast<double>(raw));
    return true;
  } else if constexpr (std::is_signed_v<T>) {
    const int64_t v = static_cast<int64_t>(raw);
    if (v < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
        v > static_cast<int64_t>(std::numeric_limits<T>::max())) {
      return source.Fail();
    }
    *out = static_cast<T>(v);
    return true;
  } else {
    if (raw > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
      return source.Fail();
    }
    *out = static_cast<T>(raw);
    return true;
  }
}

/// Bulk v2 element rows (no count prefix — the caller owns that). On
/// transparent types the span goes out in one Append; otherwise elements
/// convert through a stack chunk, still one Append per chunk.
template <WireValue T>
void PutValueArray(ByteSink& sink, std::span<const T> values) {
  if constexpr (kFixed64Transparent<T>) {
    sink.Append(values.data(), values.size() * sizeof(T));
  } else {
    std::array<uint64_t, 1024> chunk;
    size_t i = 0;
    while (i < values.size()) {
      const size_t take = std::min(values.size() - i, chunk.size());
      for (size_t j = 0; j < take; ++j) {
        chunk[j] = FixedEncodeValue(values[i + j]);
      }
      PutFixed64Array(sink, std::span<const uint64_t>(chunk.data(), take));
      i += take;
    }
  }
}

/// Reads exactly `count` v2 fixed-width elements, appended to *out in
/// bounded chunks — a corrupt count on a size-blind source fails at EOF
/// after at most one chunk of over-allocation. The caller validates
/// `count` against caps/remaining() first.
template <WireValue T>
bool GetValueArray(ByteSource& source, std::vector<T>* out, uint64_t count) {
  if constexpr (kFixed64Transparent<T>) {
    constexpr size_t kChunkElems = kWireBufferBytes / sizeof(T);
    while (count > 0) {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(count, kChunkElems));
      const size_t old_size = out->size();
      out->resize(old_size + take);
      if (!source.Read(out->data() + old_size, take * sizeof(T))) {
        return false;
      }
      count -= take;
    }
    return true;
  } else {
    std::array<uint64_t, 1024> chunk;
    while (count > 0) {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(count, chunk.size()));
      if (!GetFixed64Array(source, chunk.data(), take)) return false;
      for (size_t j = 0; j < take; ++j) {
        T v{};
        if (!FixedDecodeValue(source, chunk[j], &v)) return false;
        out->push_back(v);
      }
      count -= take;
    }
    return true;
  }
}

/// Count-prefixed element vectors. Writers emit the v2 (current) shape:
/// varint count followed by fixed 8-byte rows. The reader branches on the
/// source's wire_version() so v1 blobs (per-element varints) keep
/// decoding. The count is validated against `remaining()` when known and
/// against `max_elements` always, so a corrupt prefix fails before
/// allocating.
template <WireValue T>
void PutValueVector(ByteSink& sink, std::span<const T> values) {
  PutVarint(sink, values.size());
  PutValueArray(sink, values);
}

template <WireValue T>
bool GetValueVector(ByteSource& source, std::vector<T>* out,
                    uint64_t max_elements = kMaxVectorElements) {
  uint64_t count = 0;
  if (!GetVarint(source, &count)) return false;
  if (count > max_elements) return source.Fail();
  if (source.wire_version() >= kWireFormatV2) {
    // v2: every element costs exactly 8 bytes.
    if (const auto rem = source.remaining(); rem && count > *rem / 8) {
      return source.Fail();
    }
    out->clear();
    out->reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
    return GetValueArray(source, out, count);
  }
  // v1 upgrade reader: per-element varint/zigzag/fixed64 encoding, each
  // element costing >= 1 byte.
  if (const auto rem = source.remaining(); rem && count > *rem) {
    return source.Fail();
  }
  out->clear();
  // Bounded up-front reserve: on a size-blind source (socket) the count is
  // only cap-checked, so trust it incrementally instead of allocating
  // count elements before the first byte arrives (growth stays amortized).
  out->reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
  for (uint64_t i = 0; i < count; ++i) {
    T v{};
    if (!GetValue(source, &v)) return false;
    out->push_back(v);
  }
  return true;
}

/// element -> count maps, the common state shape of the frequency
/// summaries (CountMin candidates, Misra-Gries counters, SpaceSaving
/// counts). Entries go on the wire sorted by element so identical states
/// serialize to identical bytes regardless of hash-table history. v2
/// stores `count | elements fixed64 row | counts fixed64 row` (two bulk
/// Appends); v1 interleaved per-entry varints, and the reader upgrades
/// transparently. Get rejects out-of-order/duplicate elements and counts
/// of zero (no real summary stores either) on top of length validation.
void PutCountMap(ByteSink& sink,
                 const std::unordered_map<int64_t, uint64_t>& map);
bool GetCountMap(ByteSource& source,
                 std::unordered_map<int64_t, uint64_t>* out,
                 uint64_t max_entries = kMaxVectorElements);

/// The full wire shape shared by the counter-based summaries
/// (Misra-Gries, SpaceSaving): `k | n | count map`. Get additionally
/// validates k's range, map size <= k, and sum(counts) <= n — both
/// summaries' stored totals never exceed the stream length (MG
/// undercounts; SpaceSaving adds exactly one per insert and merging only
/// discards entries) — with an overflow-safe running sum.
void PutCounterSummary(ByteSink& sink, uint64_t k, uint64_t n,
                       const std::unordered_map<int64_t, uint64_t>& map);
bool GetCounterSummary(ByteSource& source, uint64_t* k, uint64_t* n,
                       std::unordered_map<int64_t, uint64_t>* map);

// ------------------------------------------------------ body framing ---

/// Framed-body helpers shared by snapshots and checkpoints. A v3 message
/// is `magic (4 bytes) | format version varint | encoding byte |
/// [raw body length varint, iff encoded] | stored length varint |
/// stored body | XXH64(stored body) fixed64`; v2 had the same layout
/// with an FNV-1a64 checksum, and v1 also lacked the encoding byte and
/// raw length. Integrity first: the checksum (picked by the version the
/// header names) covers the *stored* (possibly compressed) bytes and is
/// verified before decompression or any body parse, so random corruption
/// anywhere is caught up front.
inline constexpr uint64_t kMaxBodyBytes = uint64_t{1} << 30;

/// Returns false — writing nothing — if `body` exceeds kMaxBodyBytes: a
/// frame the reader would reject must never be produced (a "successful"
/// but unrestorable checkpoint would be worse than a failed one). A kZstd
/// request silently downgrades to kNone when support is missing or the
/// compressed body would not be smaller.
bool WriteFramedBody(ByteSink& sink, const char magic[4],
                     std::span<const uint8_t> body,
                     BodyEncoding encoding = BodyEncoding::kNone);

/// Reads and verifies one framed message of any supported version
/// (v1..current); on success stores the decoded (decompressed) body and,
/// when `format_version` is non-null, the frame's version so the caller
/// can stamp it onto payload sources. On failure returns false and, if
/// `error` is non-null, stores a one-line reason. Unknown future versions
/// and unknown encodings are rejected rather than guessed (see
/// docs/wire.md).
bool ReadFramedBody(ByteSource& source, const char magic[4],
                    std::vector<uint8_t>* body, std::string* error,
                    uint64_t* format_version = nullptr);

/// Durably replaces `path` with one framed body (WriteFramedBody): write
/// `path + ".tmp"`, fflush + fsync, rename over `path`, fsync the parent
/// directory. A crash at any instant leaves either the previous file or
/// the new one, never a torn one. On failure removes the tmp file, leaves
/// any previous `path` in place and stores a one-line reason in `error`.
bool AtomicWriteFile(const std::string& path, const char magic[4],
                     std::span<const uint8_t> body,
                     BodyEncoding encoding = BodyEncoding::kNone,
                     std::string* error = nullptr);

}  // namespace wire
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_WIRE_CODEC_H_
