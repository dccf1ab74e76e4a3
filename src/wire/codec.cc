#include "wire/codec.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#if defined(RS_HAVE_ZSTD)
#include <zstd.h>
#endif

#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace robust_sampling {
namespace wire {

// ----------------------------------------------------------------- sinks ---

void BufferSink::Append(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

FileSink::FileSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) ok_ = false;
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileSink::Append(const void* data, size_t n) {
  if (!ok_ || n == 0) return;
  if (std::fwrite(data, 1, n, file_) != n) {
    ok_ = false;
    return;
  }
  obs::WireBytesOut().Increment(n);
}

bool FileSink::SyncAndClose() {
  if (file_ == nullptr) return ok_;
  if (std::fflush(file_) != 0) ok_ = false;
  if (ok_) {
    const uint64_t start_ns = obs::NowNanos();
    if (fsync(fileno(file_)) != 0) ok_ = false;
    obs::WireFsyncNs().Observe(obs::NowNanos() - start_ns);
  }
  if (std::fclose(file_) != 0) ok_ = false;
  file_ = nullptr;
  return ok_;
}

bool WriteAllFd(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a hung-up peer comes back as EPIPE, not SIGPIPE.
    const ssize_t written = send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    obs::WireBytesOut().Increment(static_cast<uint64_t>(written));
    p += written;
    n -= static_cast<size_t>(written);
  }
  return true;
}

BufferedSink::BufferedSink(ByteSink& base, size_t capacity)
    : base_(base), capacity_(std::max<size_t>(capacity, 1)) {
  buf_.reserve(capacity_);
}

BufferedSink::~BufferedSink() { Flush(); }

void BufferedSink::Append(const void* data, size_t n) {
  if (n >= capacity_) {
    Flush();
    base_.Append(data, n);
    return;
  }
  if (buf_.size() + n > capacity_) Flush();
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void BufferedSink::Flush() {
  if (buf_.empty()) return;
  base_.Append(buf_.data(), buf_.size());
  buf_.clear();
  obs::WireBufferFlushes().Increment();
}

// --------------------------------------------------------------- sources ---

bool BufferSource::ReadImpl(void* out, size_t n) {
  if (n > bytes_.size() - pos_) return false;
  std::memcpy(out, bytes_.data() + pos_, n);
  pos_ += n;
  return true;
}

size_t BufferSource::ReadSomeImpl(void* out, size_t n) {
  const size_t take = std::min(n, bytes_.size() - pos_);
  std::memcpy(out, bytes_.data() + pos_, take);
  pos_ += take;
  return take;
}

FileSource::FileSource(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return;
  if (std::fseek(file_, 0, SEEK_END) == 0) {
    const long end = std::ftell(file_);
    if (end >= 0) size_ = static_cast<uint64_t>(end);
  }
  std::rewind(file_);
}

FileSource::~FileSource() {
  if (file_ != nullptr) std::fclose(file_);
}

std::optional<uint64_t> FileSource::remaining() const {
  if (file_ == nullptr) return 0;
  return pos_ <= size_ ? size_ - pos_ : 0;
}

bool FileSource::ReadImpl(void* out, size_t n) {
  if (file_ == nullptr) return false;
  if (std::fread(out, 1, n, file_) != n) return false;
  pos_ += n;
  obs::WireBytesIn().Increment(n);
  return true;
}

size_t FileSource::ReadSomeImpl(void* out, size_t n) {
  if (file_ == nullptr) return 0;
  const size_t got = std::fread(out, 1, n, file_);
  pos_ += got;
  if (got > 0) obs::WireBytesIn().Increment(got);
  return got;
}

BufferedSource::BufferedSource(ByteSource& base, size_t capacity)
    : base_(base), buf_(std::max<size_t>(capacity, 1)) {}

std::optional<uint64_t> BufferedSource::remaining() const {
  const auto rem = base_.remaining();
  if (!rem) return std::nullopt;
  return *rem + buffered();
}

bool BufferedSource::ReadImpl(void* out, size_t n) {
  auto* p = static_cast<uint8_t*>(out);
  const size_t from_buf = std::min(n, buffered());
  std::memcpy(p, buf_.data() + pos_, from_buf);
  pos_ += from_buf;
  p += from_buf;
  n -= from_buf;
  if (n == 0) return true;
  if (n >= buf_.size()) {
    // The window is drained and the rest is at least a full window:
    // transfer straight into the caller's buffer (no double copy).
    while (n > 0) {
      const size_t got = base_.ReadSome(p, n);
      if (got == 0) return false;
      p += got;
      n -= got;
    }
    return true;
  }
  while (n > 0) {
    pos_ = 0;
    fill_ = base_.ReadSome(buf_.data(), buf_.size());
    if (fill_ == 0) return false;
    const size_t take = std::min(n, fill_);
    std::memcpy(p, buf_.data(), take);
    pos_ = take;
    p += take;
    n -= take;
  }
  return true;
}

size_t BufferedSource::ReadSomeImpl(void* out, size_t n) {
  if (buffered() == 0) {
    pos_ = 0;
    fill_ = base_.ReadSome(buf_.data(), buf_.size());
  }
  const size_t take = std::min(n, buffered());
  std::memcpy(out, buf_.data() + pos_, take);
  pos_ += take;
  return take;
}

// ------------------------------------------------------------ primitives ---

void PutVarint(ByteSink& sink, uint64_t v) {
  uint8_t buf[10];
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<uint8_t>(v);
  sink.Append(buf, n);
}

bool GetVarint(ByteSource& source, uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte = 0;
    if (!source.Read(&byte, 1)) return false;
    // The 10th byte may carry only the final bit of a 64-bit value.
    if (shift == 63 && (byte & 0xFE) != 0) return source.Fail();
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
  }
  return source.Fail();  // continuation bit set on the 10th byte
}

void PutFixed32(ByteSink& sink, uint32_t v) {
  uint8_t buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
  sink.Append(buf, 4);
}

void PutFixed64(ByteSink& sink, uint64_t v) {
  uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
  sink.Append(buf, 8);
}

bool GetFixed32(ByteSource& source, uint32_t* out) {
  uint8_t buf[4];
  if (!source.Read(buf, 4)) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf[i]) << (8 * i);
  *out = v;
  return true;
}

bool GetFixed64(ByteSource& source, uint64_t* out) {
  uint8_t buf[8];
  if (!source.Read(buf, 8)) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf[i]) << (8 * i);
  *out = v;
  return true;
}

void PutFixed64Array(ByteSink& sink, std::span<const uint64_t> values) {
  if constexpr (std::endian::native == std::endian::little) {
    sink.Append(values.data(), values.size() * sizeof(uint64_t));
  } else {
    for (uint64_t v : values) PutFixed64(sink, v);
  }
}

bool GetFixed64Array(ByteSource& source, uint64_t* out, size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    return source.Read(out, count * sizeof(uint64_t));
  } else {
    for (size_t i = 0; i < count; ++i) {
      if (!GetFixed64(source, &out[i])) return false;
    }
    return true;
  }
}

void PutDouble(ByteSink& sink, double v) {
  PutFixed64(sink, std::bit_cast<uint64_t>(v));
}

bool GetDouble(ByteSource& source, double* out) {
  uint64_t bits = 0;
  if (!GetFixed64(source, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

void PutString(ByteSink& sink, const std::string& s) {
  PutVarint(sink, s.size());
  sink.Append(s.data(), s.size());
}

namespace {

// Reads `len` bytes in bounded chunks so a corrupt length prefix on a
// size-blind source (socket) fails at EOF after at most one chunk of
// over-allocation — never a len-sized allocation up front.
template <typename Container>
bool ReadChunked(ByteSource& source, Container* out, uint64_t len) {
  constexpr size_t kChunk = 1 << 16;
  out->clear();
  while (len > 0) {
    const size_t take = static_cast<size_t>(std::min<uint64_t>(len, kChunk));
    const size_t old_size = out->size();
    out->resize(old_size + take);
    if (!source.Read(out->data() + old_size, take)) return false;
    len -= take;
  }
  return true;
}

}  // namespace

bool GetString(ByteSource& source, std::string* out, uint64_t max_bytes) {
  uint64_t len = 0;
  if (!GetVarint(source, &len)) return false;
  if (len > max_bytes) return source.Fail();
  if (const auto rem = source.remaining(); rem && len > *rem) {
    return source.Fail();
  }
  return ReadChunked(source, out, len);
}

void PutBytes(ByteSink& sink, std::span<const uint8_t> bytes) {
  PutVarint(sink, bytes.size());
  sink.Append(bytes.data(), bytes.size());
}

bool GetBytes(ByteSource& source, std::vector<uint8_t>* out,
              uint64_t max_bytes) {
  uint64_t len = 0;
  if (!GetVarint(source, &len)) return false;
  if (len > max_bytes) return source.Fail();
  if (const auto rem = source.remaining(); rem && len > *rem) {
    return source.Fail();
  }
  return ReadChunked(source, out, len);
}

void PutStateWords(ByteSink& sink, const std::array<uint64_t, 4>& words) {
  PutFixed64Array(sink, words);
}

bool GetStateWords(ByteSource& source, std::array<uint64_t, 4>* words) {
  return GetFixed64Array(source, words->data(), words->size());
}

void PutCountMap(ByteSink& sink,
                 const std::unordered_map<int64_t, uint64_t>& map) {
  std::vector<std::pair<int64_t, uint64_t>> entries(map.begin(), map.end());
  std::sort(entries.begin(), entries.end());
  PutVarint(sink, entries.size());
  // v2 shape: elements row then counts row, two bulk Appends total.
  std::vector<int64_t> elements;
  std::vector<uint64_t> counts;
  elements.reserve(entries.size());
  counts.reserve(entries.size());
  for (const auto& [element, count] : entries) {
    elements.push_back(element);
    counts.push_back(count);
  }
  PutValueArray<int64_t>(sink, elements);
  PutFixed64Array(sink, counts);
}

bool GetCountMap(ByteSource& source,
                 std::unordered_map<int64_t, uint64_t>* out,
                 uint64_t max_entries) {
  uint64_t count = 0;
  if (!GetVarint(source, &count)) return false;
  if (count > max_entries) return source.Fail();
  if (source.wire_version() >= kWireFormatV2) {
    // v2: every entry costs exactly 16 bytes (two fixed64 rows).
    if (const auto rem = source.remaining(); rem && count > *rem / 16) {
      return source.Fail();
    }
    std::vector<int64_t> elements;
    std::vector<uint64_t> counts;
    elements.reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
    counts.reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
    if (!GetValueArray(source, &elements, count) ||
        !GetValueArray(source, &counts, count)) {
      return false;
    }
    out->clear();
    out->reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
    for (uint64_t i = 0; i < count; ++i) {
      // The writer sorts, so anything non-ascending is malformed (this
      // also makes duplicates impossible).
      if (i > 0 && elements[i] <= elements[i - 1]) return source.Fail();
      if (counts[i] == 0) return source.Fail();
      out->emplace(elements[i], counts[i]);
    }
    return true;
  }
  // v1 upgrade reader: interleaved per-entry varints, >= 2 bytes each.
  if (const auto rem = source.remaining(); rem && count > *rem / 2) {
    return source.Fail();
  }
  out->clear();
  // Bounded up-front reserve: on a size-blind source the count is only
  // cap-checked, so trust it incrementally (growth stays amortized O(1)).
  out->reserve(static_cast<size_t>(std::min<uint64_t>(count, 4096)));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t element_raw = 0, c = 0;
    if (!GetVarint(source, &element_raw) || !GetVarint(source, &c)) {
      return false;
    }
    if (c == 0) return source.Fail();
    if (!out->emplace(ZigzagDecode(element_raw), c).second) {
      return source.Fail();  // duplicate element
    }
  }
  return true;
}

void PutCounterSummary(ByteSink& sink, uint64_t k, uint64_t n,
                       const std::unordered_map<int64_t, uint64_t>& map) {
  PutVarint(sink, k);
  PutVarint(sink, n);
  PutCountMap(sink, map);
}

bool GetCounterSummary(ByteSource& source, uint64_t* k, uint64_t* n,
                       std::unordered_map<int64_t, uint64_t>* map) {
  if (!GetVarint(source, k) || !GetVarint(source, n)) return false;
  if (*k < 1 || *k > kMaxVectorElements) return source.Fail();
  if (!GetCountMap(source, map, *k)) return false;
  uint64_t total = 0;
  for (const auto& [element, count] : *map) {
    // count > n - total also keeps the running sum from overflowing.
    if (count > *n - total) return source.Fail();
    total += count;
  }
  return true;
}

void Fnv1a64::Update(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = state_;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  state_ = h;
}

uint64_t Checksum(std::span<const uint8_t> bytes) {
  Fnv1a64 fnv;
  fnv.Update(bytes.data(), bytes.size());
  return fnv.digest();
}

// ----------------------------------------------------------- body framing ---

bool ZstdSupported() {
#if defined(RS_HAVE_ZSTD)
  return true;
#else
  return false;
#endif
}

namespace {

bool ZstdCompress(std::span<const uint8_t> raw, std::vector<uint8_t>* out) {
#if defined(RS_HAVE_ZSTD)
  out->resize(ZSTD_compressBound(raw.size()));
  const size_t n = ZSTD_compress(out->data(), out->size(), raw.data(),
                                 raw.size(), /*compressionLevel=*/3);
  if (ZSTD_isError(n)) return false;
  out->resize(n);
  return true;
#else
  (void)raw;
  (void)out;
  return false;
#endif
}

bool ZstdDecompress(std::span<const uint8_t> stored, size_t raw_len,
                    std::vector<uint8_t>* out) {
#if defined(RS_HAVE_ZSTD)
  out->resize(raw_len);
  const size_t n = ZSTD_decompress(out->data(), raw_len, stored.data(),
                                   stored.size());
  return !ZSTD_isError(n) && n == raw_len;
#else
  (void)stored;
  (void)raw_len;
  (void)out;
  return false;
#endif
}

// Every frame rejection is counted and leaves a flight-recorder error
// event naming the expected frame magic and the reason, so a corrupt
// checkpoint or stream is diagnosable after the fact from the dump alone.
bool FramedError(std::string* error, const char magic[4],
                 const char* reason) {
  if (error != nullptr) *error = reason;
  obs::WireFrameFailures().Increment();
  const char frame[5] = {magic[0], magic[1], magic[2], magic[3], '\0'};
  obs::FlightRecorder::Global().RecordError(
      "wire", std::string("frame ") + frame + ": " + reason);
  return false;
}

}  // namespace

bool WriteFramedBody(ByteSink& sink, const char magic[4],
                     std::span<const uint8_t> body, BodyEncoding encoding) {
  if (body.size() > kMaxBodyBytes) return false;
  std::vector<uint8_t> compressed;
  std::span<const uint8_t> stored = body;
  if (encoding == BodyEncoding::kZstd) {
    if (!ZstdCompress(body, &compressed) ||
        compressed.size() >= body.size()) {
      // No support compiled in, or no size win: ship raw. The frame says
      // kNone, so the reader never needs zstd for this message.
      encoding = BodyEncoding::kNone;
    } else {
      stored = compressed;
      obs::WireCompressRatio().Observe(stored.size() * 100 / body.size());
    }
  }
  sink.Append(magic, 4);
  PutVarint(sink, kWireFormatCurrent);
  const uint8_t encoding_byte = static_cast<uint8_t>(encoding);
  sink.Append(&encoding_byte, 1);
  if (encoding != BodyEncoding::kNone) PutVarint(sink, body.size());
  PutVarint(sink, stored.size());
  sink.Append(stored.data(), stored.size());
  PutFixed64(sink, Checksum(stored));
  return sink.ok();
}

bool ReadFramedBody(ByteSource& source, const char magic[4],
                    std::vector<uint8_t>* body, std::string* error,
                    uint64_t* format_version) {
  char got_magic[4];
  if (!source.Read(got_magic, 4)) {
    return FramedError(error, magic, "truncated header");
  }
  if (std::memcmp(got_magic, magic, 4) != 0) {
    source.Fail();
    return FramedError(error, magic, "bad magic");
  }
  uint64_t version = 0;
  if (!GetVarint(source, &version)) {
    return FramedError(error, magic, "truncated version");
  }
  if (version < kWireFormatV1 || version > kWireFormatCurrent) {
    source.Fail();
    return FramedError(error, magic, "unsupported format version");
  }
  bool compressed = false;
  uint64_t raw_len = 0;
  if (version >= kWireFormatV2) {
    uint8_t encoding_byte = 0;
    if (!source.Read(&encoding_byte, 1)) {
      return FramedError(error, magic, "truncated encoding byte");
    }
    if (encoding_byte > static_cast<uint8_t>(BodyEncoding::kZstd)) {
      source.Fail();
      return FramedError(error, magic, "unknown body encoding");
    }
    compressed = encoding_byte == static_cast<uint8_t>(BodyEncoding::kZstd);
    if (compressed && !ZstdSupported()) {
      source.Fail();
      return FramedError(error, magic,
                         "zstd body but zstd support not compiled in");
    }
    if (compressed) {
      if (!GetVarint(source, &raw_len)) {
        return FramedError(error, magic, "truncated raw body length");
      }
      if (raw_len > kMaxBodyBytes) {
        source.Fail();
        return FramedError(error, magic, "body length exceeds limit");
      }
    }
  }
  uint64_t stored_len = 0;
  if (!GetVarint(source, &stored_len)) {
    return FramedError(error, magic, "truncated body length");
  }
  if (stored_len > kMaxBodyBytes) {
    source.Fail();
    return FramedError(error, magic, "body length exceeds limit");
  }
  // The trailing checksum costs 8 more bytes, so a known-size source must
  // still hold stored_len + 8.
  if (const auto rem = source.remaining(); rem && stored_len + 8 > *rem) {
    source.Fail();
    return FramedError(error, magic, "body length exceeds available bytes");
  }
  if (!ReadChunked(source, body, stored_len)) {
    return FramedError(error, magic, "truncated body");
  }
  uint64_t expected_checksum = 0;
  if (!GetFixed64(source, &expected_checksum)) {
    return FramedError(error, magic, "truncated checksum");
  }
  // Integrity before interpretation: the checksum covers the stored bytes,
  // so corruption is caught here and never reaches the decompressor.
  if (Checksum(*body) != expected_checksum) {
    source.Fail();
    return FramedError(error, magic, "checksum mismatch");
  }
  if (compressed) {
    std::vector<uint8_t> stored = std::move(*body);
    if (!ZstdDecompress(stored, static_cast<size_t>(raw_len), body)) {
      source.Fail();
      return FramedError(error, magic, "body decompression failed");
    }
  }
  if (format_version != nullptr) *format_version = version;
  return true;
}

bool AtomicWriteFile(const std::string& path, const char magic[4],
                     std::span<const uint8_t> body, BodyEncoding encoding,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    FileSink file(tmp);
    // An over-limit body fails *here*, leaving the previous good file in
    // place — never publish a frame the reader would reject.
    if (!WriteFramedBody(file, magic, body, encoding) ||
        !file.SyncAndClose()) {
      std::remove(tmp.c_str());
      if (error != nullptr) *error = "cannot write " + tmp;
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename " + tmp + " to " + path;
    return false;
  }
  // fsync the containing directory so the new entry survives a crash.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
  return true;
}

}  // namespace wire
}  // namespace robust_sampling
