#ifndef PS2_COMMON_BYTES_H_
#define PS2_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace ps2 {

// Little-endian binary buffer primitives shared by every on-disk format
// (trace files, WAL records, checkpoints). A ByteWriter appends into an
// in-memory buffer the caller then frames/CRCs/writes as one unit; a
// ByteReader decodes with sticky error state and hard bounds checks, so a
// corrupt length field fails the read instead of driving a huge allocation.
//
// PODs are stored in native byte order; the system targets little-endian
// hosts (the same assumption trace_io has always made).
class ByteWriter {
 public:
  void Bytes(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(T));
  }
  // u32 length prefix + raw bytes.
  void Str(const std::string& s) {
    Pod<uint32_t>(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  void Reserve(size_t n) { buf_.reserve(n); }
  // Overwrites the sizeof(T) bytes at `pos`, which an earlier write already
  // placed (a header placeholder patched once its payload is known).
  template <typename T>
  void PodAt(size_t pos, T v) {
    std::memcpy(&buf_[pos], &v, sizeof(T));
  }

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }

  void Bytes(void* p, size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }
  template <typename T>
  T Pod() {
    T v{};
    Bytes(&v, sizeof(T));
    return v;
  }
  std::string Str() {
    const uint32_t n = Pod<uint32_t>();
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return std::string();
    }
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }
  void Skip(size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return;
    }
    pos_ += n;
  }
  // Declared-count sanity gate: a container of `count` elements, each at
  // least `min_bytes_each` on disk, cannot outsize the remaining input.
  // Returns false (and poisons the reader) when it would — callers check
  // this *before* reserve/resize so flipped length fields fail cleanly.
  bool FitsCount(uint64_t count, size_t min_bytes_each) {
    if (ok_ && count <= remaining() / (min_bytes_each == 0 ? 1
                                                          : min_bytes_each)) {
      return true;
    }
    ok_ = false;
    return false;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes,
// seedable for incremental use: Crc32(b, m, Crc32(a, n)) equals one pass
// over a||b. Frames every WAL record, checkpoint payload and shard wire
// frame so a reader can tell a torn write from good data. Computed
// slice-by-8 (eight bytes per step); the values are those of the plain
// byte-at-a-time table method.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

}  // namespace ps2

#endif  // PS2_COMMON_BYTES_H_
