// The one little-endian byte codec: the daemon's checkpoint writer and
// accumulator state, the CNB1 header and directory, and the WorldSpec's
// canonical bytes all encode and decode through it.
//
// Everything is little-endian fixed-width; doubles travel as their raw
// IEEE-754 bit pattern so a restored accumulator resumes from *exactly*
// the partial sums the crashed process had — bit-for-bit, which the
// chaos harness's byte-identical-report invariant depends on.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace cn::util {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// The bytes of @p s with no length prefix.
  void bytes(std::string_view s) { out_->insert(out_->end(), s.begin(), s.end()); }
  /// A u64 length, then the bytes.
  void str(const std::string& s) {
    u64(s.size());
    bytes(s);
  }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked reader: every accessor returns false (leaving @p out
/// untouched) instead of reading past the end, so truncated checkpoints
/// surface as typed decode failures, never as OOB reads.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }

  bool u8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = data_[pos_++];
    return true;
  }
  bool u32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return true;
  }
  bool u64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return true;
  }
  bool i64(std::int64_t& out) {
    std::uint64_t raw = 0;
    if (!u64(raw)) return false;
    out = static_cast<std::int64_t>(raw);
    return true;
  }
  bool f64(double& out) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&out, &bits, sizeof out);
    return true;
  }
  bool str(std::string& out) {
    std::uint64_t n = 0;
    if (!u64(n) || remaining() < n) return false;
    out.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// FNV-1a's offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ULL;

/// FNV-1a over a byte range: the checkpoint checksums and the WorldSpec
/// fingerprint. Not cryptographic; it only needs to catch torn/garbled
/// writes and tell specs apart. @p h is the hash of the bytes before
/// this range, so hashing a range in pieces, each seeded with the
/// previous piece's result, equals hashing it whole: the event-log
/// segment's checksum runs on across appends this way.
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                           std::uint64_t h = kFnv1aBasis) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace cn::util
