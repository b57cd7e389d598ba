#include "util/sha256.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define CN_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace cn {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept { return std::rotr(x, n); }

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

#if CN_SHA256_X86

// SHA-NI compression: identical output to the scalar path, ~5-10x faster.
// Standard Intel SHA-extensions schedule (two 4-round batches per group).
__attribute__((target("sha,sse4.1")))
void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t blocks) noexcept {
  const __m128i kMask =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);       // CDAB
  s1 = _mm_shuffle_epi32(s1, 0x1B);         // EFGH
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);  // ABEF
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);       // CDGH

  while (blocks > 0) {
    const __m128i abef_save = s0;
    const __m128i cdgh_save = s1;
    __m128i msg, msg0, msg1, msg2, msg3;

    // Rounds 0-3.
    msg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg, kMask);
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);

    // Rounds 4-7.
    msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kMask);
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11.
    msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kMask);
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15.
    msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kMask);
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-19.
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 20-23.
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 24-27.
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 28-31.
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 32-35.
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 36-39.
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 40-43.
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 44-47.
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 48-51.
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55.
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);

    // Rounds 56-59.
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);

    // Rounds 60-63.
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    s0 = _mm_sha256rnds2_epu32(s0, s1, msg);

    s0 = _mm_add_epi32(s0, abef_save);
    s1 = _mm_add_epi32(s1, cdgh_save);
    data += 64;
    --blocks;
  }

  tmp = _mm_shuffle_epi32(s0, 0x1B);        // FEBA
  s1 = _mm_shuffle_epi32(s1, 0xB1);         // DCHG
  s0 = _mm_blend_epi16(tmp, s1, 0xF0);      // DCBA
  s1 = _mm_alignr_epi8(s1, tmp, 8);         // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), s1);
}

bool detect_shani() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return (ebx & (1u << 29)) != 0;  // CPUID.7.0:EBX.SHA[29]
}

const bool kHaveShani = detect_shani();

#endif  // CN_SHA256_X86

}  // namespace

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::compress(const std::uint8_t* block) noexcept {
#if CN_SHA256_X86
  if (kHaveShani) {
    compress_shani(state_.data(), block, 1);
    return;
  }
#endif
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;

  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      compress(buffer_.data());
      buffered_ = 0;
    }
  }

  if (const std::size_t whole = (data.size() - offset) / 64; whole > 0) {
#if CN_SHA256_X86
    if (kHaveShani) {
      compress_shani(state_.data(), data.data() + offset, whole);
      offset += whole * 64;
    }
#endif
    while (data.size() - offset >= 64) {
      compress(data.data() + offset);
      offset += 64;
    }
  }

  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) noexcept {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_bytes_ * 8;

  // Pad in place: 0x80, zeros up to byte 56 of a block, then the
  // big-endian bit length. When fewer than 9 bytes are free, the padding
  // spills into a second block.
  std::uint8_t* const block = buffer_.data();
  block[buffered_] = 0x80;
  if (buffered_ + 1 > 56) {
    std::memset(block + buffered_ + 1, 0, 64 - (buffered_ + 1));
    compress(block);
    std::memset(block, 0, 56);
  } else {
    std::memset(block + buffered_ + 1, 0, 56 - (buffered_ + 1));
  }
  store_be32(block + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(block + 60, static_cast<std::uint32_t>(bit_len));
  compress(block);
  buffered_ = 0;

  Sha256Digest digest{};
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256Digest sha256(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Sha256Digest sha256d(std::span<const std::uint8_t> data) noexcept {
  const Sha256Digest first = sha256(data);
  return sha256(std::span<const std::uint8_t>(first.data(), first.size()));
}

Sha256Digest sha256d(std::string_view data) noexcept {
  const Sha256Digest first = sha256(data);
  return sha256(std::span<const std::uint8_t>(first.data(), first.size()));
}

}  // namespace cn
