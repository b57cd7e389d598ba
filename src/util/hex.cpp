#include "util/hex.hpp"

#include <array>

namespace cn {

namespace {

constexpr char kDigits[] = "0123456789abcdef";

// Value of each byte as a hex digit, -1 for non-digits.
constexpr std::array<std::int8_t, 256> kNibble = [] {
  std::array<std::int8_t, 256> t{};
  t.fill(-1);
  for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<std::int8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) t[c] = static_cast<std::int8_t>(c - 'a' + 10);
  for (int c = 'A'; c <= 'F'; ++c) t[c] = static_cast<std::int8_t>(c - 'A' + 10);
  return t;
}();

int nibble(char c) { return kNibble[static_cast<unsigned char>(c)]; }

}  // namespace

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

bool hex_decode(std::string_view hex, std::span<std::uint8_t> out) {
  if (hex.size() != 2 * out.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = nibble(hex[2 * i]);
    const int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return false;
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return true;
}

bool is_hex(std::string_view hex) {
  if (hex.empty() || hex.size() % 2 != 0) return false;
  for (char c : hex)
    if (nibble(c) < 0) return false;
  return true;
}

}  // namespace cn
