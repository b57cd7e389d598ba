#include "btc/txid.hpp"

#include <cstring>

#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace cn::btc {

std::string Txid::to_hex() const {
  return hex_encode(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

std::optional<Txid> Txid::from_hex(std::string_view hex) {
  Txid id;
  if (!hex_decode(hex, id.bytes)) return std::nullopt;
  return id;
}

Txid Txid::hash_of(std::string_view preimage) noexcept {
  Txid id;
  const Sha256Digest digest = sha256d(preimage);
  id.bytes = digest;
  return id;
}

std::string Address::to_string() const {
  std::uint8_t raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(value >> (56 - 8 * i));
  return "addr:" + hex_encode(std::span<const std::uint8_t>(raw, 8));
}

Address Address::derive(std::string_view label) noexcept {
  const Sha256Digest digest = sha256(label);
  std::uint64_t v;
  std::memcpy(&v, digest.data(), sizeof(v));
  // Reserve 0 as the null address.
  if (v == 0) v = 1;
  return Address{v};
}

}  // namespace cn::btc
