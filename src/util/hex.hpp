// Hex encoding/decoding for byte spans (txids, wallet addresses, markers).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace cn {

/// Lower-case hex encoding of @p bytes (2 chars per byte).
std::string hex_encode(std::span<const std::uint8_t> bytes);

/// Decodes lower- or upper-case @p hex into @p out, which must hold
/// exactly hex.size() / 2 bytes. Returns false, leaving @p out in an
/// unspecified state, on any other length or a non-hex character.
bool hex_decode(std::string_view hex, std::span<std::uint8_t> out);

/// True if @p hex is non-empty, even-length, and all hex digits.
bool is_hex(std::string_view hex);

}  // namespace cn
