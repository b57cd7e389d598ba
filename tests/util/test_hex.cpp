#include "util/hex.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace cn {
namespace {

TEST(Hex, EncodesEmpty) {
  EXPECT_EQ(hex_encode({}), "");
}

TEST(Hex, EncodesBytes) {
  const std::uint8_t data[] = {0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(hex_encode(std::span<const std::uint8_t>(data, 4)), "000fa5ff");
}

TEST(Hex, DecodesLowerAndUpperCase) {
  std::array<std::uint8_t, 4> lower{}, upper{};
  ASSERT_TRUE(hex_decode("deadbeef", lower));
  ASSERT_TRUE(hex_decode("DEADBEEF", upper));
  EXPECT_EQ(lower, upper);
  EXPECT_EQ(lower[0], 0xde);
  EXPECT_EQ(lower[3], 0xef);
}

TEST(Hex, RoundTrips) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<std::uint8_t>(i));
  std::vector<std::uint8_t> decoded(bytes.size());
  ASSERT_TRUE(hex_decode(hex_encode(bytes), decoded));
  EXPECT_EQ(decoded, bytes);
}

TEST(Hex, RejectsOddLength) {
  std::array<std::uint8_t, 1> one{};
  std::array<std::uint8_t, 2> two{};
  EXPECT_FALSE(hex_decode("abc", one));
  EXPECT_FALSE(hex_decode("abc", two));
}

TEST(Hex, RejectsNonHexCharacters) {
  std::array<std::uint8_t, 1> one{};
  std::array<std::uint8_t, 2> two{};
  EXPECT_FALSE(hex_decode("zz", one));
  EXPECT_FALSE(hex_decode("0g", one));
  EXPECT_FALSE(hex_decode("0x12", two));
}

TEST(Hex, RejectsLengthOtherThanTheOutput) {
  std::array<std::uint8_t, 2> two{};
  EXPECT_FALSE(hex_decode("ab", two));
  EXPECT_FALSE(hex_decode("abcdef", two));
  EXPECT_TRUE(hex_decode("abcd", two));
}

TEST(Hex, DecodesEmptyToEmpty) {
  EXPECT_TRUE(hex_decode("", std::span<std::uint8_t>{}));
}

TEST(Hex, IsHexPredicate) {
  EXPECT_TRUE(is_hex("00ff"));
  EXPECT_FALSE(is_hex(""));
  EXPECT_FALSE(is_hex("0"));
  EXPECT_FALSE(is_hex("0xff"));
}

}  // namespace
}  // namespace cn
