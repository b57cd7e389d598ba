#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace cn::util {
namespace {

/// A key that carries its own hash, so a test can force collisions.
struct Key {
  std::uint64_t id = 0;
  std::uint64_t hash = 0;
  bool operator==(const Key&) const = default;
};

struct CarriedHash {
  std::size_t operator()(const Key& k) const noexcept { return k.hash; }
};

using CollidingMap = FlatMap<Key, std::uint64_t, CarriedHash>;

// Whatever the odd multiplier, a hash of 0 lands on slot 0 and a hash of
// 2^63 on the middle slot. The smallest table has 16 slots and holds 14
// entries, so a run of more than 8 entries homed on the middle slot
// wraps past the end of the table.
constexpr std::uint64_t kHomeZero = 0;
constexpr std::uint64_t kHomeMiddle = std::uint64_t{1} << 63;

TEST(FlatMap, EmplaceNeverOverwrites) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  const auto [first, inserted] = m.emplace(7, 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*first, 1);
  const auto [again, reinserted] = m.emplace(7, 2);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(*m.find(7), 1);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.empty());
}

TEST(FlatMap, FindIsConstCorrectAndMissesCleanly) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m.find(1), nullptr);  // no table yet
  EXPECT_FALSE(m.contains(1));
  EXPECT_FALSE(m.erase(1));
  m.emplace(1, 10);
  *m.find(1) = 11;
  const FlatMap<std::uint64_t, int>& view = m;
  EXPECT_EQ(*view.find(1), 11);
  EXPECT_EQ(view.find(2), nullptr);
  EXPECT_TRUE(view.contains(1));
}

TEST(FlatMap, EraseKeepsTheRestOfAProbeRunFindable) {
  // Ten keys share the middle home (their run wraps), then four share
  // home 0 and queue behind the wrapped tail. Erasing any one key, in a
  // fresh copy each time, must leave every other key findable with its
  // value: entries shift back across the end of the table, but never to
  // a slot before their own home.
  std::vector<Key> keys;
  for (std::uint64_t i = 0; i < 10; ++i) keys.push_back({i, kHomeMiddle});
  for (std::uint64_t i = 10; i < 14; ++i) keys.push_back({i, kHomeZero});
  CollidingMap full;
  for (const Key& k : keys) ASSERT_TRUE(full.emplace(k, k.id * 100).second);

  for (const Key& gone : keys) {
    CollidingMap m = full;
    ASSERT_TRUE(m.erase(gone));
    EXPECT_FALSE(m.erase(gone));
    EXPECT_EQ(m.size(), keys.size() - 1);
    EXPECT_FALSE(m.contains(gone));
    for (const Key& k : keys) {
      if (k == gone) continue;
      const std::uint64_t* v = m.find(k);
      ASSERT_NE(v, nullptr) << "lost key " << k.id << " after erasing " << gone.id;
      EXPECT_EQ(*v, k.id * 100);
    }
  }

  // Draining the map in insertion order keeps the survivors findable at
  // every step, and a drained map accepts the keys again.
  CollidingMap m = full;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(m.erase(keys[i]));
    for (std::size_t j = i + 1; j < keys.size(); ++j) ASSERT_TRUE(m.contains(keys[j]));
  }
  EXPECT_TRUE(m.empty());
  for (const Key& k : keys) EXPECT_TRUE(m.emplace(k, 1).second);
}

TEST(FlatMap, GrowsThroughManyDoublings) {
  // Keys that differ only in their high bits must still land apart
  // (they hash to themselves here), and every value survives each
  // rehash.
  FlatMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kCount = 50'000;
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    ASSERT_TRUE(m.emplace(i, i).second);
    ASSERT_TRUE(m.emplace(i << 40, ~i).second);
  }
  EXPECT_EQ(m.size(), 2 * kCount);
  for (std::uint64_t i = 1; i <= kCount; ++i) {
    ASSERT_NE(m.find(i), nullptr);
    EXPECT_EQ(*m.find(i), i);
    ASSERT_NE(m.find(i << 40), nullptr);
    EXPECT_EQ(*m.find(i << 40), ~i);
  }
  EXPECT_FALSE(m.contains(0));
  EXPECT_FALSE(m.contains(kCount + 1));
}

TEST(FlatMap, ReserveSizesTheTable) {
  // Growth moves the entries, so a pointer into the map moves; a map
  // reserved for N entries keeps it in place through N emplaces.
  constexpr std::uint64_t kCount = 1000;
  FlatMap<std::uint64_t, std::uint64_t> reserved;
  reserved.reserve(kCount);
  EXPECT_TRUE(reserved.empty());
  const std::uint64_t* first = reserved.emplace(0, 0).first;
  for (std::uint64_t i = 1; i < kCount; ++i) reserved.emplace(i, i);
  EXPECT_EQ(reserved.find(0), first);
  EXPECT_EQ(reserved.size(), kCount);

  FlatMap<std::uint64_t, std::uint64_t> grown;
  const std::uint64_t* moved = grown.emplace(0, 0).first;
  for (std::uint64_t i = 1; i < kCount; ++i) grown.emplace(i, i);
  EXPECT_NE(grown.find(0), moved);
}

TEST(FlatMap, MovedFromMapIsEmptyAndUsable) {
  FlatMap<std::uint64_t, int> a;
  for (std::uint64_t i = 0; i < 100; ++i) a.emplace(i, static_cast<int>(i));
  FlatMap<std::uint64_t, int> b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(*b.find(42), 42);
  EXPECT_TRUE(a.empty());  // the documented moved-from state
  EXPECT_EQ(a.find(42), nullptr);
  EXPECT_TRUE(a.emplace(42, 1).second);
  EXPECT_EQ(a.size(), 1u);
}

/// Replays @p ops seeded random emplace/erase/find operations against
/// std::unordered_map and checks every result, then the full key space
/// every 50 k operations.
template <typename Map, typename MakeKey>
void differential(std::uint64_t seed, std::uint64_t key_space, std::uint64_t ops,
                  MakeKey make_key) {
  Map flat;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(seed);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t id = rng.uniform_below(key_space);
    const auto key = make_key(id);
    const std::uint64_t roll = rng.uniform_below(100);
    if (roll < 45) {
      const std::uint64_t value = rng.next();
      const auto [v, inserted] = flat.emplace(key, value);
      const auto [it, ref_inserted] = reference.emplace(id, value);
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
      ASSERT_EQ(*v, it->second) << "op " << op;
    } else if (roll < 75) {
      ASSERT_EQ(flat.erase(key), reference.erase(id) == 1) << "op " << op;
    } else {
      const auto* v = flat.find(key);
      const auto it = reference.find(id);
      ASSERT_EQ(v != nullptr, it != reference.end()) << "op " << op;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(flat.size(), reference.size()) << "op " << op;
    if (op % 50'000 == 0) {
      for (std::uint64_t k = 0; k < key_space; ++k) {
        ASSERT_EQ(flat.contains(make_key(k)), reference.contains(k)) << "op " << op;
      }
    }
  }
}

TEST(FlatMap, MatchesUnorderedMapOnRandomOperations) {
  // A small key space keeps the map churning through growth, long runs
  // and backward shifts; the colliding variant packs 16 keys per hash.
  differential<FlatMap<std::uint64_t, std::uint64_t>>(
      42, 4096, 700'000, [](std::uint64_t id) { return id; });
  differential<CollidingMap>(7, 512, 300'000, [](std::uint64_t id) {
    return Key{id, (id / 16) * 0x9e3779b97f4a7c15ULL};
  });
}

}  // namespace
}  // namespace cn::util
