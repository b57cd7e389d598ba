#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
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
  EXPECT_EQ(first->first, 7u);
  EXPECT_EQ(first->second, 1);
  const auto [again, reinserted] = m.emplace(7, 2);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(m.find(7)->second, 1);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.empty());
}

TEST(FlatMap, FindIsConstCorrectAndMissesCleanly) {
  // find() is const and hands out read-only entries; a miss, with or
  // without a table, is end().
  FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m.find(1), m.end());  // no table yet
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_FALSE(m.contains(1));
  EXPECT_FALSE(m.erase(1));
  m.emplace(1, 10);
  const FlatMap<std::uint64_t, int>& view = m;
  static_assert(std::is_same_v<decltype(view.find(1)),
                               const std::pair<std::uint64_t, int>*>);
  ASSERT_NE(view.find(1), view.end());
  EXPECT_EQ(view.find(1)->second, 10);
  EXPECT_EQ(view.find(2), view.end());
  EXPECT_TRUE(view.contains(1));
  ASSERT_TRUE(m.erase(1));
  EXPECT_EQ(m.find(1), m.end());
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
      const auto it = m.find(k);
      ASSERT_NE(it, m.end()) << "lost key " << k.id << " after erasing " << gone.id;
      EXPECT_EQ(it->second, k.id * 100);
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
    ASSERT_NE(m.find(i), m.end());
    EXPECT_EQ(m.find(i)->second, i);
    ASSERT_NE(m.find(i << 40), m.end());
    EXPECT_EQ(m.find(i << 40)->second, ~i);
  }
  EXPECT_FALSE(m.contains(0));
  EXPECT_FALSE(m.contains(kCount + 1));
}

TEST(FlatMap, ReserveSizesTheTable) {
  // Growth moves the entries, so an iterator into the map moves; a map
  // reserved for N entries keeps it in place through N emplaces.
  constexpr std::uint64_t kCount = 1000;
  FlatMap<std::uint64_t, std::uint64_t> reserved;
  reserved.reserve(kCount);
  EXPECT_TRUE(reserved.empty());
  const auto first = reserved.emplace(0, 0).first;
  for (std::uint64_t i = 1; i < kCount; ++i) reserved.emplace(i, i);
  EXPECT_EQ(reserved.find(0), first);
  EXPECT_EQ(reserved.size(), kCount);

  FlatMap<std::uint64_t, std::uint64_t> grown;
  const auto moved = grown.emplace(0, 0).first;
  for (std::uint64_t i = 1; i < kCount; ++i) grown.emplace(i, i);
  EXPECT_NE(grown.find(0), moved);
}

TEST(FlatMap, MovedFromMapIsEmptyAndUsable) {
  FlatMap<std::uint64_t, int> a;
  for (std::uint64_t i = 0; i < 100; ++i) a.emplace(i, static_cast<int>(i));
  FlatMap<std::uint64_t, int> b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.find(42)->second, 42);
  EXPECT_TRUE(a.empty());  // the documented moved-from state
  EXPECT_EQ(a.find(42), a.end());
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
      const auto [entry, inserted] = flat.emplace(key, value);
      const auto [it, ref_inserted] = reference.emplace(id, value);
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
      ASSERT_EQ(entry->second, it->second) << "op " << op;
    } else if (roll < 75) {
      ASSERT_EQ(flat.erase(key), reference.erase(id) == 1) << "op " << op;
    } else {
      const auto entry = flat.find(key);
      const auto it = reference.find(id);
      ASSERT_EQ(entry != flat.end(), it != reference.end()) << "op " << op;
      if (entry != flat.end()) {
        ASSERT_EQ(entry->second, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(flat.size(), reference.size()) << "op " << op;
    if (op % 50'000 == 0) {
      for (std::uint64_t k = 0; k < key_space; ++k) {
        ASSERT_EQ(flat.contains(make_key(k)), reference.contains(k)) << "op " << op;
      }
      // Iteration visits exactly the live entries, each once.
      std::size_t walked = 0;
      for (const auto& [key_seen, value] : flat) {
        ASSERT_EQ(flat.find(key_seen), flat.begin() + walked) << "op " << op;
        ++walked;
        ASSERT_EQ(value, flat.find(key_seen)->second) << "op " << op;
      }
      ASSERT_EQ(walked, reference.size()) << "op " << op;
    }
  }
}

TEST(FlatMap, IteratesEveryEntryOnceAfterErases) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 1000; ++i) m.emplace(i, i * 3);
  for (std::uint64_t i = 0; i < 1000; i += 3) ASSERT_TRUE(m.erase(i));
  ASSERT_EQ(m.size(), 666u);
  EXPECT_EQ(static_cast<std::size_t>(m.end() - m.begin()), m.size());
  std::vector<int> seen(1000, 0);
  for (const auto& [key, value] : m) {
    ASSERT_LT(key, 1000u);
    EXPECT_NE(key % 3, 0u) << "erased key " << key << " still iterated";
    EXPECT_EQ(value, key * 3);
    ++seen[key];
  }
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(seen[i], i % 3 == 0 ? 0 : 1) << i;
}

TEST(FlatMap, EqualityIgnoresEntryOrder) {
  // Same contents reached by different insert/erase histories, so the
  // dense entries sit in different orders.
  FlatMap<std::uint64_t, int> forward, backward, churned;
  for (std::uint64_t i = 0; i < 100; ++i) forward.emplace(i, static_cast<int>(i));
  for (std::uint64_t i = 100; i-- > 0;) backward.emplace(i, static_cast<int>(i));
  for (std::uint64_t i = 0; i < 200; ++i) churned.emplace(i, static_cast<int>(i));
  for (std::uint64_t i = 100; i < 200; ++i) churned.erase(i);
  ASSERT_NE(forward.begin()->first, backward.begin()->first);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(backward, churned);

  FlatMap<std::uint64_t, int> other_value = forward;
  other_value.erase(50);
  other_value.emplace(50, -1);
  EXPECT_FALSE(forward == other_value);
  FlatMap<std::uint64_t, int> other_key = forward;
  other_key.erase(50);
  other_key.emplace(500, 50);
  EXPECT_FALSE(forward == other_key);
  FlatMap<std::uint64_t, int> smaller = forward;
  smaller.erase(99);
  EXPECT_FALSE(forward == smaller);
  EXPECT_FALSE(smaller == forward);

  // An emptied map (it keeps its table) equals a fresh one.
  FlatMap<std::uint64_t, int> emptied = smaller;
  for (std::uint64_t i = 0; i < 99; ++i) emptied.erase(i);
  EXPECT_EQ(emptied, (FlatMap<std::uint64_t, int>{}));
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
