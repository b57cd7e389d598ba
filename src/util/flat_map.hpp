// Open-addressing hash map for the hot txid indexes and the observer's
// first-seen log (DESIGN.md §7.3).
//
// util::FlatMap keeps its entries, std::pair<K, V>, densely in one
// vector and finds them through a power-of-two array of 8-byte buckets,
// each holding a 32-bit hash tag and the entry's position. Collisions
// are resolved by linear probing over the buckets, so a lookup reads
// adjacent buckets and compares a key only where the tag matches, and an
// insert or erase allocates nothing unless a vector grows. At most 7/8
// of the buckets are filled. Erase shifts the rest of the probe run back
// instead of leaving a tombstone, so a map under steady insert/erase
// churn (a mempool) never fills up with dead buckets, and moves the last
// entry into the freed position.
//
// The tag is the top 32 bits of the key's hash times a 64-bit odd
// constant, so keys whose hashes differ only in high bits still spread,
// and the home bucket is the top bits of the tag, so growing the table
// or shifting a run never rehashes a key. Because the keys live outside
// the bucket array, a doubling adds 8 bytes a bucket rather than a whole
// entry: memory follows size() instead of jumping by the table's size
// when a count crosses a power of two.
//
// Entries are read-only once stored: find() and emplace() return const
// iterators (pointers into the entry vector), and begin()/end() walk the
// entries densely in an order that depends on the history of inserts and
// erases. Callers that write the entries out sort them first; == compares
// contents in any order. K and V must be nothrow-movable; Hash must not
// throw.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cn::util {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  FlatMap() = default;
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  /// A moved-from map is empty and usable.
  FlatMap(FlatMap&& o) noexcept
      : entries_(std::exchange(o.entries_, {})),
        buckets_(std::exchange(o.buckets_, {})) {}
  FlatMap& operator=(FlatMap&& o) noexcept {
    entries_ = std::exchange(o.entries_, {});
    buckets_ = std::exchange(o.buckets_, {});
    return *this;
  }

  using value_type = std::pair<K, V>;
  using const_iterator = const value_type*;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  const_iterator begin() const noexcept { return entries_.data(); }
  const_iterator end() const noexcept { return entries_.data() + entries_.size(); }

  /// The entry stored under @p key, or end(). The iterator stays valid
  /// until the next erase(), or the next emplace() beyond what reserve()
  /// sized the map for.
  const_iterator find(const K& key) const noexcept {
    const std::size_t i = locate(key);
    return i == kAbsent ? end() : begin() + (buckets_[i].entry - 1);
  }

  bool contains(const K& key) const noexcept { return locate(key) != kAbsent; }

  /// Stores @p value under @p key unless the key is present; an existing
  /// value is never overwritten. Returns the stored entry and whether
  /// this call inserted it.
  std::pair<const_iterator, bool> emplace(const K& key, V value) {
    const std::uint32_t tag = tag_of(key);
    if (!buckets_.empty()) {
      std::size_t i = home(tag);
      for (; buckets_[i].entry != 0; i = next(i)) {
        const Bucket& b = buckets_[i];
        if (matches(b, tag, key)) return {begin() + (b.entry - 1), false};
      }
      if (fits(size() + 1)) return {append(i, tag, key, std::move(value)), true};
    }
    grow_to(size() + 1);
    return {append(empty_bucket_for(tag), tag, key, std::move(value)), true};
  }

  /// Removes @p key; false if it was absent.
  bool erase(const K& key) noexcept {
    std::size_t hole = locate(key);
    if (hole == kAbsent) return false;
    const std::uint32_t gone = buckets_[hole].entry;
    // Backward shift: pull each later bucket of the probe run into the
    // hole, unless that would put it before its home bucket.
    for (std::size_t j = next(hole); buckets_[j].entry != 0; j = next(j)) {
      const std::size_t h = home(buckets_[j].tag);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole] = Bucket{};
    // Keep the entries dense: the last one fills the freed position.
    const auto last = static_cast<std::uint32_t>(entries_.size());
    if (gone != last) {
      value_type& moved = entries_[gone - 1];
      moved = std::move(entries_.back());
      std::size_t i = home(tag_of(moved.first));
      while (buckets_[i].entry != last) i = next(i);
      buckets_[i].entry = gone;
    }
    entries_.pop_back();
    return true;
  }

  /// Sizes the map for @p count entries: no emplace() grows it until
  /// size() exceeds @p count.
  void reserve(std::size_t count) {
    if (!fits(count)) grow_to(count);
    entries_.reserve(count);
  }

  /// Same keys with equal values, whatever the order of the entries.
  friend bool operator==(const FlatMap& a, const FlatMap& b) {
    if (a.size() != b.size()) return false;
    for (const value_type& e : a) {
      const const_iterator it = b.find(e.first);
      if (it == b.end() || !(it->second == e.second)) return false;
    }
    return true;
  }

 private:
  struct Bucket {
    std::uint32_t tag = 0;
    std::uint32_t entry = 0;  ///< position in entries_ plus one; 0 when empty
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::size_t kMinBuckets = 16;
  /// Keeps a position in 32 bits and the table within 2^32 buckets, the
  /// most a 32-bit tag can address.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 31;
  static constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;  // 2^64 / phi

  static std::uint32_t tag_of(const K& key) noexcept {
    const std::uint64_t h = static_cast<std::uint64_t>(Hash{}(key)) * kMix;
    return static_cast<std::uint32_t>(h >> 32);
  }

  std::size_t mask() const noexcept { return buckets_.size() - 1; }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask(); }
  std::size_t home(std::uint32_t tag) const noexcept {
    return tag >> (32 - std::countr_zero(buckets_.size()));
  }

  /// True when @p count entries keep the load at or under 7/8.
  bool fits(std::size_t count) const noexcept {
    return count * 8 <= buckets_.size() * 7;
  }

  bool matches(const Bucket& b, std::uint32_t tag, const K& key) const noexcept {
    return b.tag == tag && entries_[b.entry - 1].first == key;
  }

  std::size_t locate(const K& key) const noexcept {
    if (buckets_.empty()) return kAbsent;
    const std::uint32_t tag = tag_of(key);
    for (std::size_t i = home(tag); buckets_[i].entry != 0; i = next(i)) {
      if (matches(buckets_[i], tag, key)) return i;
    }
    return kAbsent;
  }

  /// The first empty bucket of @p tag's probe run.
  std::size_t empty_bucket_for(std::uint32_t tag) const noexcept {
    std::size_t i = home(tag);
    while (buckets_[i].entry != 0) i = next(i);
    return i;
  }

  const_iterator append(std::size_t bucket, std::uint32_t tag, const K& key,
                        V&& value) {
    entries_.emplace_back(key, std::move(value));
    buckets_[bucket] = Bucket{tag, static_cast<std::uint32_t>(entries_.size())};
    return end() - 1;
  }

  /// Doubles the bucket array until @p count entries fit, then re-places
  /// every bucket from its tag; the entries stay where they are.
  void grow_to(std::size_t count) {
    if (count > kMaxEntries) throw std::length_error("util::FlatMap is full");
    std::size_t n = buckets_.empty() ? kMinBuckets : buckets_.size();
    while (count * 8 > n * 7) n *= 2;
    const std::vector<Bucket> old = std::exchange(buckets_, std::vector<Bucket>(n));
    for (const Bucket& b : old) {
      if (b.entry != 0) buckets_[empty_bucket_for(b.tag)] = b;
    }
  }

  std::vector<value_type> entries_;
  std::vector<Bucket> buckets_;
};

}  // namespace cn::util
