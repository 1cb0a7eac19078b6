// util::FlatMap, the open-addressed table behind the traffic plane's
// per-source state, checked against std::unordered_map: seeded inserts,
// find-or-inserts (try_emplace), lookups, single-key erases and erase_if
// sweeps, the key kept aside (~0), and runs of keys crafted to share one
// home slot, including runs that wrap past the end of the slot array.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace at::util {
namespace {

template <typename V>
std::vector<std::pair<std::uint64_t, V>> sorted_entries(const FlatMap<V>& map) {
  std::vector<std::pair<std::uint64_t, V>> out;
  map.for_each([&out](std::uint64_t key, const V& value) { out.emplace_back(key, value); });
  std::sort(out.begin(), out.end());
  return out;
}

template <typename V>
std::vector<std::pair<std::uint64_t, V>> sorted_entries(
    const std::unordered_map<std::uint64_t, V>& map) {
  std::vector<std::pair<std::uint64_t, V>> out(map.begin(), map.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// `count` distinct keys whose home slot agrees in the low `bits` bits, so
/// they collide in every table of up to 2^bits slots.
std::vector<std::uint64_t> colliding_keys(std::size_t count, unsigned bits,
                                          std::uint64_t home) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < count; ++k) {
    if ((mix64(k) & mask) == (home & mask)) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMapTest, MatchesUnorderedMapOnSeededOps) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    const auto key = [&rng]() -> std::uint64_t {
      // A small universe so lookups hit, plus the edge keys.
      const double roll = rng.uniform();
      if (roll < 0.02) return FlatMap<std::uint64_t>::kEmptyKey;
      if (roll < 0.04) return 0;
      return static_cast<std::uint64_t>(rng.uniform_int(1, 3000)) * 0x10001ULL;
    };
    for (int op = 0; op < 40000; ++op) {
      const std::uint64_t k = key();
      const double roll = rng.uniform();
      if (roll < 0.5) {
        const std::uint64_t v = rng();
        map[k] += v;
        reference[k] += v;
      } else if (roll < 0.999) {
        const std::uint64_t* got = map.find(k);
        const auto want = reference.find(k);
        ASSERT_EQ(got != nullptr, want != reference.end()) << "key " << k;
        if (got != nullptr) {
          ASSERT_EQ(*got, want->second);
        }
      } else {
        const std::uint64_t residue = rng() % 3;
        const auto pred = [residue](std::uint64_t, std::uint64_t v) { return v % 3 == residue; };
        std::size_t want = 0;
        for (auto it = reference.begin(); it != reference.end();) {
          if (pred(it->first, it->second)) {
            it = reference.erase(it);
            ++want;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(map.erase_if(pred), want);
      }
      ASSERT_EQ(map.size(), reference.size());
    }
    EXPECT_EQ(sorted_entries(map), sorted_entries(reference));
  }
}

TEST(FlatMapTest, TryEmplaceMatchesUnorderedMap) {
  for (const std::uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    for (int op = 0; op < 40000; ++op) {
      // A growing universe: early ops mostly insert, later ones mostly hit.
      const double roll = rng.uniform();
      const std::uint64_t k =
          roll < 0.02 ? FlatMap<std::uint64_t>::kEmptyKey
          : roll < 0.04
              ? 0
              : static_cast<std::uint64_t>(rng.uniform_int(1, 1 + op / 4)) * 0x9E37ULL;
      const auto [value, inserted] = map.try_emplace(k);
      const auto [it, want_inserted] = reference.try_emplace(k);
      ASSERT_EQ(inserted, want_inserted) << "key " << k;
      ASSERT_EQ(*value, it->second) << "key " << k;
      const std::uint64_t v = rng();
      *value += v;
      it->second += v;
      if (rng.bernoulli(0.01)) {
        ASSERT_EQ(map.erase(k), reference.erase(k) == 1);
      }
      ASSERT_EQ(map.size(), reference.size());
    }
    EXPECT_EQ(sorted_entries(map), sorted_entries(reference));
  }
}

TEST(FlatMapTest, EmptyKeyIsKeptAside) {
  constexpr std::uint64_t kAside = ~0ULL;
  FlatMap<std::string> map;
  EXPECT_EQ(map.find(kAside), nullptr);
  map[kAside] = "aside";
  map[7] = "seven";
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(kAside), nullptr);
  EXPECT_EQ(*map.find(kAside), "aside");
  std::vector<std::pair<std::uint64_t, std::string>> want = {{7, "seven"}, {kAside, "aside"}};
  EXPECT_EQ(sorted_entries(map), want);
  EXPECT_EQ(map.erase_if([](std::uint64_t key, const std::string&) { return key == kAside; }),
            1u);
  EXPECT_EQ(map.find(kAside), nullptr);
  EXPECT_EQ(map.size(), 1u);
  // A re-inserted aside key starts value-initialized.
  EXPECT_EQ(map[kAside], "");
}

TEST(FlatMapTest, KeysSharingOneHomeSlot) {
  // 400 keys with one home in every table up to 4,096 slots: one probe
  // run that the table grows under, and erase_if shifts back through.
  const auto keys = colliding_keys(400, 12, 5);
  FlatMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = i;
    reference[keys[i]] = i;
  }
  for (const std::uint64_t k : keys) {
    ASSERT_NE(map.find(k), nullptr);
    EXPECT_EQ(*map.find(k), reference[k]);
  }
  const auto odd = [](std::uint64_t, std::uint64_t v) { return v % 2 == 1; };
  EXPECT_EQ(map.erase_if(odd), keys.size() / 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.find(keys[i]) != nullptr, i % 2 == 0) << "key " << i;
  }
  // Re-insert into the holes the erase left and compare everything.
  for (std::size_t i = 1; i < keys.size(); i += 2) map[keys[i]] = i;
  EXPECT_EQ(sorted_entries(map), sorted_entries(reference));
}

TEST(FlatMapTest, EraseIfVisitsEachEntryOnceAcrossTheWrap) {
  // Ten keys homed on the last of 16 slots: the run wraps to the front,
  // and erasing shifts entries from the front back to the end.
  const auto keys = colliding_keys(10, 4, 15);
  for (const std::uint64_t residue : {0u, 1u, 2u}) {
    FlatMap<std::uint64_t> map;
    for (std::size_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
    std::map<std::uint64_t, int> calls;
    const std::size_t erased = map.erase_if([&](std::uint64_t key, std::uint64_t v) {
      ++calls[key];
      return v % 3 == residue;
    });
    ASSERT_EQ(calls.size(), keys.size());
    for (const auto& [key, n] : calls) EXPECT_EQ(n, 1) << "key " << key;
    std::size_t want_erased = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const bool kept = i % 3 != residue;
      if (!kept) ++want_erased;
      ASSERT_EQ(map.find(keys[i]) != nullptr, kept) << "key " << i;
      if (kept) {
        EXPECT_EQ(*map.find(keys[i]), i);
      }
    }
    EXPECT_EQ(erased, want_erased);
    EXPECT_EQ(map.size(), keys.size() - want_erased);
  }
}

TEST(FlatMapTest, EraseMatchesUnorderedMap) {
  // Single-key erases inside one long probe run (keys sharing a home
  // slot, wrapping past the end) and over a seeded mix, the aside key
  // included.
  Rng rng(9);
  std::vector<std::uint64_t> keys = colliding_keys(40, 6, 63);
  for (int i = 0; i < 400; ++i) keys.push_back(rng.uniform_int(0, 5000));
  keys.push_back(FlatMap<std::uint64_t>::kEmptyKey);
  FlatMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int op = 0; op < 20000; ++op) {
    const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(keys.size()) - 1);
    const std::uint64_t k = keys[static_cast<std::size_t>(pick)];
    if (rng.uniform() < 0.55) {
      map[k] = static_cast<std::uint64_t>(op);
      reference[k] = static_cast<std::uint64_t>(op);
    } else {
      ASSERT_EQ(map.erase(k), reference.erase(k) == 1) << "key " << k;
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  EXPECT_EQ(sorted_entries(map), sorted_entries(reference));
  for (const std::uint64_t k : keys) {
    const auto want = reference.find(k);
    ASSERT_EQ(map.find(k) != nullptr, want != reference.end()) << "key " << k;
  }
}

TEST(FlatMapTest, ValuesMoveThroughGrowthAndErase) {
  FlatMap<std::vector<int>> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map[k * 7919].assign(k % 5 + 1, static_cast<int>(k));
  EXPECT_EQ(map.erase_if([](std::uint64_t key, const std::vector<int>&) { return key % 2 == 0; }),
            500u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const auto* value = map.find(k * 7919);
    ASSERT_EQ(value != nullptr, (k * 7919) % 2 == 1);
    if (value != nullptr) {
      EXPECT_EQ(*value, std::vector<int>(k % 5 + 1, static_cast<int>(k)));
    }
  }
}

TEST(FlatMapTest, PruneToAFewKeepsTheSurvivorsFindable) {
  // A 5,000-entry table pruned to 7 (the shrinking erase_if), then grown
  // and pruned again: lookups and contents stay those of the reference.
  Rng rng(23);
  FlatMap<std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng();
      map[key] = key ^ 0x5a5a;
      reference[key] = key ^ 0x5a5a;
    }
    reference.erase(std::next(reference.begin(), 7), reference.end());
    map.erase_if([&](std::uint64_t key, std::uint64_t) { return reference.count(key) == 0; });
    ASSERT_EQ(map.size(), reference.size());
    for (const auto& [key, value] : reference) {
      ASSERT_NE(map.find(key), nullptr) << "key " << key;
      EXPECT_EQ(*map.find(key), value);
    }
    EXPECT_EQ(sorted_entries(map), (std::vector<std::pair<std::uint64_t, std::uint64_t>>(
                                       reference.begin(), reference.end())));
  }
}

}  // namespace
}  // namespace at::util
