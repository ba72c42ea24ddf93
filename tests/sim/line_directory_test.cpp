#include "sim/line_directory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "util/rng.hpp"

namespace spcd::sim {
namespace {

TEST(LineMapTest, MatchesReferenceMapUnderRandomChurn) {
  // Drive a random insert/lookup/erase sequence through the flat table and
  // a std::map; every observable result must agree, including across the
  // rehashes and tombstone build-up the churn causes.
  LineMap<std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> reference;
  util::Xoshiro256 rng(99);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.below(4'000);
    switch (rng.below(4)) {
      case 0:
      case 1:  // insert/update
        map[key] = static_cast<std::uint64_t>(i);
        reference[key] = static_cast<std::uint64_t>(i);
        break;
      case 2: {  // lookup
        const std::uint64_t* got = map.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(got == nullptr, it == reference.end()) << "key " << key;
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
      case 3:  // erase
        map.erase(key);
        reference.erase(key);
        break;
    }
    if (i % 1'000 == 0) {
      ASSERT_EQ(map.size(), reference.size());
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  std::map<std::uint64_t, std::uint64_t> contents;
  map.for_each([&](std::uint64_t k, const std::uint64_t& v) {
    contents[k] = v;
  });
  EXPECT_EQ(contents, reference);
}

TEST(LineMapTest, HeldReferenceSurvivesErasesOfOtherKeys) {
  // MemoryHierarchy::access keeps the accessed line's state live while it
  // evicts victims: erasing other keys must tombstone, never move slots.
  LineMap<int> map;
  const std::uint64_t held_key = 17;
  for (std::uint64_t key = 0; key < 512; ++key) {
    map[key] = static_cast<int>(key);
  }
  int& held = map[held_key];
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (key != held_key) map.erase(key);
  }
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(held, 17);
  held = -1;
  EXPECT_EQ(*map.find(held_key), -1);
}

TEST(LineMapTest, ReserveAndPrefetchCreateNoEntries) {
  LineMap<int> map(/*expected=*/10'000);
  for (std::uint64_t key = 0; key < 5'000; ++key) {
    map.prefetch(key);  // cache hint only
  }
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t key = 0; key < 5'000; ++key) map[key] = 1;
  map.reserve(20'000);
  EXPECT_EQ(map.size(), 5'000u);
  EXPECT_EQ(*map.find(4'999), 1);
}

}  // namespace
}  // namespace spcd::sim
