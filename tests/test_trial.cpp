#include "core/trial.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace choir::core {
namespace {

TEST(Trial, BasicAccessors) {
  Trial t;
  EXPECT_TRUE(t.empty());
  t.push_back(TrialPacket{PacketId{1, 2}, 100});
  t.push_back(TrialPacket{PacketId{1, 3}, 350});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.first_time(), 100);
  EXPECT_EQ(t.last_time(), 350);
  EXPECT_EQ(t.duration(), 250);
}

TEST(Trial, IdsUniqueDetectsDuplicates) {
  Trial t;
  t.push_back(TrialPacket{PacketId{1, 1}, 0});
  t.push_back(TrialPacket{PacketId{1, 2}, 1});
  EXPECT_TRUE(t.ids_unique());
  t.push_back(TrialPacket{PacketId{1, 1}, 2});
  EXPECT_FALSE(t.ids_unique());
}

TEST(Trial, OccurrenceTaggingMakesIdsUnique) {
  Trial t;
  for (int i = 0; i < 5; ++i) {
    t.push_back(TrialPacket{PacketId{9, 9}, i * 10});
  }
  EXPECT_EQ(t.make_occurrences_unique(), 4u);  // first stays untouched
  EXPECT_TRUE(t.ids_unique());
}

TEST(Trial, OccurrenceTaggingIsStable) {
  // Same duplicate sequence tags identically in two trials, so the k-th
  // occurrence in A matches the k-th in B (Section 3's construction).
  auto build = [] {
    Trial t;
    t.push_back(TrialPacket{PacketId{1, 5}, 0});
    t.push_back(TrialPacket{PacketId{1, 5}, 10});
    t.push_back(TrialPacket{PacketId{1, 6}, 20});
    t.push_back(TrialPacket{PacketId{1, 5}, 30});
    t.make_occurrences_unique();
    return t;
  };
  const Trial a = build();
  const Trial b = build();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
  }
}

TEST(Trial, OccurrenceTaggingNoopOnUniqueIds) {
  Trial t;
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.push_back(TrialPacket{PacketId{0, i}, static_cast<Ns>(i)});
  }
  EXPECT_EQ(t.make_occurrences_unique(), 0u);
}

TEST(Trial, OccurrenceTaggingMatchesNodeMapReference) {
  // The literal construction: count each id as first seen, tag the k-th
  // repeat with occurrence k. Random trials with heavy repetition, plus
  // natural ids that equal another packet's derived occurrence id; the
  // last rounds are unique.
  std::uint64_t x = 42;
  for (int round = 0; round < 20; ++round) {
    Trial t;
    const bool unique = round >= 16;
    const std::uint64_t distinct = 1 + round * 37;
    for (int i = 0; i < 3000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t lo =
          unique ? static_cast<std::uint64_t>(i) : (x >> 33) % distinct;
      PacketId id{7, lo};
      if (!unique && i % 97 == 0) {
        id = occurrence_id(PacketId{7, 0}, 1 + (x >> 40) % 3);
      }
      t.push_back(TrialPacket{id, i});
    }
    std::vector<TrialPacket> expected = t.packets();
    std::unordered_map<PacketId, std::uint64_t, PacketIdHash> counts;
    std::size_t expected_rewritten = 0;
    for (auto& p : expected) {
      const std::uint64_t occurrence = counts[p.id]++;
      if (occurrence > 0) {
        p.id = occurrence_id(p.id, occurrence);
        ++expected_rewritten;
      }
    }
    EXPECT_EQ(expected_rewritten == 0, unique);
    EXPECT_EQ(t.ids_unique(), unique);
    EXPECT_EQ(t.make_occurrences_unique(), expected_rewritten);
    ASSERT_EQ(t.size(), expected.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      ASSERT_EQ(t[i].id, expected[i].id) << "round " << round << " pos " << i;
    }
  }
}

TEST(PacketId, EqualityAndHash) {
  const PacketId a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  PacketIdHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but true here
}

TEST(PacketIdHash, SpreadsSequentialIds) {
  PacketIdHash h;
  std::size_t collisions = 0;
  std::vector<std::size_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.push_back(h(PacketId{0, i}) % 4096);
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (seen[i] == seen[i - 1]) ++collisions;
  }
  EXPECT_LT(collisions, 300u);  // far from degenerate
}

}  // namespace
}  // namespace choir::core
