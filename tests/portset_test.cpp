// Tests for the PortSet bitmask used by the round-robin arbiters.

#include <gtest/gtest.h>

#include "src/sw/portset.hpp"

namespace osmosis::sw {
namespace {

TEST(PortSet, SetClearTest) {
  PortSet s(64);
  EXPECT_FALSE(s.any());
  s.set(0);
  s.set(63);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_FALSE(s.test(1));
  EXPECT_EQ(s.count(), 2);
  s.clear(0);
  EXPECT_FALSE(s.test(0));
  EXPECT_EQ(s.count(), 1);
}

TEST(PortSet, SetAllRespectsSize) {
  PortSet s(70);
  s.set_all();
  EXPECT_EQ(s.count(), 70);
  for (int i = 0; i < 70; ++i) EXPECT_TRUE(s.test(i));
}

TEST(PortSet, ClearAll) {
  PortSet s(100);
  s.set_all();
  s.clear_all();
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.count(), 0);
}

TEST(PortSet, NextCircularBasic) {
  PortSet s(8);
  s.set(2);
  s.set(5);
  EXPECT_EQ(s.next_circular(0), 2);
  EXPECT_EQ(s.next_circular(2), 2);  // inclusive start
  EXPECT_EQ(s.next_circular(3), 5);
  EXPECT_EQ(s.next_circular(6), 2);  // wraps
}

TEST(PortSet, NextCircularEmpty) {
  PortSet s(8);
  EXPECT_EQ(s.next_circular(0), -1);
  EXPECT_EQ(s.next_circular(7), -1);
}

TEST(PortSet, NextCircularSingleElement) {
  PortSet s(64);
  s.set(17);
  for (int from = 0; from < 64; ++from) EXPECT_EQ(s.next_circular(from), 17);
}

TEST(PortSet, NextCircularAcrossWords) {
  PortSet s(130);
  s.set(1);
  s.set(65);
  s.set(129);
  EXPECT_EQ(s.next_circular(0), 1);
  EXPECT_EQ(s.next_circular(2), 65);
  EXPECT_EQ(s.next_circular(66), 129);
  EXPECT_EQ(s.next_circular(129), 129);
  // Wrap from past the last set bit... 129 is the last index.
  s.clear(1);
  EXPECT_EQ(s.next_circular(0), 65);
}

TEST(PortSet, NextCircularExhaustiveAgainstReference) {
  // Property test: compare against a naive scan for many random sets.
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next_rand = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(next_rand() % 150);
    PortSet s(n);
    std::vector<bool> ref(static_cast<std::size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      if (next_rand() % 3 == 0) {
        s.set(i);
        ref[static_cast<std::size_t>(i)] = true;
      }
    }
    for (int from = 0; from < n; ++from) {
      int expect = -1;
      for (int k = 0; k < n; ++k) {
        const int idx = (from + k) % n;
        if (ref[static_cast<std::size_t>(idx)]) {
          expect = idx;
          break;
        }
      }
      ASSERT_EQ(s.next_circular(from), expect)
          << "n=" << n << " from=" << from;
    }
  }
}

TEST(PortSet, OutOfRangeDies) {
  PortSet s(8);
  EXPECT_DEATH(s.set(8), "out of range");
  EXPECT_DEATH(s.test(-1), "out of range");
}

}  // namespace
}  // namespace osmosis::sw
