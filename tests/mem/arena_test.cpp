#include "mem/arena.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::mem {
namespace {

TEST(Arena, BasicProperties) {
  Arena a(1 * util::MiB);
  EXPECT_EQ(a.size(), 1 * util::MiB);
  EXPECT_NE(a.base(), nullptr);
  EXPECT_TRUE(util::is_aligned(a.base(), 4096));
}

TEST(Arena, PrefaultZeroes) {
  Arena a(64 * util::KiB);
  for (std::size_t i = 0; i < a.size(); i += 4096) {
    EXPECT_EQ(std::to_integer<int>(*a.at(i)), 0);
  }
}

TEST(Arena, AtReturnsOffsets) {
  Arena a(64 * util::KiB);
  EXPECT_EQ(a.at(0), a.base());
  EXPECT_EQ(a.at(100), a.base() + 100);
}

TEST(Arena, AtOutOfRangeThrows) {
  Arena a(4096);
  EXPECT_THROW((void)a.at(4096), InternalError);
  EXPECT_THROW((void)a.at(1 << 20), InternalError);
}

TEST(Arena, Contains) {
  Arena a(4096);
  EXPECT_TRUE(a.contains(a.base()));
  EXPECT_TRUE(a.contains(a.base() + 4095));
  EXPECT_FALSE(a.contains(a.base() + 4096));
  int x = 0;
  EXPECT_FALSE(a.contains(&x));
}

TEST(Arena, WriteReadRoundTrip) {
  Arena a(64 * util::KiB);
  std::memset(a.at(1000), 0xAB, 100);
  for (std::size_t i = 1000; i < 1100; ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(*a.at(i)), 0xABu);
  }
}

TEST(Arena, ZeroSizeThrows) { EXPECT_THROW(Arena a(0), InternalError); }

TEST(Arena, CustomAlignment) {
  Arena a(64 * util::KiB, 1 << 16);
  EXPECT_TRUE(util::is_aligned(a.base(), 1 << 16));
}

TEST(Arena, MoveTransfersOwnership) {
  Arena a(4096);
  std::byte* base = a.base();
  Arena b = std::move(a);
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(b.size(), 4096u);
}

}  // namespace
}  // namespace ca::mem
