#include <gtest/gtest.h>

#include <cstring>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::dm {
namespace {

class DefragFixture : public ::testing::Test {
 protected:
  DefragFixture()
      : platform_(sim::Platform::cascade_lake_scaled(512 * util::KiB,
                                                     1 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  Object* make_object(sim::DeviceId dev, std::size_t size,
                      unsigned char fill) {
    Object* obj = dm_.create_object(size);
    Region* r = dm_.allocate(dev, size);
    EXPECT_NE(r, nullptr);
    std::memset(r->data(), fill, size);
    dm_.setprimary(*obj, *r);
    return obj;
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  DataManager dm_;
};

TEST_F(DefragFixture, CompactsFragmentedHeap) {
  // Create A B C D, free B and D: heap has two holes.
  Object* a = make_object(sim::kFast, 64 * util::KiB, 0xAA);
  Object* b = make_object(sim::kFast, 64 * util::KiB, 0xBB);
  Object* c = make_object(sim::kFast, 64 * util::KiB, 0xCC);
  Object* d = make_object(sim::kFast, 64 * util::KiB, 0xDD);
  dm_.destroy_object(b);
  dm_.destroy_object(d);

  const auto before = dm_.device_stats(sim::kFast).alloc;
  EXPECT_LT(before.largest_free_block, before.free_bytes);

  dm_.defragment(sim::kFast);

  const auto after = dm_.device_stats(sim::kFast).alloc;
  EXPECT_EQ(after.largest_free_block, after.free_bytes);
  EXPECT_DOUBLE_EQ(after.fragmentation(), 0.0);
  ASSERT_AUDIT_CLEAN(dm_);

  // Contents preserved and regions updated.
  Region* ra = dm_.getprimary(*a);
  Region* rc = dm_.getprimary(*c);
  for (std::size_t i = 0; i < 64 * util::KiB; i += 4096) {
    EXPECT_EQ(std::to_integer<unsigned>(ra->data()[i]), 0xAAu);
    EXPECT_EQ(std::to_integer<unsigned>(rc->data()[i]), 0xCCu);
  }
  // C moved down into B's old slot.
  EXPECT_EQ(rc->offset(), 64 * util::KiB);
  dm_.destroy_object(a);
  dm_.destroy_object(c);
}

TEST_F(DefragFixture, EmptyHeapIsNoop) {
  dm_.defragment(sim::kFast);
  EXPECT_DOUBLE_EQ(clock_.now(), 0.0);
  ASSERT_AUDIT_CLEAN(dm_);
}

TEST_F(DefragFixture, AlreadyCompactHeapMovesNothing) {
  Object* a = make_object(sim::kFast, 64 * util::KiB, 0x11);
  const auto offset_before = dm_.getprimary(*a)->offset();
  dm_.defragment(sim::kFast);
  EXPECT_EQ(dm_.getprimary(*a)->offset(), offset_before);
  EXPECT_DOUBLE_EQ(clock_.now(), 0.0);  // nothing moved, nothing charged
  dm_.destroy_object(a);
}

TEST_F(DefragFixture, ChargesTimeWhenDataMoves) {
  Object* a = make_object(sim::kFast, 64 * util::KiB, 0x11);
  Object* b = make_object(sim::kFast, 64 * util::KiB, 0x22);
  dm_.destroy_object(a);
  dm_.defragment(sim::kFast);
  EXPECT_GT(clock_.spent(sim::TimeCategory::kOther), 0.0);
  EXPECT_EQ(dm_.getprimary(*b)->offset(), 0u);
  dm_.destroy_object(b);
}

TEST_F(DefragFixture, PinnedRegionBlocksDefrag) {
  Object* a = make_object(sim::kFast, 64 * util::KiB, 0x11);
  dm_.pin(*a);
  EXPECT_THROW(dm_.defragment(sim::kFast), UsageError);
  dm_.unpin(*a);
  dm_.defragment(sim::kFast);
  dm_.destroy_object(a);
}

TEST_F(DefragFixture, EnablesLargeAllocationAfterFragmentation) {
  // Fragment the heap so a half-heap allocation fails, then defragment.
  std::vector<Object*> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(make_object(sim::kFast, 64 * util::KiB,
                               static_cast<unsigned char>(i)));
  }
  for (int i = 0; i < 8; i += 2) {
    dm_.destroy_object(objs[i]);
  }
  EXPECT_EQ(dm_.allocate(sim::kFast, 256 * util::KiB), nullptr);
  dm_.defragment(sim::kFast);
  Region* big = dm_.allocate(sim::kFast, 256 * util::KiB);
  EXPECT_NE(big, nullptr);
  dm_.free(big);
  for (int i = 1; i < 8; i += 2) dm_.destroy_object(objs[i]);
}

TEST_F(DefragFixture, LinkedSiblingSurvivesDefrag) {
  Object* obj = dm_.create_object(64 * util::KiB);
  Region* slow = dm_.allocate(sim::kSlow, 64 * util::KiB);
  dm_.setprimary(*obj, *slow);
  Object* filler = make_object(sim::kFast, 64 * util::KiB, 0x33);
  Region* fast = dm_.allocate(sim::kFast, 64 * util::KiB);
  std::memset(fast->data(), 0x77, 64 * util::KiB);
  dm_.link(*slow, *fast);
  dm_.setprimary(*obj, *fast);
  dm_.destroy_object(filler);  // hole before obj's fast region

  dm_.defragment(sim::kFast);
  Region* moved = dm_.getprimary(*obj);
  EXPECT_EQ(moved->offset(), 0u);
  EXPECT_EQ(dm_.getlinked(*moved, sim::kSlow), slow);
  EXPECT_EQ(std::to_integer<unsigned>(moved->data()[0]), 0x77u);
  dm_.destroy_object(obj);
}

}  // namespace
}  // namespace ca::dm
