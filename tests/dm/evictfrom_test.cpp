// Tests for DataManager::evictfrom -- the contiguous-window reclamation
// primitive behind the paper's Listing 2 forced prefetch.
#include <gtest/gtest.h>

#include "dm/data_manager.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::dm {
namespace {

class EvictFromFixture : public ::testing::Test {
 protected:
  EvictFromFixture()
      : platform_(sim::Platform::cascade_lake_scaled(256 * util::KiB,
                                                     1 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  /// Simple evictor: move the region's object to slow and free the fast
  /// copy (a minimal Listing-1).
  bool relocate_to_slow(Region& region) {
    Object* obj = dm_.parent(region);
    if (obj == nullptr || obj->pinned()) return false;
    Region* slow = dm_.allocate(sim::kSlow, obj->size());
    if (slow == nullptr) return false;
    dm_.copyto(*slow, region);
    dm_.setprimary(*obj, *slow);
    dm_.free(&region);
    return true;
  }

  Object* make_fast_object(std::size_t size) {
    Object* obj = dm_.create_object(size);
    Region* r = dm_.allocate(sim::kFast, size);
    EXPECT_NE(r, nullptr);
    dm_.setprimary(*obj, *r);
    return obj;
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  DataManager dm_;
};

TEST_F(EvictFromFixture, FreeWindowNeedsNoEvictions) {
  int calls = 0;
  EXPECT_TRUE(dm_.evictfrom(sim::kFast, 0, 64 * util::KiB, [&](Region&) {
    ++calls;
    return true;
  }));
  EXPECT_EQ(calls, 0);
}

TEST_F(EvictFromFixture, EvictsExactlyTheBlockingRegions) {
  // Fill fast memory with 4 x 64 KiB objects.
  std::vector<Object*> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(make_fast_object(64 * util::KiB));
  ASSERT_EQ(dm_.device_stats(sim::kFast).alloc.free_bytes, 0u);

  // Reclaiming 128 KiB from offset 0 must displace the first two objects
  // and leave the last two untouched.
  int evicted = 0;
  EXPECT_TRUE(dm_.evictfrom(sim::kFast, 0, 128 * util::KiB, [&](Region& r) {
    ++evicted;
    return relocate_to_slow(r);
  }));
  EXPECT_EQ(evicted, 2);
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*objs[0]), sim::kSlow));
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*objs[1]), sim::kSlow));
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*objs[2]), sim::kFast));
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*objs[3]), sim::kFast));
  // The window can now be allocated.
  Region* r = dm_.allocate(sim::kFast, 128 * util::KiB);
  EXPECT_NE(r, nullptr);
  dm_.free(r);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(EvictFromFixture, SkipsRefusedBlocksAndFindsWindowElsewhere) {
  auto* pinned_obj = make_fast_object(64 * util::KiB);
  auto* movable1 = make_fast_object(64 * util::KiB);
  auto* movable2 = make_fast_object(64 * util::KiB);
  dm_.pin(*pinned_obj);

  int refusals = 0;
  EXPECT_TRUE(dm_.evictfrom(sim::kFast, 0, 128 * util::KiB, [&](Region& r) {
    if (dm_.parent(r)->pinned()) {
      ++refusals;
      return false;
    }
    return relocate_to_slow(r);
  }));
  EXPECT_GE(refusals, 1);
  // The pinned object stayed in fast memory.
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*pinned_obj), sim::kFast));
  Region* r = dm_.allocate(sim::kFast, 128 * util::KiB);
  EXPECT_NE(r, nullptr);
  dm_.free(r);
  dm_.unpin(*pinned_obj);
  for (auto* o : {pinned_obj, movable1, movable2}) dm_.destroy_object(o);
}

TEST_F(EvictFromFixture, FailsWhenEverythingRefuses) {
  std::vector<Object*> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(make_fast_object(64 * util::KiB));
  EXPECT_FALSE(dm_.evictfrom(sim::kFast, 0, 128 * util::KiB,
                             [&](Region&) { return false; }));
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(EvictFromFixture, RequestLargerThanHeapFails) {
  EXPECT_FALSE(dm_.evictfrom(sim::kFast, 0, 512 * util::KiB,
                             [&](Region&) { return true; }));
}

TEST_F(EvictFromFixture, WrapsAroundFromHighStartOffset) {
  std::vector<Object*> objs;
  for (int i = 0; i < 4; ++i) objs.push_back(make_fast_object(64 * util::KiB));
  // Start near the end of the heap: a 128 KiB window starting there is
  // clamped/wrapped, and evictions still produce a window.
  int evicted = 0;
  EXPECT_TRUE(dm_.evictfrom(sim::kFast, 240 * util::KiB, 128 * util::KiB,
                            [&](Region& r) {
                              ++evicted;
                              return relocate_to_slow(r);
                            }));
  EXPECT_GE(evicted, 2);
  Region* r = dm_.allocate(sim::kFast, 128 * util::KiB);
  EXPECT_NE(r, nullptr);
  dm_.free(r);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(EvictFromFixture, LyingCallbackIsDetected) {
  auto* obj = make_fast_object(64 * util::KiB);
  std::vector<Object*> fillers;
  for (int i = 0; i < 3; ++i) fillers.push_back(make_fast_object(64 * util::KiB));
  EXPECT_THROW(dm_.evictfrom(sim::kFast, 0, 128 * util::KiB,
                             [&](Region&) { return true; /* lies */ }),
               UsageError);
  for (auto* o : fillers) dm_.destroy_object(o);
  dm_.destroy_object(obj);
}

TEST_F(EvictFromFixture, PartiallyFreeWindowOnlyEvictsLiveBlocks) {
  auto* a = make_fast_object(64 * util::KiB);
  auto* b = make_fast_object(64 * util::KiB);
  auto* c = make_fast_object(64 * util::KiB);
  // Free the middle object: window [0, 192K) now contains a free hole.
  dm_.destroy_object(b);
  int evicted = 0;
  EXPECT_TRUE(dm_.evictfrom(sim::kFast, 0, 192 * util::KiB, [&](Region& r) {
    ++evicted;
    return relocate_to_slow(r);
  }));
  EXPECT_EQ(evicted, 2);  // only a and c
  Region* r = dm_.allocate(sim::kFast, 192 * util::KiB);
  EXPECT_NE(r, nullptr);
  dm_.free(r);
  dm_.destroy_object(a);
  dm_.destroy_object(c);
}

}  // namespace
}  // namespace ca::dm
