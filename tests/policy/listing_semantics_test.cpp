// Tests that LruPolicy::evict and ::prefetch implement the exact region/
// link/dirty semantics of the paper's Listings 1 and 2.
#include <gtest/gtest.h>

#include <cstring>

#include "dm/data_manager.hpp"
#include "policy/lru_policy.hpp"
#include "util/align.hpp"

namespace ca::policy {
namespace {

class ListingFixture : public ::testing::Test {
 protected:
  ListingFixture()
      : platform_(sim::Platform::cascade_lake_scaled(256 * util::KiB,
                                                     2 * util::MiB)),
        dm_(platform_, clock_, counters_),
        policy_(dm_, {.local_alloc = true}) {}

  dm::Object* fast_object(std::size_t size = 64 * util::KiB) {
    dm::Object* obj = dm_.create_object(size);
    policy_.place_new(*obj);
    EXPECT_TRUE(dm_.in(*dm_.getprimary(*obj), sim::kFast));
    return obj;
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
  LruPolicy policy_;
};

TEST_F(ListingFixture, EvictAllocatesSlowCopiesAndFrees) {
  dm::Object* obj = fast_object();
  dm::Region* fast = dm_.getprimary(*obj);
  std::memset(fast->data(), 0x42, obj->size());
  dm_.markdirty(*fast);

  policy_.evict(*obj);

  dm::Region* primary = dm_.getprimary(*obj);
  ASSERT_NE(primary, nullptr);
  EXPECT_TRUE(dm_.in(*primary, sim::kSlow));
  EXPECT_EQ(obj->region_count(), 1u);  // fast region freed
  EXPECT_EQ(std::to_integer<unsigned>(primary->data()[0]), 0x42u);
  EXPECT_EQ(dm_.device_stats(sim::kFast).alloc.free_bytes,
            dm_.capacity(sim::kFast));
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, EvictOfSlowObjectIsNoop) {
  dm::Object* obj = fast_object();
  policy_.evict(*obj);
  const auto stats_before = policy_.op_stats();
  policy_.evict(*obj);  // already slow
  EXPECT_EQ(policy_.op_stats().evictions, stats_before.evictions);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, EvictWithCleanLinkedSiblingElidesCopy) {
  dm::Object* obj = fast_object();
  // Evict (creates slow copy), then prefetch back (links fast+slow, clean).
  policy_.evict(*obj);
  ASSERT_TRUE(policy_.prefetch(*obj, true));
  ASSERT_EQ(obj->region_count(), 2u);
  ASSERT_FALSE(dm_.isdirty(*dm_.getprimary(*obj)));

  const auto slow_written_before = counters_.device(sim::kSlow).bytes_written;
  const auto elided_before = policy_.op_stats().elided_writebacks;
  policy_.evict(*obj);
  // Clean primary + existing sibling: no NVRAM write happened at all.
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written, slow_written_before);
  EXPECT_EQ(policy_.op_stats().elided_writebacks, elided_before + 1);
  EXPECT_EQ(obj->region_count(), 1u);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, EvictWithDirtyPrimaryWritesBack) {
  dm::Object* obj = fast_object();
  policy_.evict(*obj);
  ASSERT_TRUE(policy_.prefetch(*obj, true));
  dm::Region* fast = dm_.getprimary(*obj);
  std::memset(fast->data(), 0x77, obj->size());
  dm_.markdirty(*fast);

  const auto slow_written_before = counters_.device(sim::kSlow).bytes_written;
  policy_.evict(*obj);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written,
            slow_written_before + obj->size());
  // The writeback propagated the new bytes.
  EXPECT_EQ(std::to_integer<unsigned>(dm_.getprimary(*obj)->data()[0]), 0x77u);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, PrefetchLinksAndSetsPrimary) {
  dm::Object* obj = fast_object();
  dm::Region* orig_fast = dm_.getprimary(*obj);
  std::memset(orig_fast->data(), 0x99, obj->size());
  dm_.markdirty(*orig_fast);
  policy_.evict(*obj);
  dm::Region* slow = dm_.getprimary(*obj);

  ASSERT_TRUE(policy_.prefetch(*obj, false));
  dm::Region* fast = dm_.getprimary(*obj);
  EXPECT_TRUE(dm_.in(*fast, sim::kFast));
  EXPECT_EQ(dm_.getlinked(*fast, sim::kSlow), slow);  // siblings
  EXPECT_EQ(obj->region_count(), 2u);
  EXPECT_EQ(std::to_integer<unsigned>(fast->data()[0]), 0x99u);
  EXPECT_FALSE(dm_.isdirty(*fast));
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, PrefetchOfFastObjectIsNoop) {
  dm::Object* obj = fast_object();
  const auto before = counters_.device(sim::kFast).bytes_written;
  EXPECT_TRUE(policy_.prefetch(*obj, true));
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written, before);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, UnforcedPrefetchFailsUnderPressure) {
  std::vector<dm::Object*> fill;
  for (int i = 0; i < 4; ++i) fill.push_back(fast_object());
  dm::Object* obj = dm_.create_object(64 * util::KiB);
  dm::Region* slow = dm_.allocate(sim::kSlow, obj->size());
  dm_.setprimary(*obj, *slow);

  EXPECT_FALSE(policy_.prefetch(*obj, /*force=*/false));
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*obj), sim::kSlow));
  // Nothing was displaced.
  for (auto* o : fill) EXPECT_TRUE(dm_.in(*dm_.getprimary(*o), sim::kFast));

  EXPECT_TRUE(policy_.prefetch(*obj, /*force=*/true));
  EXPECT_TRUE(dm_.in(*dm_.getprimary(*obj), sim::kFast));
  for (auto* o : fill) dm_.destroy_object(o);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, ForcedPrefetchEvictsColdestFirst) {
  std::vector<dm::Object*> fill;
  for (int i = 0; i < 4; ++i) fill.push_back(fast_object());
  // Touch all but fill[2], making it the LRU victim.
  policy_.will_read(*fill[0]);
  policy_.will_read(*fill[1]);
  policy_.will_read(*fill[3]);

  dm::Object* obj = dm_.create_object(64 * util::KiB);
  dm::Region* slow = dm_.allocate(sim::kSlow, obj->size());
  dm_.setprimary(*obj, *slow);
  ASSERT_TRUE(policy_.prefetch(*obj, true));

  EXPECT_TRUE(dm_.in(*dm_.getprimary(*fill[2]), sim::kSlow));
  for (int i : {0, 1, 3}) {
    EXPECT_TRUE(dm_.in(*dm_.getprimary(*fill[i]), sim::kFast)) << i;
  }
  for (auto* o : fill) dm_.destroy_object(o);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, FastPrimaryInvariantHolds) {
  // Paper invariant: if an object has a region in fast memory, that region
  // is the primary.
  dm::Object* obj = fast_object();
  policy_.evict(*obj);
  policy_.prefetch(*obj, true);
  dm::Region* fast_region = obj->region_on(sim::kFast);
  ASSERT_NE(fast_region, nullptr);
  EXPECT_EQ(dm_.getprimary(*obj), fast_region);
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, EvictionRoundTripPreservesData) {
  dm::Object* obj = fast_object();
  dm::Region* r = dm_.getprimary(*obj);
  for (std::size_t i = 0; i < obj->size(); ++i) {
    r->data()[i] = static_cast<std::byte>(i % 251);
  }
  dm_.markdirty(*r);
  for (int round = 0; round < 3; ++round) {
    policy_.evict(*obj);
    ASSERT_TRUE(policy_.prefetch(*obj, true));
  }
  r = dm_.getprimary(*obj);
  for (std::size_t i = 0; i < obj->size(); ++i) {
    ASSERT_EQ(std::to_integer<unsigned>(r->data()[i]), i % 251);
  }
  dm_.destroy_object(obj);
}

TEST_F(ListingFixture, PrefetchSynchronizesTheOldPrimaryDirtyBit) {
  // Regression: prefetch used to copy into the new fast region *before*
  // linking it, so copyto never saw the regions as siblings and the old
  // slow primary kept a stale dirty bit.  A later write to the new primary
  // then produced two "dirty" copies of one object.
  dm::Object* obj = fast_object();
  dm::Region* fast0 = dm_.getprimary(*obj);
  dm_.markdirty(*fast0);
  policy_.evict(*obj);
  dm::Region* slow = dm_.getprimary(*obj);
  dm_.markdirty(*slow);

  ASSERT_TRUE(policy_.prefetch(*obj, true));
  dm::Region* fast = dm_.getprimary(*obj);
  ASSERT_NE(fast, slow);
  // Both siblings hold identical bytes and both are clean.
  EXPECT_FALSE(dm_.isdirty(*fast));
  EXPECT_FALSE(dm_.isdirty(*slow));
  dm_.markdirty(*fast);
  // Exactly one dirty region per object: the primary.
  EXPECT_FALSE(dm_.isdirty(*slow));
  dm_.destroy_object(obj);
}

}  // namespace
}  // namespace ca::policy
