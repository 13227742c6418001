#include <gtest/gtest.h>

#include <cstring>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::dm {
namespace {

class DmApiFixture : public ::testing::Test {
 protected:
  DmApiFixture()
      : platform_(sim::Platform::cascade_lake_scaled(1 * util::MiB,
                                                     4 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  DataManager dm_;
};

TEST_F(DmApiFixture, CopyToMovesBytesAndCleansDirty) {
  Region* src = dm_.allocate(sim::kFast, 4096);
  Region* dst = dm_.allocate(sim::kSlow, 4096);
  ASSERT_TRUE(src && dst);
  std::memset(src->data(), 0x5A, 4096);
  dm_.markdirty(*src);
  dm_.markdirty(*dst);
  dm_.copyto(*dst, *src);
  EXPECT_EQ(std::memcmp(dst->data(), src->data(), 4096), 0);
  EXPECT_FALSE(dst->dirty());
  // src is an orphan unrelated to dst: its dirty bit is untouched.
  EXPECT_TRUE(src->dirty());
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(DmApiFixture, CopyToBetweenSiblingsSynchronizesDirtyBits) {
  Object* obj = dm_.create_object(4096);
  Region* slow = dm_.allocate(sim::kSlow, 4096);
  dm_.setprimary(*obj, *slow);
  Region* fast = dm_.allocate(sim::kFast, 4096);
  dm_.link(*slow, *fast);
  dm_.markdirty(*fast);
  dm_.copyto(*slow, *fast);
  EXPECT_FALSE(fast->dirty());
  EXPECT_FALSE(slow->dirty());
  dm_.destroy_object(obj);
}

TEST_F(DmApiFixture, CopyToSmallerDestinationRejected) {
  Region* src = dm_.allocate(sim::kFast, 4096);
  Region* dst = dm_.allocate(sim::kSlow, 1024);
  EXPECT_THROW(dm_.copyto(*dst, *src), UsageError);
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(DmApiFixture, CopyChargesTimeAndTraffic) {
  Region* src = dm_.allocate(sim::kFast, 512 * util::KiB);
  Region* dst = dm_.allocate(sim::kSlow, 512 * util::KiB);
  dm_.copyto(*dst, *src);
  EXPECT_GT(clock_.spent(sim::TimeCategory::kMovement), 0.0);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_read, 512 * util::KiB);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written, 512 * util::KiB);
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(DmApiFixture, FreeLinkedSecondaryDetachesIt) {
  Object* obj = dm_.create_object(1024);
  Region* slow = dm_.allocate(sim::kSlow, 1024);
  dm_.setprimary(*obj, *slow);
  Region* fast = dm_.allocate(sim::kFast, 1024);
  dm_.link(*slow, *fast);
  dm_.free(fast);  // implicit unlink
  EXPECT_EQ(obj->region_count(), 1u);
  EXPECT_EQ(dm_.getlinked(*slow, sim::kFast), nullptr);
  dm_.destroy_object(obj);
}

TEST_F(DmApiFixture, FreePrimaryWithSiblingRejected) {
  Object* obj = dm_.create_object(1024);
  Region* slow = dm_.allocate(sim::kSlow, 1024);
  dm_.setprimary(*obj, *slow);
  Region* fast = dm_.allocate(sim::kFast, 1024);
  dm_.link(*slow, *fast);
  EXPECT_THROW(dm_.free(slow), UsageError);
  dm_.destroy_object(obj);
}

TEST_F(DmApiFixture, FreeSolePrimaryAllowed) {
  Object* obj = dm_.create_object(1024);
  Region* slow = dm_.allocate(sim::kSlow, 1024);
  dm_.setprimary(*obj, *slow);
  dm_.free(slow);
  EXPECT_EQ(obj->primary(), nullptr);
  EXPECT_EQ(obj->region_count(), 0u);
  dm_.destroy_object(obj);
}

TEST_F(DmApiFixture, DoubleFreeRejected) {
  Region* r = dm_.allocate(sim::kFast, 64);
  dm_.free(r);
  EXPECT_THROW(dm_.free(r), UsageError);
}

TEST_F(DmApiFixture, DeviceStatsReflectAllocations) {
  const auto before = dm_.device_stats(sim::kFast);
  EXPECT_EQ(before.alloc.allocated_bytes, 0u);
  Region* r = dm_.allocate(sim::kFast, 100 * util::KiB);
  const auto after = dm_.device_stats(sim::kFast);
  EXPECT_EQ(after.alloc.allocated_bytes,
            util::align_up(100 * util::KiB, 64));
  EXPECT_EQ(after.alloc.allocated_blocks, 1u);
  EXPECT_LT(after.alloc.free_bytes, before.alloc.free_bytes);
  dm_.free(r);
}

TEST_F(DmApiFixture, ResidentBytesSumsDevices) {
  Region* a = dm_.allocate(sim::kFast, 64 * util::KiB);
  Region* b = dm_.allocate(sim::kSlow, 128 * util::KiB);
  EXPECT_EQ(dm_.resident_bytes(), 192 * util::KiB);
  dm_.free(a);
  dm_.free(b);
  EXPECT_EQ(dm_.resident_bytes(), 0u);
}

TEST_F(DmApiFixture, DataSurvivesMigrationRoundTrip) {
  // fast -> slow -> fast round trip preserves every byte.
  Object* obj = dm_.create_object(64 * util::KiB);
  Region* fast = dm_.allocate(sim::kFast, 64 * util::KiB);
  dm_.setprimary(*obj, *fast);
  for (std::size_t i = 0; i < 64 * util::KiB; ++i) {
    fast->data()[i] = static_cast<std::byte>(i * 131 + 17);
  }
  // Evict to slow.
  Region* slow = dm_.allocate(sim::kSlow, 64 * util::KiB);
  dm_.copyto(*slow, *fast);
  dm_.setprimary(*obj, *slow);
  dm_.free(fast);
  // Bring back.
  Region* fast2 = dm_.allocate(sim::kFast, 64 * util::KiB);
  dm_.copyto(*fast2, *slow);
  dm_.link(*slow, *fast2);
  dm_.setprimary(*obj, *fast2);
  for (std::size_t i = 0; i < 64 * util::KiB; ++i) {
    ASSERT_EQ(std::to_integer<unsigned>(fast2->data()[i]),
              static_cast<unsigned char>(i * 131 + 17));
  }
  dm_.destroy_object(obj);
}

TEST_F(DmApiFixture, InvariantsHoldAfterMixedWorkload) {
  std::vector<Object*> objects;
  for (int i = 0; i < 20; ++i) {
    Object* obj = dm_.create_object(8 * util::KiB);
    Region* r = dm_.allocate(i % 2 == 0 ? sim::kFast : sim::kSlow,
                             8 * util::KiB);
    ASSERT_NE(r, nullptr);
    dm_.setprimary(*obj, *r);
    objects.push_back(obj);
  }
  ASSERT_AUDIT_CLEAN(dm_);
  for (std::size_t i = 0; i < objects.size(); i += 2) {
    dm_.destroy_object(objects[i]);
  }
  ASSERT_AUDIT_CLEAN(dm_);
  for (std::size_t i = 1; i < objects.size(); i += 2) {
    dm_.destroy_object(objects[i]);
  }
  ASSERT_AUDIT_CLEAN(dm_);
  EXPECT_EQ(dm_.live_objects(), 0u);
  EXPECT_EQ(dm_.live_regions(), 0u);
}

TEST_F(DmApiFixture, DestroyUnknownObjectRejected) {
  Object* obj = dm_.create_object(64);
  dm_.destroy_object(obj);
  EXPECT_THROW(dm_.destroy_object(obj), UsageError);
}

}  // namespace
}  // namespace ca::dm
