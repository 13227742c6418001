// Tests for the N-tier waterfall policy on the three-tier platform
// (HBM-like / DRAM / NVRAM) -- the §III-C "higher order constructs"
// extension.
#include "policy/tiered_policy.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::policy {
namespace {

class TieredFixture : public ::testing::Test {
 protected:
  // Near tier holds two 64 KiB objects, DRAM four, NVRAM plenty.
  TieredFixture()
      : platform_(sim::Platform::three_tier_scaled(
            128 * util::KiB, 256 * util::KiB, 4 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  TieredLruPolicyConfig config() {
    TieredLruPolicyConfig cfg;
    cfg.tiers = {sim::DeviceId{0}, sim::DeviceId{1}, sim::DeviceId{2}};
    cfg.min_migratable = 0;
    return cfg;
  }

  dm::Object* make(TieredLruPolicy& p, std::size_t size = 64 * util::KiB,
                   unsigned char fill = 0) {
    dm::Object* obj = dm_.create_object(size);
    dm::Region& r = p.place_new(*obj);
    std::memset(r.data(), fill, size);
    dm_.markdirty(r);
    return obj;
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
};

TEST_F(TieredFixture, RequiresAtLeastTwoTiers) {
  TieredLruPolicyConfig cfg;
  cfg.tiers = {sim::DeviceId{0}};
  EXPECT_THROW(TieredLruPolicy(dm_, cfg), InternalError);
  cfg.tiers = {sim::DeviceId{0}, sim::DeviceId{0}};
  EXPECT_THROW(TieredLruPolicy(dm_, cfg), InternalError);
}

TEST_F(TieredFixture, NewObjectsBornInTopTier) {
  TieredLruPolicy p(dm_, config());
  dm::Object* obj = make(p);
  EXPECT_EQ(p.tier_of(*obj), 0u);
  EXPECT_EQ(p.resident_objects(0), 1u);
  dm_.destroy_object(obj);
}

TEST_F(TieredFixture, PressureCascadesColdObjectsDownward) {
  TieredLruPolicy p(dm_, config());
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 7; ++i) objs.push_back(make(p));
  // Top tier holds 2, middle 4; the coldest (earliest) spilled to NVRAM.
  EXPECT_EQ(p.tier_of(*objs[6]), 0u);
  EXPECT_EQ(p.tier_of(*objs[5]), 0u);
  EXPECT_EQ(p.tier_of(*objs[0]), 2u);
  EXPECT_GE(p.op_stats().demotions + p.op_stats().promotions, 0u);
  std::size_t total = 0;
  for (std::size_t t = 0; t < 3; ++t) total += p.resident_objects(t);
  EXPECT_EQ(total, objs.size());
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(TieredFixture, UseHintPromotesToTop) {
  TieredLruPolicy p(dm_, config());
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 7; ++i) objs.push_back(make(p));
  ASSERT_EQ(p.tier_of(*objs[0]), 2u);
  p.will_read(*objs[0]);
  EXPECT_EQ(p.tier_of(*objs[0]), 0u);
  EXPECT_GE(p.op_stats().promotions, 1u);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(TieredFixture, DataSurvivesFullCascade) {
  TieredLruPolicy p(dm_, config());
  dm::Object* probe = make(p, 64 * util::KiB, 0xCD);
  // Push it down two tiers with pressure, then promote it back.
  std::vector<dm::Object*> pressure;
  for (int i = 0; i < 6; ++i) pressure.push_back(make(p));
  EXPECT_EQ(p.tier_of(*probe), 2u);
  p.will_use(*probe);
  EXPECT_EQ(p.tier_of(*probe), 0u);
  const dm::Region* r = dm_.getprimary(*probe);
  for (std::size_t i = 0; i < probe->size(); i += 1001) {
    ASSERT_EQ(std::to_integer<unsigned>(r->data()[i]), 0xCDu);
  }
  ASSERT_AUDIT_CLEAN(dm_);
  dm_.destroy_object(probe);
  for (auto* o : pressure) dm_.destroy_object(o);
}

TEST_F(TieredFixture, ArchiveMakesObjectNextVictimWithinItsTier) {
  TieredLruPolicy p(dm_, config());
  dm::Object* a = make(p);
  dm::Object* b = make(p);  // top tier now full; a is colder
  p.archive(*b);            // ...but b is explicitly archived
  dm::Object* c = make(p);  // needs room: b must fall, not a
  EXPECT_EQ(p.tier_of(*b), 1u);
  EXPECT_EQ(p.tier_of(*a), 0u);
  EXPECT_EQ(p.tier_of(*c), 0u);
  for (auto* o : {a, b, c}) dm_.destroy_object(o);
}

TEST_F(TieredFixture, PinnedObjectsAreNotDemoted) {
  TieredLruPolicy p(dm_, config());
  dm::Object* pinned = make(p);
  dm_.pin(*pinned);
  std::vector<dm::Object*> pressure;
  for (int i = 0; i < 4; ++i) pressure.push_back(make(p));
  EXPECT_EQ(p.tier_of(*pinned), 0u);
  dm_.unpin(*pinned);
  dm_.destroy_object(pinned);
  for (auto* o : pressure) dm_.destroy_object(o);
}

TEST_F(TieredFixture, OversizedObjectLandsOnAFittingTier) {
  TieredLruPolicy p(dm_, config());
  dm::Object* big = dm_.create_object(512 * util::KiB);  // > top + middle
  p.place_new(*big);
  EXPECT_EQ(p.tier_of(*big), 2u);
  dm_.destroy_object(big);
}

TEST_F(TieredFixture, SingleRegionInvariant) {
  // The tiered policy keeps exactly one region per object at all times.
  TieredLruPolicy p(dm_, config());
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 7; ++i) objs.push_back(make(p));
  p.will_read(*objs[0]);
  p.archive(*objs[6]);
  for (auto* o : objs) EXPECT_EQ(o->region_count(), 1u);
  for (auto* o : objs) dm_.destroy_object(o);
}

TEST_F(TieredFixture, WorksOnTwoTierPlatformToo) {
  // The generalization degrades gracefully to the paper's 2-tier setup.
  sim::Platform two = sim::Platform::cascade_lake_scaled(128 * util::KiB,
                                                         1 * util::MiB);
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(two, clock, counters);
  TieredLruPolicyConfig cfg;
  cfg.tiers = {sim::kFast, sim::kSlow};
  cfg.min_migratable = 0;
  TieredLruPolicy p(dm, cfg);
  std::vector<dm::Object*> objs;
  for (int i = 0; i < 4; ++i) {
    dm::Object* obj = dm.create_object(64 * util::KiB);
    p.place_new(*obj);
    objs.push_back(obj);
  }
  EXPECT_EQ(p.tier_of(*objs[0]), 1u);
  EXPECT_EQ(p.tier_of(*objs[3]), 0u);
  for (auto* o : objs) dm.destroy_object(o);
}

}  // namespace
}  // namespace ca::policy
