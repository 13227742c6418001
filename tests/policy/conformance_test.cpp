// Policy conformance kit: the behavioural contract every Policy
// implementation must satisfy (see docs/POLICY_GUIDE.md), run against all
// bundled policies.  Downstream users can add their own factory to the
// sweep to validate a custom policy.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "policy/lru_policy.hpp"
#include "policy/static_policy.hpp"
#include "policy/tiered_policy.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace ca::policy {
namespace {

struct PolicyCase {
  const char* name;
  std::function<std::unique_ptr<Policy>(dm::DataManager&)> make;
};

std::vector<PolicyCase> all_policies() {
  return {
      {"LruLM",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.min_migratable = 0});
       }},
      {"LruNone",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.local_alloc = false,
                                 .eager_retire = false,
                                 .min_migratable = 0});
       }},
      {"LruLMP",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.prefetch = true, .min_migratable = 0});
       }},
      {"LruAsync",
       [](dm::DataManager& dm) {
         return std::make_unique<LruPolicy>(
             dm, LruPolicyConfig{.prefetch = true,
                                 .min_migratable = 0,
                                 .async_prefetch = true});
       }},
      {"PinnedSlow",
       [](dm::DataManager& dm) {
         return std::make_unique<PinnedDevicePolicy>(dm, sim::kSlow);
       }},
      {"PinnedFast",
       [](dm::DataManager& dm) {
         return std::make_unique<PinnedDevicePolicy>(dm, sim::kFast);
       }},
      {"Tiered",
       [](dm::DataManager& dm) {
         TieredLruPolicyConfig cfg;
         cfg.tiers = {sim::kFast, sim::kSlow};
         cfg.min_migratable = 0;
         return std::make_unique<TieredLruPolicy>(dm, cfg);
       }},
  };
}

class PolicyConformance : public ::testing::TestWithParam<std::size_t> {
 protected:
  PolicyConformance()
      : platform_(sim::Platform::cascade_lake_scaled(256 * util::KiB,
                                                     2 * util::MiB)),
        dm_(platform_, clock_, counters_),
        policy_(all_policies()[GetParam()].make(dm_)) {}

  dm::Object* make_object(std::size_t size = 64 * util::KiB) {
    dm::Object* obj = dm_.create_object(size);
    try {
      policy_->place_new(*obj);
    } catch (...) {
      // Mirror Runtime::new_object: no placement, no object.
      dm_.destroy_object(obj);
      throw;
    }
    return obj;
  }

  void destroy(dm::Object* obj) {
    policy_->on_destroy(*obj);
    dm_.destroy_object(obj);
  }

  [[nodiscard]] sim::DeviceId device_of(const dm::Object* obj) {
    return dm_.getprimary(*obj)->device();
  }

  /// Place and write up to 8 more 64 KiB objects (appended to `live`): more
  /// than the fast tier holds.  Returns true if the policy displaced any of
  /// them to make room for a later one.
  bool apply_pressure(std::vector<dm::Object*>& live) {
    const std::size_t first = live.size();
    std::vector<sim::DeviceId> placed;
    for (int i = 0; i < 8; ++i) {
      try {
        live.push_back(make_object());
      } catch (const OutOfMemoryError&) {
        break;  // a single-tier policy may fill up
      }
      policy_->will_write(*live.back());
      placed.push_back(device_of(live.back()));
    }
    for (std::size_t i = 0; i < placed.size(); ++i) {
      if (device_of(live[first + i]) != placed[i]) return true;
    }
    return false;
  }

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
  std::unique_ptr<Policy> policy_;
};

TEST_P(PolicyConformance, PlaceNewProducesAPrimary) {
  dm::Object* obj = make_object();
  dm::Region* primary = dm_.getprimary(*obj);
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(primary->parent(), obj);
  EXPECT_GE(primary->size(), obj->size());
  destroy(obj);
}

TEST_P(PolicyConformance, HintsNeverCorruptData) {
  dm::Object* obj = make_object();
  dm::Region* r = dm_.getprimary(*obj);
  std::memset(r->data(), 0xAB, obj->size());
  dm_.markdirty(*r);
  policy_->will_read(*obj);
  policy_->will_write(*obj);
  policy_->will_use(*obj);
  policy_->will_read_partial(*obj, 64);
  policy_->archive(*obj);
  r = dm_.getprimary(*obj);
  ASSERT_NE(r, nullptr);
  dm_.wait_ready(*r);
  for (std::size_t i = 0; i < obj->size(); i += 4097) {
    ASSERT_EQ(std::to_integer<unsigned>(r->data()[i]), 0xABu);
  }
  destroy(obj);
}

TEST_P(PolicyConformance, PinnedPrimariesSurviveAnyHint) {
  dm::Object* obj = make_object();
  dm_.pin(*obj);
  dm::Region* before = dm_.getprimary(*obj);
  policy_->will_read(*obj);
  policy_->will_write(*obj);
  policy_->archive(*obj);
  EXPECT_EQ(dm_.getprimary(*obj), before);
  dm_.unpin(*obj);
  destroy(obj);
}

TEST_P(PolicyConformance, PressureNeverDisplacesPinnedObjects) {
  dm::Object* pinned = make_object();
  dm_.pin(*pinned);
  const dm::Region* before = dm_.getprimary(*pinned);
  // Enough pressure to overflow the fast tier several times.  A policy
  // with no spill tier may legitimately run out -- but must never move
  // the pinned object.
  std::vector<dm::Object*> filler;
  for (int i = 0; i < 8; ++i) {
    try {
      filler.push_back(make_object());
    } catch (const OutOfMemoryError&) {
      break;
    }
  }
  EXPECT_EQ(dm_.getprimary(*pinned), before);
  dm_.unpin(*pinned);
  destroy(pinned);
  for (auto* o : filler) destroy(o);
}

TEST_P(PolicyConformance, RetireSemanticsAreConsistent) {
  dm::Object* obj = make_object();
  const bool released = policy_->retire(*obj);
  if (released) {
    // The runtime destroys it next; the policy must tolerate the destroy.
    destroy(obj);
  } else {
    // Storage must still be intact.
    EXPECT_NE(dm_.getprimary(*obj), nullptr);
    destroy(obj);
  }
}

TEST_P(PolicyConformance, KernelBracketsNest) {
  dm::Object* a = make_object(16 * util::KiB);
  dm::Object* b = make_object(16 * util::KiB);
  dm::Object* args[] = {a, b};
  policy_->begin_kernel(args);
  policy_->will_read(*a);
  policy_->will_write(*b);
  policy_->end_kernel();
  destroy(a);
  destroy(b);
}

TEST_P(PolicyConformance, StagedArgsKeepTheirPrimaryUntilEndKernel) {
  // Two kernel arguments, written (so staged in the write tier) and then
  // protected by the staging bracket -- not by pins.
  dm::Object* a = make_object();
  dm::Object* b = make_object();
  policy_->will_write(*a);
  policy_->will_write(*b);
  const dm::Region* a_at = dm_.getprimary(*a);
  const dm::Region* b_at = dm_.getprimary(*b);
  const sim::DeviceId a_dev = device_of(a);
  const sim::DeviceId b_dev = device_of(b);
  dm::Object* args[] = {a, b};
  std::vector<dm::Object*> filler;

  policy_->begin_kernel(args);
  const bool displaces = apply_pressure(filler);
  EXPECT_EQ(dm_.getprimary(*a), a_at);
  EXPECT_EQ(dm_.getprimary(*b), b_at);
  policy_->end_kernel();

  // The guard is lifted: archived, the former arguments are now the
  // preferred victims, so a policy that displaces under pressure at all
  // displaces one of them next.
  policy_->archive(*a);
  policy_->archive(*b);
  apply_pressure(filler);
  const bool args_moved = device_of(a) != a_dev || device_of(b) != b_dev;
  EXPECT_EQ(args_moved, displaces);

  destroy(a);
  destroy(b);
  for (auto* o : filler) destroy(o);
  ASSERT_AUDIT_CLEAN(dm_);
}

TEST_P(PolicyConformance, SurvivesChurnWithInvariantsIntact) {
  std::vector<dm::Object*> live;
  util::Xoshiro256 rng(17);
  for (int step = 0; step < 200; ++step) {
    if (live.empty() || rng.uniform() < 0.6) {
      try {
        live.push_back(make_object(8 * util::KiB + rng.bounded(56) * 1024));
      } catch (const OutOfMemoryError&) {
        // Single-tier policies may genuinely fill up; that is contractual.
        ASSERT_AUDIT_CLEAN(dm_);
      }
    } else {
      const std::size_t i = rng.bounded(live.size());
      destroy(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (!live.empty() && rng.uniform() < 0.5) {
      dm::Object* obj = live[rng.bounded(live.size())];
      switch (rng.bounded(4)) {
        case 0: policy_->will_read(*obj); break;
        case 1: policy_->will_write(*obj); break;
        case 2: policy_->archive(*obj); break;
        case 3: policy_->will_use(*obj); break;
      }
    }
  }
  ASSERT_AUDIT_CLEAN(dm_);
  for (auto* o : live) destroy(o);
  EXPECT_EQ(dm_.live_objects(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyConformance,
    ::testing::Range<std::size_t>(0, all_policies().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return all_policies()[info.param].name;
    });

}  // namespace
}  // namespace ca::policy
