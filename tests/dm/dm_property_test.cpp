// Property-based test of the data manager: a random interleaving of the
// full data-management API (create/destroy objects, allocate/free regions,
// link/unlink, setprimary, copyto, evict-style relocations, defragment)
// must preserve every cross-structure invariant and never corrupt data.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace ca::dm {
namespace {

struct Param {
  std::uint64_t seed;
  std::size_t max_size;
};

class DmProperty : public ::testing::TestWithParam<Param> {};

TEST_P(DmProperty, RandomApiWorkloadKeepsInvariantsAndData) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  sim::Platform platform =
      sim::Platform::cascade_lake_scaled(1 * util::MiB, 4 * util::MiB);
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  DataManager dm(platform, clock, counters);

  struct Live {
    Object* object;
    unsigned char fill;  // every byte of the object holds this value
  };
  std::vector<Live> live;

  auto check_data = [&](const Live& l) {
    const Region* r = dm.getprimary(*l.object);
    ASSERT_NE(r, nullptr);
    for (std::size_t i = 0; i < l.object->size(); i += 977) {
      ASSERT_EQ(std::to_integer<unsigned>(r->data()[i]), l.fill)
          << "corruption in " << l.object->name();
    }
  };

  for (int step = 0; step < 600; ++step) {
    const double dice = rng.uniform();
    if (live.empty() || dice < 0.30) {
      // Create an object with a primary on a random device.
      const std::size_t size =
          64 + rng.bounded(param.max_size);
      const sim::DeviceId dev = rng.uniform() < 0.3 ? sim::kFast : sim::kSlow;
      Region* r = dm.allocate(dev, size);
      if (r == nullptr) continue;  // tier full: fine
      Object* obj = dm.create_object(size, "o" + std::to_string(step));
      dm.setprimary(*obj, *r);
      const auto fill = static_cast<unsigned char>(rng.bounded(256));
      std::memset(r->data(), fill, size);
      dm.markdirty(*r);
      live.push_back({obj, fill});
    } else if (dice < 0.45) {
      // Destroy a random object.
      const std::size_t i = rng.bounded(live.size());
      dm.destroy_object(live[i].object);
      live[i] = live.back();
      live.pop_back();
    } else if (dice < 0.70) {
      // Relocate (Listing-1 style evict or prefetch) a random object.
      Live& l = live[rng.bounded(live.size())];
      Region* x = dm.getprimary(*l.object);
      const sim::DeviceId target =
          dm.in(*x, sim::kFast) ? sim::kSlow : sim::kFast;
      Region* y = dm.getlinked(*x, target);
      const bool allocated = y == nullptr;
      if (allocated) {
        y = dm.allocate(target, l.object->size());
        if (y == nullptr) continue;
      }
      if (dm.isdirty(*x) || allocated) dm.copyto(*y, *x);
      dm.setprimary(*l.object, *y);
      if (!allocated) dm.unlink(*x);
      dm.free(x);
    } else if (dice < 0.82) {
      // Link a secondary copy on the other device (if absent).
      Live& l = live[rng.bounded(live.size())];
      Region* x = dm.getprimary(*l.object);
      const sim::DeviceId other =
          dm.in(*x, sim::kFast) ? sim::kSlow : sim::kFast;
      if (dm.getlinked(*x, other) != nullptr) continue;
      Region* y = dm.allocate(other, l.object->size());
      if (y == nullptr) continue;
      dm.copyto(*y, *x);
      dm.link(*x, *y);
    } else if (dice < 0.90) {
      // Rewrite an object's contents through its primary.
      Live& l = live[rng.bounded(live.size())];
      Region* r = dm.getprimary(*l.object);
      l.fill = static_cast<unsigned char>(rng.bounded(256));
      std::memset(r->data(), l.fill, l.object->size());
      dm.markdirty(*r);
    } else {
      // Defragment a random device.
      dm.defragment(rng.uniform() < 0.5 ? sim::kFast : sim::kSlow);
    }

    if (step % 60 == 0) {
      ASSERT_AUDIT_CLEAN(dm);
      for (const auto& l : live) check_data(l);
    }
  }

  ASSERT_AUDIT_CLEAN(dm);
  for (const auto& l : live) check_data(l);
  for (const auto& l : live) dm.destroy_object(l.object);
  EXPECT_EQ(dm.live_objects(), 0u);
  EXPECT_EQ(dm.live_regions(), 0u);
  EXPECT_EQ(dm.resident_bytes(), 0u);
  ASSERT_AUDIT_CLEAN(dm);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DmProperty,
    ::testing::Values(Param{11, 8 * 1024}, Param{22, 64 * 1024},
                      Param{33, 256 * 1024}, Param{44, 16 * 1024},
                      Param{55, 128 * 1024}, Param{66, 512 * 1024}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "seed" + std::to_string(info.param.seed) + "_max" +
             std::to_string(info.param.max_size);
    });

}  // namespace
}  // namespace ca::dm
