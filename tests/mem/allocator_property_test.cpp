// Property-based tests: random allocate/free interleavings must preserve
// the allocator's structural invariants, never hand out overlapping blocks,
// and return all memory once everything is freed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "audit_clean.hpp"
#include "mem/freelist_allocator.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace ca::mem {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  FreeListAllocator::Fit fit;
  std::size_t max_alloc;
};

// The struct has padding, so gtest's default raw-byte printout (which
// gtest_discover_tests puts into every ctest name) would vary per build.
void PrintTo(const PropertyParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " fit="
      << (p.fit == FreeListAllocator::Fit::kFirstFit ? "first" : "best")
      << " max=" << p.max_alloc;
}

class AllocatorProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(AllocatorProperty, RandomWorkloadPreservesInvariants) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed);
  FreeListAllocator a(256 * util::KiB, 64, param.fit);

  // offset -> size of live allocations, mirrored outside the allocator.
  std::map<std::size_t, std::size_t> live;

  for (int step = 0; step < 3000; ++step) {
    const bool do_alloc = live.empty() || rng.uniform() < 0.55;
    if (do_alloc) {
      const std::size_t size = 1 + rng.bounded(param.max_alloc);
      const auto off = a.allocate(size);
      if (off.has_value()) {
        const std::size_t rounded = util::align_up(size, 64);
        // No overlap with any existing live allocation.
        for (const auto& [o, s] : live) {
          const bool disjoint = *off + rounded <= o || o + s <= *off;
          ASSERT_TRUE(disjoint) << "overlapping blocks at step " << step;
        }
        live.emplace(*off, rounded);
      }
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.bounded(live.size())));
      a.free(it->first);
      live.erase(it);
    }
    if (step % 200 == 0) {
      ASSERT_AUDIT_CLEAN(a);
    }
  }
  ASSERT_AUDIT_CLEAN(a);

  // Free everything: the heap must return to a single free block.
  for (const auto& [off, size] : live) a.free(off);
  ASSERT_AUDIT_CLEAN(a);
  EXPECT_EQ(a.blocks().size(), 1u);
  EXPECT_EQ(a.stats().free_bytes, a.capacity());
  EXPECT_EQ(a.stats().allocated_blocks, 0u);
}

TEST_P(AllocatorProperty, AllocationsNeverExceedCapacity) {
  const auto param = GetParam();
  util::Xoshiro256 rng(param.seed ^ 0xDEADBEEF);
  FreeListAllocator a(64 * util::KiB, 64, param.fit);
  std::vector<std::size_t> offs;
  std::size_t requested = 0;
  for (int i = 0; i < 500; ++i) {
    const std::size_t size = 1 + rng.bounded(param.max_alloc);
    if (const auto off = a.allocate(size)) {
      offs.push_back(*off);
      requested += util::align_up(size, 64);
    }
  }
  EXPECT_EQ(a.stats().allocated_bytes, requested);
  EXPECT_LE(a.stats().allocated_bytes, a.capacity());
  for (const auto off : offs) a.free(off);
  EXPECT_EQ(a.stats().allocated_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, AllocatorProperty,
    ::testing::Values(
        PropertyParam{1, FreeListAllocator::Fit::kFirstFit, 512},
        PropertyParam{2, FreeListAllocator::Fit::kFirstFit, 8192},
        PropertyParam{3, FreeListAllocator::Fit::kFirstFit, 64 * 1024},
        PropertyParam{4, FreeListAllocator::Fit::kBestFit, 512},
        PropertyParam{5, FreeListAllocator::Fit::kBestFit, 8192},
        PropertyParam{6, FreeListAllocator::Fit::kBestFit, 64 * 1024},
        PropertyParam{7, FreeListAllocator::Fit::kFirstFit, 100},
        PropertyParam{8, FreeListAllocator::Fit::kBestFit, 100}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      const auto& p = info.param;
      return std::string(p.fit == FreeListAllocator::Fit::kFirstFit
                             ? "FirstFit"
                             : "BestFit") +
             "_max" + std::to_string(p.max_alloc) + "_seed" +
             std::to_string(p.seed);
    });

}  // namespace
}  // namespace ca::mem
