// Tests for the set-associative extension of the 2LM cache model, plus
// property tests checking the simulator against an independent reference
// implementation on random, tensor-shaped and scattered access streams.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "twolm/direct_mapped_cache.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ca::twolm {
namespace {

class AssocFixture : public ::testing::Test {
 protected:
  AssocFixture()
      : platform_(sim::Platform::cascade_lake_scaled(4 * util::KiB,
                                                     64 * util::KiB)) {}

  DirectMappedCache make(std::size_t ways,
                         std::size_t capacity = 4 * util::KiB) {
    CacheConfig cfg;
    cfg.capacity = capacity;
    cfg.block_size = 64;
    cfg.ways = ways;
    return DirectMappedCache(cfg, platform_, counters_);
  }

  sim::Platform platform_;
  telemetry::TrafficCounters counters_;
};

TEST_F(AssocFixture, GeometryAccountsForWays) {
  auto c = make(4);
  EXPECT_EQ(c.num_sets(), 16u);  // 64 blocks / 4 ways
}

TEST_F(AssocFixture, TwoWayResolvesPingPongConflict) {
  // Addresses 0 and capacity alias in a direct-mapped cache; with 2 ways
  // they coexist.
  auto direct = make(1);
  auto assoc = make(2);
  for (int i = 0; i < 10; ++i) {
    direct.access(0, 64, false);
    direct.access(4 * util::KiB, 64, false);
    assoc.access(0, 64, false);
    assoc.access(4 * util::KiB, 64, false);
  }
  EXPECT_EQ(direct.stats().hits, 0u);       // pure ping-pong
  EXPECT_EQ(assoc.stats().hits, 18u);       // everything after the fills
}

TEST_F(AssocFixture, LruEvictsTheColdestWay) {
  auto c = make(2);  // 32 sets; set 0 aliases at multiples of 32*64 = 2 KiB
  c.access(0 * 2048, 1, false);  // A -> set 0
  c.access(1 * 2048, 1, false);  // B -> set 0 (both ways full)
  c.access(0 * 2048, 1, false);  // touch A: B becomes LRU
  c.access(2 * 2048, 1, false);  // C evicts B
  c.access(0 * 2048, 1, false);  // A still resident
  EXPECT_EQ(c.stats().hits, 2u);
  c.access(1 * 2048, 1, false);  // B was evicted: miss
  EXPECT_EQ(c.stats().hits, 2u);
}

TEST_F(AssocFixture, FullyAssociativeHoldsAnyFittingWorkingSet) {
  // With ways == blocks (one set, pure LRU) any working set that fits is
  // all-hits after the cold fills, regardless of address alignment --
  // while the direct-mapped cache thrashes on the aliased layout.
  auto fully = make(64);  // 4 KiB / 64 B = 64 blocks, single set
  auto direct = make(1);
  // 32 blocks, all aliasing to a handful of direct-mapped sets.
  std::vector<std::size_t> addrs;
  for (std::size_t i = 0; i < 32; ++i) addrs.push_back(i * 4 * util::KiB);
  for (int round = 0; round < 10; ++round) {
    for (const auto a : addrs) {
      fully.access(a, 64, false);
      direct.access(a, 64, false);
    }
  }
  EXPECT_EQ(fully.stats().misses(), 32u);  // cold fills only
  EXPECT_EQ(fully.stats().hits, 32u * 9u);
  EXPECT_EQ(direct.stats().hits, 0u);  // every access aliases set 0
}

TEST_F(AssocFixture, InvalidGeometryRejected) {
  CacheConfig cfg;
  cfg.capacity = 4 * util::KiB;
  cfg.block_size = 64;
  cfg.ways = 3;  // not a power of two
  EXPECT_THROW(DirectMappedCache(cfg, platform_, counters_), ca::InternalError);
}

// --- property tests against a reference model -----------------------------

/// A deliberately simple reference: per-set vector of (tag, dirty) in LRU
/// order, no stats trickery, no bandwidth model.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t sets, std::size_t ways)
      : sets_(sets), ways_(ways), lines_(sets) {}

  /// Returns {hit, clean_miss, dirty_miss} for one block access.
  std::array<bool, 3> access(std::size_t block, bool write) {
    auto& set = lines_[block % sets_];
    const std::uint64_t tag = block / sets_;
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == tag) {
        auto entry = *it;
        set.erase(it);
        entry.second = entry.second || write;
        set.push_back(entry);  // MRU at the back
        return {true, false, false};
      }
    }
    bool dirty_evict = false;
    if (set.size() == ways_) {
      dirty_evict = set.front().second;
      set.erase(set.begin());
    }
    set.push_back({tag, write});
    return {false, !dirty_evict, dirty_evict};
  }

  void flush() {
    for (auto& set : lines_) set.clear();
  }

 private:
  std::size_t sets_;
  std::size_t ways_;
  std::vector<std::vector<std::pair<std::uint64_t, bool>>> lines_;
};

// 192 blocks: 192/96/48/24 sets at 1/2/4/8 ways, none a power of two.
constexpr std::size_t kCapacity = 12 * util::KiB;
constexpr std::size_t kBlock = 64;
constexpr std::size_t kHeap = 4 * kCapacity;

/// The simulator and the reference side by side; every access compares
/// their running stats.
class Lockstep {
 public:
  explicit Lockstep(std::size_t ways)
      : platform_(sim::Platform::cascade_lake_scaled(kCapacity, kHeap)),
        cache_(config(ways), platform_, counters_),
        ref_(cache_.num_sets(), ways) {}

  ::testing::AssertionResult access(std::size_t addr, std::size_t bytes,
                                    bool write) {
    cache_.access(addr, bytes, write);
    for (std::size_t b = addr / kBlock; b <= (addr + bytes - 1) / kBlock;
         ++b) {
      const auto [h, c, d] = ref_.access(b, write);
      hits_ += h;
      clean_ += c;
      dirty_ += d;
    }
    const auto& s = cache_.stats();
    if (s.hits == hits_ && s.clean_misses == clean_ &&
        s.dirty_misses == dirty_) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "hits/clean/dirty " << s.hits << "/" << s.clean_misses << "/"
           << s.dirty_misses << ", reference " << hits_ << "/" << clean_
           << "/" << dirty_;
  }

  void flush() {
    cache_.flush();
    ref_.flush();
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t dirty() const { return dirty_; }

 private:
  static CacheConfig config(std::size_t ways) {
    CacheConfig cfg;
    cfg.capacity = kCapacity;
    cfg.block_size = kBlock;
    cfg.ways = ways;
    return cfg;
  }

  sim::Platform platform_;
  telemetry::TrafficCounters counters_;
  DirectMappedCache cache_;
  ReferenceCache ref_;
  std::uint64_t hits_ = 0, clean_ = 0, dirty_ = 0;
};

class CacheProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::uint64_t>> {
};

TEST_P(CacheProperty, MatchesReferenceOnRandomStreams) {
  const auto [ways, seed] = GetParam();
  Lockstep lock(ways);
  util::Xoshiro256 rng(seed);
  for (int i = 0; i < 5000; ++i) {
    // Byte ranges from one block to past the whole cache, so one call can
    // wrap the set index and revisit sets.
    const std::size_t addr = rng.bounded(kHeap);
    const std::size_t span =
        rng.uniform() < 0.5 ? 4 * kBlock : kCapacity + kCapacity / 2;
    const std::size_t bytes = 1 + rng.bounded(span);
    const bool write = rng.uniform() < 0.4;
    ASSERT_TRUE(lock.access(addr, bytes, write)) << "step " << i;
  }
  // The stream exercises all three outcomes.
  EXPECT_GT(lock.hits(), 0u);
  EXPECT_GT(lock.dirty(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CacheProperty,
    ::testing::Values(std::pair<std::size_t, std::uint64_t>{1, 1},
                      std::pair<std::size_t, std::uint64_t>{1, 2},
                      std::pair<std::size_t, std::uint64_t>{2, 3},
                      std::pair<std::size_t, std::uint64_t>{2, 4},
                      std::pair<std::size_t, std::uint64_t>{4, 5},
                      std::pair<std::size_t, std::uint64_t>{8, 6}),
    [](const auto& info) {
      return "ways" + std::to_string(info.param.first) + "_seed" +
             std::to_string(info.param.second);
    });

class StreamProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamProperty, TensorStreamMatchesReference) {
  // The trainers' shape: a fixed set of tensors, each read or written
  // whole.  Sizes run from one block to 1.5x the cache, each size once
  // block-aligned and once starting and ending mid-block.
  Lockstep lock(GetParam());
  util::Xoshiro256 rng(7);
  constexpr std::size_t kBlocks[] = {1, 3, 17, 64, 192, 288};
  std::vector<std::pair<std::size_t, std::size_t>> tensors;
  for (std::size_t i = 0; i < 24; ++i) {
    const std::size_t odd = i / 6 % 2;
    const std::size_t bytes =
        kBlocks[i % 6] * kBlock - odd * (1 + rng.bounded(kBlock - 1));
    const std::size_t addr =
        rng.bounded((kHeap - bytes) / kBlock) * kBlock + odd * 32;
    tensors.emplace_back(addr, bytes);
  }
  for (int i = 0; i < 4000; ++i) {
    if (i == 2000) lock.flush();
    const auto [addr, bytes] = tensors[rng.bounded(tensors.size())];
    ASSERT_TRUE(lock.access(addr, bytes, rng.uniform() < 0.4)) << "step " << i;
  }
  EXPECT_GT(lock.hits(), 0u);
  EXPECT_GT(lock.dirty(), 0u);
}

TEST_P(StreamProperty, ScatteredBlocksMatchReference) {
  // One block per access at random: the direct-mapped store's worst case,
  // one run per touched set.
  Lockstep lock(GetParam());
  util::Xoshiro256 rng(8);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t block = rng.bounded(kHeap / kBlock);
    ASSERT_TRUE(lock.access(block * kBlock + rng.bounded(kBlock), 1,
                            rng.uniform() < 0.4))
        << "step " << i;
  }
  EXPECT_GT(lock.hits(), 0u);
  EXPECT_GT(lock.dirty(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, StreamProperty, ::testing::Values(1, 2),
                         [](const auto& info) {
                           return "ways" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ca::twolm
