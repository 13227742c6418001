// Multi-channel mover tests at the DataManager level: the in-flight
// transfer registry, write-behind eviction window reuse, join-before-free
// and join-before-defragment memory safety, and the stall/overlap
// accounting.  The concurrency tests are TSan targets (tools/check.sh runs
// this binary under CA_SANITIZE=thread): every interleaving of schedule /
// wait_ready / free / defragment against the background mover threads must
// be race-free.
#include <gtest/gtest.h>

#include <cstring>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "util/align.hpp"

namespace ca::dm {
namespace {

class AsyncChannelsFixture : public ::testing::Test {
 protected:
  AsyncChannelsFixture()
      : platform_(sim::Platform::cascade_lake_scaled(16 * util::MiB,
                                                     64 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  DataManager dm_;
};

TEST_F(AsyncChannelsFixture, WriteBehindReusesWindowWithoutStalling) {
  // The write-behind eviction flow at DM level: dirty fast region, schedule
  // the writeback asynchronously, free the fast region immediately.  The
  // window is reusable with zero simulated delay; the writeback keeps its
  // channel busy in the background.
  Region* fast = dm_.allocate(sim::kFast, 4 * util::MiB);
  Region* slow = dm_.allocate(sim::kSlow, 4 * util::MiB);
  std::memset(fast->data(), 0xA7, fast->size());
  const std::size_t offset = fast->offset();

  const double t0 = clock_.now();
  const double done = dm_.copyto_async(*slow, *fast);
  dm_.free(fast);  // joins the real copy; never advances the clock
  EXPECT_DOUBLE_EQ(clock_.now(), t0);
  EXPECT_GT(done, t0);

  // The window is immediately reusable.
  Region* reuse = dm_.allocate(sim::kFast, 4 * util::MiB);
  ASSERT_NE(reuse, nullptr);
  EXPECT_EQ(reuse->offset(), offset);
  std::memset(reuse->data(), 0x00, reuse->size());  // safe: real copy joined

  // The writeback landed intact before the window was reused.
  for (std::size_t i = 0; i < slow->size(); i += 65537) {
    ASSERT_EQ(std::to_integer<unsigned>(slow->data()[i]), 0xA7u) << i;
  }
  EXPECT_DOUBLE_EQ(slow->ready_at(), done);
  dm_.free(reuse);
  dm_.free(slow);
}

TEST_F(AsyncChannelsFixture, FreeScrubsInflightRegistry) {
  Region* src = dm_.allocate(sim::kSlow, 1 * util::MiB);
  Region* dst = dm_.allocate(sim::kFast, 1 * util::MiB);
  dm_.copyto_async(*dst, *src);
  ASSERT_EQ(dm_.inflight_transfers().size(), 1u);
  // An evicted-before-use prefetch: the destination dies with its modeled
  // fill still pending.  No throw; the registry entry is scrubbed.
  dm_.free(dst);
  EXPECT_TRUE(dm_.inflight_transfers().empty());
  EXPECT_EQ(dm_.async_stats().retired, 1u);
  dm_.free(src);
}

TEST_F(AsyncChannelsFixture, RetireAfterClockCatchesUp) {
  Region* src = dm_.allocate(sim::kSlow, 1 * util::MiB);
  Region* dst = dm_.allocate(sim::kFast, 1 * util::MiB);
  const double done = dm_.copyto_async(*dst, *src);
  ASSERT_EQ(dm_.inflight_transfers().size(), 1u);
  dm_.retire_transfers();  // modeled completion still pending: no retire
  EXPECT_EQ(dm_.inflight_transfers().size(), 1u);
  clock_.advance(done - clock_.now(), sim::TimeCategory::kCompute);
  dm_.retire_transfers();
  EXPECT_TRUE(dm_.inflight_transfers().empty());
  EXPECT_EQ(dm_.async_stats().retired, 1u);
  EXPECT_EQ(dm_.async_stats().scheduled, 1u);
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(AsyncChannelsFixture, WaitReadyAccountsStallAndOverlap) {
  Region* src = dm_.allocate(sim::kSlow, 4 * util::MiB);
  Region* dst = dm_.allocate(sim::kFast, 4 * util::MiB);
  const double done = dm_.copyto_async(*dst, *src);
  const double duration = done - clock_.now();
  clock_.advance(0.6 * duration, sim::TimeCategory::kCompute);
  dm_.wait_ready(*dst);
  const auto& s = dm_.async_stats();
  EXPECT_EQ(s.stalls, 1u);
  EXPECT_NEAR(s.stall_seconds, 0.4 * duration, 1e-9);
  EXPECT_NEAR(s.overlap_seconds, 0.6 * duration, 1e-9);
  EXPECT_FALSE(dst->pending_fill().valid());
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(AsyncChannelsFixture, FullyOverlappedTransferCountsNoStall) {
  Region* src = dm_.allocate(sim::kSlow, 1 * util::MiB);
  Region* dst = dm_.allocate(sim::kFast, 1 * util::MiB);
  const double done = dm_.copyto_async(*dst, *src);
  const double duration = done - clock_.now();
  clock_.advance(2.0 * duration, sim::TimeCategory::kCompute);
  dm_.wait_ready(*dst);
  const auto& s = dm_.async_stats();
  EXPECT_EQ(s.stalls, 0u);
  EXPECT_NEAR(s.overlap_seconds, duration, 1e-9);
  dm_.free(src);
  dm_.free(dst);
}

TEST_F(AsyncChannelsFixture, SyncCopyFromPendingFillWaitsFirst) {
  Region* a = dm_.allocate(sim::kSlow, 2 * util::MiB);
  Region* b = dm_.allocate(sim::kFast, 2 * util::MiB);
  Region* c = dm_.allocate(sim::kSlow, 2 * util::MiB);
  std::memset(a->data(), 0x3D, a->size());
  const double done = dm_.copyto_async(*b, *a);
  // Synchronous copy FROM the in-flight destination: the clock must first
  // catch up to the fill's completion, then pay the copy itself.
  dm_.copyto(*c, *b);
  EXPECT_GE(clock_.now(), done);
  EXPECT_EQ(std::to_integer<unsigned>(c->data()[123]), 0x3Du);
  for (auto* r : {a, b, c}) dm_.free(r);
}

TEST_F(AsyncChannelsFixture, ChainedTransfersRespectModeledDependency) {
  // writeback fast->slow, then fetch slow->fast2 of the same bytes: the
  // fetch may not start before the writeback has (modeled-)completed.
  Region* fast = dm_.allocate(sim::kFast, 2 * util::MiB);
  Region* slow = dm_.allocate(sim::kSlow, 2 * util::MiB);
  Region* fast2 = dm_.allocate(sim::kFast, 2 * util::MiB);
  std::memset(fast->data(), 0x66, fast->size());
  const double wb_done = dm_.copyto_async(*slow, *fast);
  const double fetch_done = dm_.copyto_async(*fast2, *slow);
  const double fetch_alone = dm_.engine().modeled_copy_time(
      slow->size(), sim::kSlow, sim::kFast, true);
  EXPECT_NEAR(fetch_done, wb_done + fetch_alone, 1e-9);
  dm_.drain_transfers();
  EXPECT_EQ(std::to_integer<unsigned>(fast2->data()[4321]), 0x66u);
  for (auto* r : {fast, slow, fast2}) dm_.free(r);
}

TEST_F(AsyncChannelsFixture, DefragmentJoinsInflightRealCopies) {
  // Regions with in-flight fills survive compaction: defragment joins every
  // real copy before memmoving, and registry entries keep pointing at live
  // Region objects (whose data pointers are updated in place).
  Region* keep = dm_.allocate(sim::kFast, 1 * util::MiB);
  Region* hole = dm_.allocate(sim::kFast, 2 * util::MiB);
  Region* dst = dm_.allocate(sim::kFast, 4 * util::MiB);
  Region* src = dm_.allocate(sim::kSlow, 4 * util::MiB);
  std::memset(src->data(), 0x99, src->size());
  dm_.free(hole);  // leave a gap so compaction actually moves dst
  dm_.copyto_async(*dst, *src);
  ASSERT_EQ(dm_.inflight_transfers().size(), 1u);
  dm_.defragment(sim::kFast);
  ASSERT_EQ(dm_.inflight_transfers().size(), 1u);
  EXPECT_EQ(dm_.inflight_transfers()[0].dst, dst);
  for (std::size_t i = 0; i < dst->size(); i += 65537) {
    ASSERT_EQ(std::to_integer<unsigned>(dst->data()[i]), 0x99u) << i;
  }
  for (auto* r : {keep, dst, src}) dm_.free(r);
}

TEST_F(AsyncChannelsFixture, ConcurrentScheduleWaitFreeDefragInterleavings) {
  // TSan target: hammer every combination of schedule, wait_ready, free and
  // defragment while mover threads stream bytes in the background.
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kSlots = 4;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Region* srcs[kSlots];
    Region* dsts[kSlots];
    for (std::size_t i = 0; i < kSlots; ++i) {
      srcs[i] = dm_.allocate(sim::kSlow, 1 * util::MiB);
      dsts[i] = dm_.allocate(sim::kFast, 1 * util::MiB);
      std::memset(srcs[i]->data(), static_cast<int>(0x10 + i), 1 * util::MiB);
      dm_.copyto_async(*dsts[i], *srcs[i]);
    }
    switch (round % 4) {
      case 0:
        for (std::size_t i = 0; i < kSlots; ++i) dm_.wait_ready(*dsts[i]);
        break;
      case 1:
        dm_.free(dsts[0]);  // evicted-before-use: join + scrub
        dsts[0] = nullptr;
        dm_.defragment(sim::kFast);
        break;
      case 2:
        dm_.defragment(sim::kFast);
        for (std::size_t i = 0; i < kSlots; ++i) dm_.wait_ready(*dsts[i]);
        break;
      case 3:
        dm_.drain_transfers();
        break;
    }
    for (std::size_t i = 0; i < kSlots; ++i) {
      if (dsts[i] != nullptr) {
        dm_.wait_ready(*dsts[i]);
        ASSERT_EQ(std::to_integer<unsigned>(dsts[i]->data()[777]), 0x10 + i);
        dm_.free(dsts[i]);
      }
      dm_.free(srcs[i]);
    }
    ASSERT_AUDIT_CLEAN(dm_);
  }
  dm_.drain_transfers();
  EXPECT_EQ(dm_.async_stats().scheduled, kRounds * kSlots);
}

TEST_F(AsyncChannelsFixture, DestructorDrainsPendingRealCopies) {
  // A DataManager destroyed with transfers still in flight must join them
  // before the arenas are torn down (covered by ASan/TSan runs).
  auto local = std::make_unique<DataManager>(platform_, clock_, counters_);
  Region* src = local->allocate(sim::kSlow, 8 * util::MiB);
  Region* dst = local->allocate(sim::kFast, 8 * util::MiB);
  local->copyto_async(*dst, *src);
  local.reset();  // must not race or use-after-free
}

}  // namespace
}  // namespace ca::dm