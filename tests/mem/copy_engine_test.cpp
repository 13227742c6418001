#include "mem/copy_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "simd/copy.hpp"
#include "simd/isa.hpp"
#include "util/align.hpp"

namespace ca::mem {
namespace {

class CopyEngineTest : public ::testing::Test {
 protected:
  CopyEngineTest()
      : platform_(sim::Platform::cascade_lake_scaled(8 * util::MiB,
                                                     32 * util::MiB)),
        engine_(platform_, clock_, counters_) {}

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  CopyEngine engine_;
};

TEST_F(CopyEngineTest, CopiesBytesFaithfully) {
  std::vector<std::byte> src(5 * util::MiB);
  std::vector<std::byte> dst(5 * util::MiB);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 31 + 7);
  }
  engine_.copy(dst.data(), sim::kSlow, src.data(), sim::kFast, src.size());
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
}

TEST_F(CopyEngineTest, ChargesMovementTime) {
  std::vector<std::byte> buf(1 * util::MiB);
  std::vector<std::byte> out(1 * util::MiB);
  engine_.copy(out.data(), sim::kSlow, buf.data(), sim::kFast, buf.size());
  EXPECT_GT(clock_.now(), 0.0);
  EXPECT_DOUBLE_EQ(clock_.spent(sim::TimeCategory::kMovement), clock_.now());
}

TEST_F(CopyEngineTest, RecordsTrafficOnBothDevices) {
  std::vector<std::byte> buf(256 * util::KiB);
  std::vector<std::byte> out(256 * util::KiB);
  engine_.copy(out.data(), sim::kSlow, buf.data(), sim::kFast, buf.size());
  EXPECT_EQ(counters_.device(sim::kFast).bytes_read, buf.size());
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written, buf.size());
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written, 0u);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_read, 0u);
}

TEST_F(CopyEngineTest, ZeroByteCopyIsFree) {
  std::byte a{}, b{};
  engine_.copy(&a, sim::kFast, &b, sim::kFast, 0);
  EXPECT_DOUBLE_EQ(clock_.now(), 0.0);
  EXPECT_EQ(counters_.device(sim::kFast).total(), 0u);
}

TEST_F(CopyEngineTest, ThreadsScaleWithTransferSize) {
  EXPECT_EQ(engine_.threads_for(1), 1u);
  EXPECT_EQ(engine_.threads_for(platform_.copy_chunk), 1u);
  EXPECT_EQ(engine_.threads_for(2 * platform_.copy_chunk), 2u);
  EXPECT_EQ(engine_.threads_for(100 * platform_.copy_chunk),
            platform_.copy_threads);
}

TEST_F(CopyEngineTest, WritesToNvramSlowerThanReadsFromIt) {
  const std::size_t n = 16 * util::MiB;
  const double to_nvram =
      engine_.modeled_copy_time(n, sim::kFast, sim::kSlow, true);
  const double from_nvram =
      engine_.modeled_copy_time(n, sim::kSlow, sim::kFast, true);
  EXPECT_GT(to_nvram, from_nvram);
}

TEST_F(CopyEngineTest, NonTemporalStoresSpeedUpNvramWrites) {
  const std::size_t n = 16 * util::MiB;
  const double nt = engine_.modeled_copy_time(n, sim::kFast, sim::kSlow, true);
  const double regular =
      engine_.modeled_copy_time(n, sim::kFast, sim::kSlow, false);
  EXPECT_GT(regular, 1.5 * nt);
}

TEST_F(CopyEngineTest, LargeTransfersAchieveHigherBandwidth) {
  // Traffic shaping: one large copy beats many small ones (per-op latency
  // amortization + more parallel workers).
  const std::size_t total = 32 * util::MiB;
  const double one_big =
      engine_.modeled_copy_time(total, sim::kFast, sim::kSlow, true);
  const std::size_t small = 64 * util::KiB;
  const double many_small =
      static_cast<double>(total / small) *
      engine_.modeled_copy_time(small, sim::kFast, sim::kSlow, true);
  EXPECT_GT(many_small, one_big);
}

TEST_F(CopyEngineTest, DramToDramIsFastest) {
  const std::size_t n = 8 * util::MiB;
  const double dd = engine_.modeled_copy_time(n, sim::kFast, sim::kFast, true);
  const double dn = engine_.modeled_copy_time(n, sim::kFast, sim::kSlow, true);
  const double nd = engine_.modeled_copy_time(n, sim::kSlow, sim::kFast, true);
  EXPECT_LT(dd, dn);
  EXPECT_LT(dd, nd);
}

TEST_F(CopyEngineTest, FillZeroWritesAndCharges) {
  std::vector<std::byte> buf(64 * util::KiB, std::byte{0xFF});
  engine_.fill_zero(buf.data(), sim::kFast, buf.size());
  for (const auto b : buf) EXPECT_EQ(std::to_integer<int>(b), 0);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written, buf.size());
  EXPECT_GT(clock_.now(), 0.0);
}

TEST_F(CopyEngineTest, StatsTrackTransfers) {
  std::vector<std::byte> a(256 * util::KiB);
  std::vector<std::byte> b(256 * util::KiB);
  engine_.copy(b.data(), sim::kSlow, a.data(), sim::kFast, a.size());
  engine_.copy(a.data(), sim::kFast, b.data(), sim::kSlow, a.size());
  const auto& s = engine_.stats();
  EXPECT_EQ(s.copies, 2u);
  EXPECT_EQ(s.bytes, 2 * a.size());
  EXPECT_GT(s.seconds, 0.0);
  EXPECT_GT(s.latency_seconds, 0.0);
  EXPECT_LT(s.latency_seconds, s.seconds);
  EXPECT_DOUBLE_EQ(s.seconds, clock_.spent(sim::TimeCategory::kMovement));
}

TEST_F(CopyEngineTest, ZeroByteCopyDoesNotCountAsTransfer) {
  std::byte a{}, b{};
  engine_.copy(&a, sim::kFast, &b, sim::kFast, 0);
  EXPECT_EQ(engine_.stats().copies, 0u);
}

TEST_F(CopyEngineTest, ModeledBandwidthIsMinOfEndpoints) {
  const std::size_t n = 64 * util::MiB;  // saturating thread count
  const std::size_t t = engine_.threads_for(n);
  const double bw = engine_.modeled_bandwidth(n, sim::kFast, sim::kSlow, true);
  const double src_bw = platform_.spec(sim::kFast).read_bw.at(t);
  const double dst_bw = platform_.spec(sim::kSlow).write_bw_nt.at(t);
  EXPECT_DOUBLE_EQ(bw, std::min(src_bw, dst_bw));
}

TEST_F(CopyEngineTest, FillZeroCountsFillsNotCopies) {
  std::vector<std::byte> buf(3 * util::MiB, std::byte{0xFF});
  engine_.fill_zero(buf.data(), sim::kFast, buf.size());
  const auto& s = engine_.stats();
  EXPECT_EQ(s.fills, 1u);
  EXPECT_EQ(s.fill_bytes, buf.size());
  EXPECT_EQ(s.copies, 0u);
  for (std::size_t i = 0; i < buf.size(); i += 4099) {
    ASSERT_EQ(std::to_integer<unsigned>(buf[i]), 0u) << "at " << i;
  }
}

TEST_F(CopyEngineTest, AsyncCopyMovesBytesAfterJoin) {
  std::vector<std::byte> src(4 * util::MiB);
  std::vector<std::byte> dst(4 * util::MiB);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 13 + 5);
  }
  Transfer t = engine_.copy_async(dst.data(), sim::kFast, src.data(),
                                  sim::kSlow, src.size(), 0.0);
  ASSERT_TRUE(t.valid());
  t.join();
  EXPECT_TRUE(t.real_done());
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), src.size()), 0);
  // Scheduling never advanced the clock; the modeled completion matches the
  // bandwidth model.
  EXPECT_DOUBLE_EQ(clock_.now(), 0.0);
  EXPECT_DOUBLE_EQ(
      t.done_time() - t.start_time(),
      engine_.modeled_copy_time(src.size(), sim::kSlow, sim::kFast, true));
}

TEST_F(CopyEngineTest, AsyncStatsAndTrafficRecordedAtScheduleTime) {
  std::vector<std::byte> src(1 * util::MiB);
  std::vector<std::byte> dst(1 * util::MiB);
  engine_.copy_async(dst.data(), sim::kFast, src.data(), sim::kSlow,
                     src.size(), 0.0);
  const auto& s = engine_.stats();
  EXPECT_EQ(s.async_copies, 1u);
  EXPECT_EQ(s.async_bytes, src.size());
  EXPECT_GT(s.async_seconds, 0.0);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_read, src.size());
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written, src.size());
  engine_.drain();
}

TEST_F(CopyEngineTest, ChannelsSplitBetweenDirections) {
  // Default platform: 4 channels, half per direction.
  EXPECT_EQ(engine_.channel_count(), 4u);
  EXPECT_EQ(engine_.channels_for(sim::kSlow, sim::kFast), 2u);  // fetch
  EXPECT_EQ(engine_.channels_for(sim::kFast, sim::kSlow), 2u);  // writeback
}

TEST_F(CopyEngineTest, MoverHorizonTracksLatestChannel) {
  std::vector<std::byte> src(2 * util::MiB);
  std::vector<std::byte> d1(2 * util::MiB), d2(2 * util::MiB),
      d3(2 * util::MiB);
  const Transfer t1 = engine_.copy_async(d1.data(), sim::kFast, src.data(),
                                         sim::kSlow, src.size(), 0.0);
  const Transfer t2 = engine_.copy_async(d2.data(), sim::kFast, src.data(),
                                         sim::kSlow, src.size(), 0.0);
  // Two fetch channels: both run concurrently in the model.
  EXPECT_DOUBLE_EQ(t1.done_time(), t2.done_time());
  EXPECT_NE(t1.channel(), t2.channel());
  // A third fetch queues behind the earliest channel.
  const Transfer t3 = engine_.copy_async(d3.data(), sim::kFast, src.data(),
                                         sim::kSlow, src.size(), 0.0);
  EXPECT_GT(t3.done_time(), t1.done_time());
  EXPECT_DOUBLE_EQ(engine_.mover_horizon(), t3.done_time());
  EXPECT_DOUBLE_EQ(engine_.channel_busy_until(t3.channel()), t3.done_time());
  engine_.drain();
  EXPECT_EQ(engine_.inflight(), 0u);
}

// --- NT-store accounting -------------------------------------------------
//
// The engine charges write_bw_nt in the model and now also *earns* it on
// the real path: writeback-direction copies stream their full 1 MiB chunks
// through the NT kernels.  The per-device counters record the modeled
// streamed bytes, which depend on the hint and the chunk sizes alone: the
// same value at every dispatch level, CA_ISA=scalar included.  Unless a
// test says otherwise, its size is whole 1 MiB chunks, each clearing
// kNtThreshold.

TEST_F(CopyEngineTest, WritebackCopyRecordsNtBytesPerDevice) {
  const std::size_t n = 5 * util::MiB;
  ASSERT_EQ(n % platform_.copy_chunk, 0u);
  ASSERT_GE(platform_.copy_chunk, simd::kNtThreshold);
  std::vector<std::byte> src(n), dst(n);
  const simd::IsaLevel entry = simd::active_level();
  for (const simd::IsaLevel level : {entry, simd::IsaLevel::kScalar}) {
    simd::set_level(level);
    const telemetry::DeviceTraffic before = counters_.device(sim::kSlow);
    engine_.copy(dst.data(), sim::kSlow, src.data(), sim::kFast, n);
    const telemetry::DeviceTraffic d = counters_.delta(sim::kSlow, before);
    EXPECT_EQ(d.bytes_written_nt, n) << simd::level_name(level);
    EXPECT_EQ(d.bytes_written, n);
  }
  simd::set_level(entry);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written_nt, 0u);
}

TEST_F(CopyEngineTest, FetchDirectionNeverStreams) {
  // slow -> fast: the destination is about to be read (that is why it was
  // fetched), so the lines belong in cache.
  const std::size_t n = 5 * util::MiB;
  std::vector<std::byte> src(n), dst(n);
  engine_.copy(dst.data(), sim::kFast, src.data(), sim::kSlow, n);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written_nt, 0u);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written_nt, 0u);
}

TEST_F(CopyEngineTest, TemporalWritebackOptOutNeverStreams) {
  const std::size_t n = 5 * util::MiB;
  std::vector<std::byte> src(n), dst(n);
  engine_.copy(dst.data(), sim::kSlow, src.data(), sim::kFast, n,
               /*non_temporal=*/false);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written_nt, 0u);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written_nt, 0u);
}

TEST_F(CopyEngineTest, SubThresholdWritebackStaysTemporal) {
  // 100 KiB is one tail chunk below kNtThreshold: correct bytes, no NT.
  const std::size_t n = 100 * util::KiB;
  ASSERT_LT(n, simd::kNtThreshold);
  std::vector<std::byte> src(n), dst(n);
  engine_.copy(dst.data(), sim::kSlow, src.data(), sim::kFast, n);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written, n);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written_nt, 0u);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written_nt, 0u);
}

TEST_F(CopyEngineTest, AsyncWritebackRecordsNtAtScheduleTime) {
  const std::size_t n = 4 * util::MiB;
  std::vector<std::byte> src(n), dst(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::byte>(i * 31 + 7);
  }
  Transfer t = engine_.copy_async(dst.data(), sim::kSlow, src.data(),
                                  sim::kFast, n, 0.0);
  // Deterministic accounting happens at schedule time (the mover thread
  // never touches the single-writer counters).
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written_nt, n);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written_nt, 0u);
  t.join();
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), n), 0);
}

TEST_F(CopyEngineTest, FillZeroStreamsAsWriteback) {
  // fill_zero's destination is cold storage being prepared, not data about
  // to be read: it always takes the writeback hint.
  const std::size_t n = 3 * util::MiB;
  std::vector<std::byte> buf(n, std::byte{0xFF});
  engine_.fill_zero(buf.data(), sim::kSlow, n);
  for (const auto b : buf) ASSERT_EQ(std::to_integer<int>(b), 0);
  EXPECT_EQ(counters_.device(sim::kSlow).bytes_written_nt, n);
  EXPECT_EQ(counters_.device(sim::kFast).bytes_written_nt, 0u);
}

TEST_F(CopyEngineTest, EarliestStartDefersModeledTransfer) {
  std::vector<std::byte> src(1 * util::MiB);
  std::vector<std::byte> dst(1 * util::MiB);
  const double defer = 123.5;
  const Transfer t = engine_.copy_async(dst.data(), sim::kFast, src.data(),
                                        sim::kSlow, src.size(), defer);
  EXPECT_DOUBLE_EQ(t.start_time(), defer);
  engine_.drain();
}

}  // namespace
}  // namespace ca::mem
