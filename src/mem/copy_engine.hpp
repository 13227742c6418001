// The data-movement mechanism: a parallel, chunked copy engine plus a
// background mover for asynchronous transfers.
//
// This is the paper's "memory movement engine [which] is highly
// multi-threaded, specifically targeting large memory sizes" (§V-b).  Two
// concerns are deliberately separated:
//   * the *real* copy: bytes actually move between arenas (chunked across a
//     thread pool) so data integrity across migrations is testable; and
//   * the *modeled* cost: simulated seconds charged to the clock from the
//     platform's bandwidth curves, using the number of worker threads the
//     engine would deploy for a transfer of that size.  NVRAM writes use
//     non-temporal stores by default ("crucial for best performance",
//     §V-d).
//
// The real copy earns the NT treatment the model charges for: writebacks
// (transfers toward a slower device) pass CopyHint::kWriteback down the
// util::copy_bytes funnel, so the dispatched simd kernels stream them with
// _mm*_stream NT stores instead of dirtying the cache.  The modeled NT
// bytes -- from the hint and the chunk sizes alone, so the same on every
// host ISA -- are accounted per destination device in
// TrafficCounters::bytes_written_nt.
//
// Asynchronous transfers (§V-c) run on a dedicated mover pool with
// `Platform::mover_channels` independent channels, split between the two
// directions (fetch toward faster devices, writeback toward slower ones).
// `copy_async` returns immediately with a Transfer handle: the real memcpy
// happens on a mover thread, and the modeled completion time comes from
// channel availability plus `modeled_copy_time`.  The caller's wall clock
// therefore no longer scales with transfer size.
//
// Traffic is recorded against the source device as reads and the
// destination device as writes, exactly as the paper's uncore counters see
// a migration.
#pragma once

#include <cstddef>
#include <vector>

#include "mem/arena.hpp"
#include "mem/transfer.hpp"
#include "race/sync.hpp"
#include "sim/clock.hpp"
#include "sim/platform.hpp"
#include "simd/copy.hpp"
#include "telemetry/counters.hpp"
#include "util/cache_align.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace ca::dm {
struct RaceTestPeer;
}  // namespace ca::dm

namespace ca::mem {

class CopyEngine {
 public:
  /// Aggregate transfer statistics (explicit migrations only).
  struct Stats {
    std::uint64_t copies = 0;          ///< synchronous copies
    std::uint64_t bytes = 0;           ///< bytes moved synchronously
    double seconds = 0.0;              ///< modeled time spent copying
    double latency_seconds = 0.0;      ///< share from per-op latency
    std::uint64_t fills = 0;           ///< fill_zero calls
    std::uint64_t fill_bytes = 0;      ///< bytes zero-filled
    std::uint64_t async_copies = 0;    ///< transfers scheduled on the mover
    std::uint64_t async_bytes = 0;     ///< bytes moved asynchronously
    double async_seconds = 0.0;        ///< modeled channel occupancy, summed
  };

  CopyEngine(const sim::Platform& platform, sim::Clock& clock,
             telemetry::TrafficCounters& counters);
  ~CopyEngine();

  CopyEngine(const CopyEngine&) = delete;
  CopyEngine& operator=(const CopyEngine&) = delete;

  /// Copy `bytes` from `src` (on `src_dev`) to `dst` (on `dst_dev`),
  /// performing the real memcpy and charging modeled movement time.
  void copy(void* dst, sim::DeviceId dst_dev, const void* src,
            sim::DeviceId src_dev, std::size_t bytes,
            bool non_temporal = true);

  /// Schedule an asynchronous copy on the background mover.  The real
  /// memcpy runs on a mover thread (the pointers must stay valid until the
  /// returned handle reports `real_done`; the DataManager enforces this by
  /// joining before a region is freed or relocated).  The modeled transfer
  /// occupies the earliest-available channel of its direction: it starts at
  /// max(`earliest_start`, current simulated time, channel availability)
  /// and completes `modeled_copy_time` later.  Traffic is recorded
  /// immediately; the simulated clock is NOT advanced.  A zero-byte
  /// request is legal and returns an already-complete handle that occupies
  /// no channel and records no traffic.
  Transfer copy_async(void* dst, sim::DeviceId dst_dev, const void* src,
                      sim::DeviceId src_dev, std::size_t bytes,
                      double earliest_start, bool non_temporal = true);

  /// Zero-fill `bytes` at `dst`, chunked across the copy pool like `copy`;
  /// charges write-side cost only.
  void fill_zero(void* dst, sim::DeviceId dst_dev, std::size_t bytes);

  /// The worker count the engine deploys for a transfer of `bytes`
  /// (1..platform.copy_threads, one worker per copy_chunk).
  [[nodiscard]] std::size_t threads_for(std::size_t bytes) const;

  /// Modeled duration of a copy, in simulated seconds (no side effects).
  [[nodiscard]] double modeled_copy_time(std::size_t bytes,
                                         sim::DeviceId src_dev,
                                         sim::DeviceId dst_dev,
                                         bool non_temporal) const;

  /// Achieved bandwidth of a transfer under the model, bytes/simulated-sec.
  [[nodiscard]] double modeled_bandwidth(std::size_t bytes,
                                         sim::DeviceId src_dev,
                                         sim::DeviceId dst_dev,
                                         bool non_temporal) const;

  // --- mover channels ------------------------------------------------------

  [[nodiscard]] std::size_t channel_count() const CA_EXCLUDES(mu_) {
    sync::lock lock(mu_);
    return channel_busy_.size();
  }
  [[nodiscard]] double channel_busy_until(std::size_t channel) const
      CA_EXCLUDES(mu_) {
    sync::lock lock(mu_);
    return channel_busy_.at(channel).value;
  }

  /// Latest modeled completion across all channels (the mover horizon; no
  /// in-flight transfer completes later than this).
  [[nodiscard]] double mover_horizon() const CA_EXCLUDES(mu_);

  /// Channels serving transfers toward `dst_dev` coming from `src_dev`
  /// (fetch channels for moves toward faster devices, writeback channels
  /// otherwise).  Exposed for tests and benches.
  [[nodiscard]] std::size_t channels_for(sim::DeviceId src_dev,
                                         sim::DeviceId dst_dev) const noexcept;

  /// Number of scheduled transfers whose real memcpy has not finished yet.
  [[nodiscard]] std::size_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }

  /// Block the calling host thread until every scheduled real memcpy has
  /// finished.  Does not touch the simulated clock.
  void drain();

  [[nodiscard]] const sim::Platform& platform() const noexcept {
    return platform_;
  }

  /// Snapshot of the aggregate statistics (copied under the engine lock).
  [[nodiscard]] Stats stats() const CA_EXCLUDES(mu_) {
    sync::lock lock(mu_);
    return stats_;
  }

 private:
  /// The race/lockdep hazard injectors reach mu_ directly to stage
  /// deliberate ordering violations (tests/race/race_test_peer.hpp).
  friend struct ca::dm::RaceTestPeer;

  /// Pick the earliest-available channel of the transfer's direction.
  [[nodiscard]] std::size_t pick_channel(sim::DeviceId src_dev,
                                         sim::DeviceId dst_dev) const
      CA_REQUIRES(mu_);

  /// Modeled NT bytes for a transfer of `bytes` under `hint` at the
  /// engine's chunking (the simd NT path engages per chunk).
  [[nodiscard]] std::uint64_t modeled_nt_bytes(std::size_t bytes,
                                               simd::CopyHint hint) const;

  const sim::Platform& platform_;
  sim::Clock& clock_;
  telemetry::TrafficCounters& counters_;
  util::ThreadPool pool_;        ///< chunked synchronous copies and fills
  util::ThreadPool mover_pool_;  ///< background asynchronous transfers
  /// Guards the modeled channel schedule and the statistics; the lock
  /// hierarchy is documented in docs/CONCURRENCY.md (mu_ is a leaf: never
  /// hold it while calling into the pools, the clock, or the counters).
  /// The lock word, the channel schedule, and the mover-side inflight
  /// counter are hammered from different threads (caller vs movers), so
  /// each sits on its own cache line.
  alignas(util::kCacheLineSize) mutable sync::mutex mu_
      CA_LEAF{CA_LOCK_CLASS("mem::CopyEngine::mu_")};
  std::vector<util::CacheLineAligned<double>> channel_busy_
      CA_GUARDED_BY(mu_);  ///< per-channel availability, one line each
  alignas(util::kCacheLineSize) sync::atomic<std::size_t> inflight_{0};
  Stats stats_ CA_GUARDED_BY(mu_);
};

}  // namespace ca::mem
