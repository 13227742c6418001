#include "mem/copy_engine.hpp"

#include <algorithm>
#include <thread>

#include "util/align.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace ca::mem {

namespace {

std::size_t host_parallelism(const sim::Platform& platform) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(platform.copy_threads,
                               std::max(1u, hw));
}

std::size_t mover_parallelism(const sim::Platform& platform) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t channels = std::max<std::size_t>(1, platform.mover_channels);
  return std::min<std::size_t>(channels, std::max(1u, hw));
}

}  // namespace

CopyEngine::CopyEngine(const sim::Platform& platform, sim::Clock& clock,
                       telemetry::TrafficCounters& counters)
    : platform_(platform),
      clock_(clock),
      counters_(counters),
      pool_(host_parallelism(platform)),
      mover_pool_(mover_parallelism(platform)),
      channel_busy_(std::max<std::size_t>(1, platform.mover_channels),
                    util::CacheLineAligned<double>{0.0}) {}

CopyEngine::~CopyEngine() { drain(); }

std::size_t CopyEngine::threads_for(std::size_t bytes) const {
  const std::size_t chunks =
      std::max<std::size_t>(1, util::ceil_div(bytes, platform_.copy_chunk));
  return std::min(chunks, platform_.copy_threads);
}

double CopyEngine::modeled_bandwidth(std::size_t bytes, sim::DeviceId src_dev,
                                     sim::DeviceId dst_dev,
                                     bool non_temporal) const {
  const std::size_t t = threads_for(bytes);
  const auto& src = platform_.spec(src_dev);
  const auto& dst = platform_.spec(dst_dev);
  return std::min(src.read_bw.at(t), dst.write_curve(non_temporal).at(t));
}

double CopyEngine::modeled_copy_time(std::size_t bytes, sim::DeviceId src_dev,
                                     sim::DeviceId dst_dev,
                                     bool non_temporal) const {
  if (bytes == 0) return 0.0;
  const auto& src = platform_.spec(src_dev);
  const auto& dst = platform_.spec(dst_dev);
  const double bw = modeled_bandwidth(bytes, src_dev, dst_dev, non_temporal);
  return src.op_latency_s + dst.op_latency_s +
         static_cast<double>(bytes) / bw;
}

std::uint64_t CopyEngine::modeled_nt_bytes(std::size_t bytes,
                                           simd::CopyHint hint) const {
  // The simd NT path engages per chunk, so model it at the engine's
  // chunking: all full chunks plus the tail, each gated on kNtThreshold.
  // Deterministic by construction (no pointer alignment or ISA involved).
  const std::size_t chunk = platform_.copy_chunk;
  const std::size_t full = bytes / chunk;
  const std::size_t tail = bytes % chunk;
  return full * simd::nt_bytes_for(chunk, hint) +
         simd::nt_bytes_for(tail, hint);
}

void CopyEngine::copy(void* dst, sim::DeviceId dst_dev, const void* src,
                      sim::DeviceId src_dev, std::size_t bytes,
                      bool non_temporal) {
  CA_CHECK(dst != nullptr && src != nullptr, "null pointer passed to copy");
  if (bytes == 0) return;

  // Writebacks (toward a slower device) stream past the cache: their
  // destination is the cold tier and will not be re-read soon.  Fetches
  // keep temporal stores -- the caller is about to touch the data.
  const bool writeback = dst_dev.value > src_dev.value;
  const simd::CopyHint hint = non_temporal && writeback
                                  ? simd::CopyHint::kWriteback
                                  : simd::CopyHint::kTemporal;

  // Real data movement, chunked across the pool.
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  const std::size_t chunks = util::ceil_div(bytes, platform_.copy_chunk);
  pool_.parallel_for(chunks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const std::size_t off = c * platform_.copy_chunk;
      const std::size_t len = std::min(platform_.copy_chunk, bytes - off);
      util::copy_bytes(d + off, s + off, len, "CopyEngine::copy", hint);
    }
  });

  // Modeled cost + traffic accounting.
  const double seconds =
      modeled_copy_time(bytes, src_dev, dst_dev, non_temporal);
  const std::uint64_t nt = modeled_nt_bytes(bytes, hint);
  clock_.advance(seconds, sim::TimeCategory::kMovement);
  counters_.record_read(src_dev, bytes);
  counters_.record_write(dst_dev, bytes);
  if (nt != 0) counters_.record_nt_write(dst_dev, nt);
  {
    sync::lock lock(mu_);
    ++stats_.copies;
    stats_.bytes += bytes;
    stats_.seconds += seconds;
    stats_.latency_seconds += platform_.spec(src_dev).op_latency_s +
                              platform_.spec(dst_dev).op_latency_s;
  }
}

std::size_t CopyEngine::channels_for(sim::DeviceId src_dev,
                                     sim::DeviceId dst_dev) const noexcept {
  // Channel count is fixed at construction, so this needs no lock.
  const std::size_t n = std::max<std::size_t>(1, platform_.mover_channels);
  if (n < 2) return n;
  // A fetch moves data toward a faster (lower-numbered) device; a
  // writeback moves it toward a slower one.  Each direction owns half the
  // channels (the fetch half first).
  return dst_dev.value < src_dev.value ? n / 2 : n - n / 2;
}

std::size_t CopyEngine::pick_channel(sim::DeviceId src_dev,
                                     sim::DeviceId dst_dev) const {
  const std::size_t n = channel_busy_.size();
  std::size_t begin = 0;
  std::size_t end = n;
  if (n >= 2) {
    const std::size_t fetch = n / 2;
    if (dst_dev.value < src_dev.value) {
      end = fetch;
    } else {
      begin = fetch;
    }
  }
  std::size_t best = begin;
  for (std::size_t c = begin + 1; c < end; ++c) {
    if (channel_busy_[c].value < channel_busy_[best].value) best = c;
  }
  return best;
}

double CopyEngine::mover_horizon() const {
  sync::lock lock(mu_);
  double horizon = 0.0;
  for (const auto& busy : channel_busy_) {
    horizon = std::max(horizon, busy.value);
  }
  return horizon;
}

Transfer CopyEngine::copy_async(void* dst, sim::DeviceId dst_dev,
                                const void* src, sim::DeviceId src_dev,
                                std::size_t bytes, double earliest_start,
                                bool non_temporal) {
  CA_CHECK(dst != nullptr && src != nullptr,
           "null pointer passed to copy_async");

  // A zero-byte transfer completes instantly: no channel occupancy, no
  // traffic, no mover task -- just a handle that is already done.
  if (bytes == 0) {
    auto state = std::make_shared<Transfer::State>();
    state->start = std::max(earliest_start, clock_.now());
    state->done = state->start;
    state->real_done.store(true, std::memory_order_release);
    return Transfer(std::move(state));
  }

  const double duration =
      modeled_copy_time(bytes, src_dev, dst_dev, non_temporal);
  const bool writeback = dst_dev.value > src_dev.value;
  const simd::CopyHint hint = non_temporal && writeback
                                  ? simd::CopyHint::kWriteback
                                  : simd::CopyHint::kTemporal;
  const std::uint64_t nt = modeled_nt_bytes(bytes, hint);

  // Modeled schedule: earliest-available channel of the direction.
  std::size_t channel = 0;
  double start = 0.0;
  {
    sync::lock lock(mu_);
    channel = pick_channel(src_dev, dst_dev);
    start = std::max(
        {earliest_start, clock_.now(), channel_busy_[channel].value});
    channel_busy_[channel].value = start + duration;
    ++stats_.async_copies;
    stats_.async_bytes += bytes;
    stats_.async_seconds += duration;
  }
  const double done = start + duration;

  auto state = std::make_shared<Transfer::State>();
  state->start = start;
  state->done = done;
  state->channel = channel;
  state->bytes = bytes;

  // Traffic is recorded at schedule time on the caller thread (the mover
  // thread touches only the bytes and the transfer state).
  counters_.record_read(src_dev, bytes);
  counters_.record_write(dst_dev, bytes);
  if (nt != 0) counters_.record_nt_write(dst_dev, nt);

  // Real movement in the background: one mover task, chunked memcpy.  The
  // source/destination ranges are recorded with the race detector chunk by
  // chunk, so an unordered free or reuse of either range while the mover
  // still runs is a reported race.
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  const std::size_t chunk = platform_.copy_chunk;
  mover_pool_.submit([this, state, d, s, bytes, chunk, hint] {
    for (std::size_t off = 0; off < bytes; off += chunk) {
      const std::size_t len = std::min(chunk, bytes - off);
      util::copy_bytes(d + off, s + off, len, "CopyEngine::copy_async(mover)",
                       hint);
    }
    {
      sync::lock lock(state->mu);
      state->real_done.store(true, std::memory_order_release);
    }
    state->cv.notify_all();
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  });
  return Transfer(std::move(state));
}

void CopyEngine::drain() { mover_pool_.wait_idle(); }

void CopyEngine::fill_zero(void* dst, sim::DeviceId dst_dev,
                           std::size_t bytes) {
  CA_CHECK(dst != nullptr, "null pointer passed to fill_zero");
  if (bytes == 0) return;

  // Chunk the fill across the pool exactly like copy: fills are charged
  // multi-threaded modeled bandwidth, so the real work is multi-threaded
  // too.  The model charges the NT write curve, so the real fill asks for
  // the NT path as well (a freshly zeroed region has no warm readers).
  const simd::CopyHint hint = simd::CopyHint::kWriteback;
  auto* d = static_cast<std::byte*>(dst);
  const std::size_t chunks = util::ceil_div(bytes, platform_.copy_chunk);
  pool_.parallel_for(chunks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      const std::size_t off = c * platform_.copy_chunk;
      const std::size_t len = std::min(platform_.copy_chunk, bytes - off);
      util::fill_zero(d + off, len, "CopyEngine::fill_zero", hint);
    }
  });

  const auto& spec = platform_.spec(dst_dev);
  const std::size_t t = threads_for(bytes);
  const std::uint64_t nt = modeled_nt_bytes(bytes, hint);
  clock_.advance(spec.op_latency_s +
                     static_cast<double>(bytes) / spec.write_bw_nt.at(t),
                 sim::TimeCategory::kMovement);
  counters_.record_write(dst_dev, bytes);
  if (nt != 0) counters_.record_nt_write(dst_dev, nt);
  {
    sync::lock lock(mu_);
    ++stats_.fills;
    stats_.fill_bytes += bytes;
  }
}

}  // namespace ca::mem
