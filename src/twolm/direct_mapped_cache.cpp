#include "twolm/direct_mapped_cache.hpp"

#include <algorithm>

#include "util/align.hpp"
#include "util/error.hpp"

namespace ca::twolm {
namespace {

// Fields of a line word: tag << 2 | dirty << 1 | valid.
constexpr std::uint32_t kValid = 1;
constexpr std::uint32_t kDirty = 2;
constexpr unsigned kTagBits = 30;

}  // namespace

DirectMappedCache::DirectMappedCache(const CacheConfig& config,
                                     const sim::Platform& platform,
                                     telemetry::TrafficCounters& counters,
                                     sim::DeviceId fast, sim::DeviceId slow)
    : config_(config),
      platform_(platform),
      counters_(counters),
      fast_(fast),
      slow_(slow) {
  CA_CHECK(util::is_pow2(config_.block_size), "block size must be 2^k");
  CA_CHECK(config_.capacity >= config_.block_size,
           "cache must hold at least one block");
  CA_CHECK(config_.ways >= 1 && util::is_pow2(config_.ways),
           "associativity must be a power of two");
  const std::size_t blocks = config_.capacity / config_.block_size;
  CA_CHECK(blocks % config_.ways == 0,
           "capacity/block_size must be a multiple of the associativity");
  sets_ = blocks / config_.ways;
  lines_.assign(blocks, 0);
  if (config_.ways > 1) stamps_.assign(blocks, 0);

  const std::size_t t = config_.kernel_threads;
  const auto& dram = platform_.spec(fast_);
  const auto& nvram = platform_.spec(slow_);
  // DRAM side of hits, fills and writeback reads.
  dram_bw_ = std::min(dram.read_bw.at(t), dram.write_bw.at(t));
  // NVRAM fills and writebacks run at block granularity in conflict-miss
  // order: a fraction of sequential bandwidth.
  nvram_fill_bw_ = nvram.read_bw.at(t) * config_.nvram_read_efficiency;
  // Writebacks drain through the write-pending queue (streaming stores),
  // but in conflict-miss order rather than the copy engine's shaped runs.
  nvram_writeback_bw_ =
      nvram.write_bw_nt.at(t) * config_.nvram_write_efficiency;
}

double DirectMappedCache::access(std::size_t addr, std::size_t bytes,
                                 bool write) {
  if (bytes == 0) return 0.0;
  const std::size_t bs = config_.block_size;
  const std::size_t first = addr / bs;
  const std::size_t last = (addr + bytes - 1) / bs;
  // last / sets_ < 2^30, tested without a second division.
  CA_CHECK((last >> kTagBits) < sets_,
           "2LM tag overflows 30 bits: address >= 2^30 x capacity / ways");
  const std::uint64_t blocks = last - first + 1;
  const std::size_t ways = config_.ways;
  const std::uint32_t dirty_bit = write ? kDirty : 0;

  std::uint64_t hits = 0;
  std::uint64_t dirty = 0;
  // Divide once for the first block, then walk runs of consecutive sets:
  // each wrap back to set 0 is the next tag.
  std::size_t set = first % sets_;
  auto tag = static_cast<std::uint32_t>(first / sets_);
  for (std::uint64_t left = blocks; left > 0; set = 0, ++tag) {
    const std::size_t run = std::min<std::uint64_t>(left, sets_ - set);
    left -= run;
    const std::uint32_t want = tag << 2 | kValid;
    if (ways == 1) {
      // Branch-free: the hit test, the dirty victim and the new word all
      // come from the old word.
      std::uint32_t* line = lines_.data() + set;
      for (std::size_t i = 0; i < run; ++i) {
        const std::uint32_t word = line[i];
        const std::uint32_t hit = (word & ~kDirty) == want;
        hits += hit;
        dirty += (hit ^ 1) & (word >> 1);  // a miss on a dirty line
        line[i] = (hit != 0 ? word : want) | dirty_bit;
      }
      continue;
    }
    for (std::size_t s = set; s < set + run; ++s) {
      std::uint32_t* line = lines_.data() + s * ways;
      std::uint64_t* stamp = stamps_.data() + s * ways;
      bool hit = false;
      std::size_t way = 0;  // the hit, else the victim
      for (std::size_t w = 0; w < ways; ++w) {
        if ((line[w] & ~kDirty) == want) {
          hit = true;
          way = w;
          break;
        }
        if ((line[w] & kValid) == 0) {
          way = w;  // prefer an invalid way
        } else if ((line[way] & kValid) != 0 && stamp[w] < stamp[way]) {
          way = w;
        }
      }
      if (hit) {
        ++hits;
      } else {
        dirty += (line[way] & kDirty) >> 1;
        line[way] = want;
      }
      line[way] |= dirty_bit;
      stamp[way] = ++tick_;
    }
  }
  const std::uint64_t clean = blocks - hits - dirty;
  const std::uint64_t misses = clean + dirty;
  stats_.accesses += blocks;
  stats_.hits += hits;
  stats_.clean_misses += clean;
  stats_.dirty_misses += dirty;

  // Traffic.  Every block-level access touches DRAM (the cache).  Misses
  // fill from NVRAM (write-allocate: reads *and* writes fill).  Dirty
  // victims are read from DRAM and written back to NVRAM.
  const std::uint64_t access_bytes = blocks * bs;
  const std::uint64_t fill_bytes = misses * bs;
  const std::uint64_t wb_bytes = dirty * bs;

  if (write) {
    counters_.record_write(fast_, access_bytes);
  } else {
    counters_.record_read(fast_, access_bytes);
  }
  if (fill_bytes > 0) {
    counters_.record_read(slow_, fill_bytes);
    counters_.record_write(fast_, fill_bytes);
  }
  if (wb_bytes > 0) {
    counters_.record_read(fast_, wb_bytes);
    counters_.record_write(slow_, wb_bytes);
  }

  return static_cast<double>(access_bytes) / dram_bw_ +
         static_cast<double>(fill_bytes) *
             (1.0 / nvram_fill_bw_ + 1.0 / dram_bw_) +
         static_cast<double>(wb_bytes) *
             (1.0 / nvram_writeback_bw_ + 1.0 / dram_bw_);
}

void DirectMappedCache::flush() {
  std::fill(lines_.begin(), lines_.end(), 0u);
}

}  // namespace ca::twolm
