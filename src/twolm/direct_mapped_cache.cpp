#include "twolm/direct_mapped_cache.hpp"

#include <algorithm>
#include <iterator>

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
  if (config_.ways > 1) {
    lines_.assign(blocks, 0);
    stamps_.assign(blocks, 0);
  }
  flush();

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
      walk_runs(set, run, want, dirty_bit, hits, dirty);
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

DirectMappedCache::RunMap::iterator DirectMappedCache::split(
    std::size_t set) {
  if (set == sets_) return runs_.end();
  auto it = std::prev(runs_.upper_bound(set));
  if (it->first == set) return it;
  const Run tail = it->second;
  it->second.end = set;
  return runs_.emplace_hint(std::next(it), set, tail);
}

void DirectMappedCache::walk_runs(std::size_t set, std::size_t len,
                                  std::uint32_t want, std::uint32_t dirty_bit,
                                  std::uint64_t& hits, std::uint64_t& dirty) {
  const auto begin = split(set);
  const auto stop = split(set + len);
  // Every set of a run holds the same word, so one run is one outcome.
  for (auto it = begin; it != stop; ++it) {
    Run& r = it->second;
    const std::size_t n = r.end - it->first;
    if ((r.word & ~kDirty) == want) {
      hits += n;
      r.word |= dirty_bit;
    } else {
      dirty += (r.word & kDirty) != 0 ? n : 0;  // misses on dirty lines
      r.word = want | dirty_bit;
    }
  }
  // Merge equal neighbours, from the run before the range through `stop`.
  auto it = begin == runs_.begin() ? begin : std::prev(begin);
  for (auto next = std::next(it); next != runs_.end(); next = std::next(it)) {
    const bool last = next == stop;
    if (next->second.word == it->second.word) {
      it->second.end = next->second.end;
      runs_.erase(next);
    } else {
      it = next;
    }
    if (last) break;
  }
}

void DirectMappedCache::flush() {
  std::fill(lines_.begin(), lines_.end(), 0u);
  if (config_.ways == 1) runs_ = {{0, Run{sets_, 0}}};
}

}  // namespace ca::twolm
