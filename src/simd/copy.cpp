#include "simd/copy.hpp"

#include <atomic>
#include <cstring>

#include "simd/copy_ops.hpp"

namespace ca::simd {

namespace {

/// Plain std::atomic: telemetry accumulation, never a synchronization
/// edge, and must not become a CA_RACE schedule point.
std::atomic<std::uint64_t> g_nt_bytes{0};

/// NT kernels of the active level, or nullptr at kScalar.  active_level()
/// never exceeds max_supported_level(), which requires the level's
/// provider, so the kernels returned are always runnable here.
const CopyOps* active_ops() noexcept {
  switch (active_level()) {
    case IsaLevel::kAvx512: return copy_ops_avx512();
    case IsaLevel::kAvx2: return copy_ops_avx2();
    case IsaLevel::kScalar: break;
  }
  return nullptr;
}

}  // namespace

std::size_t copy_bytes(void* dst, const void* src, std::size_t n,
                       CopyHint hint) {
  if (n == 0) return 0;
  if (hint == CopyHint::kWriteback && n >= kNtThreshold) {
    if (const CopyOps* ops = active_ops()) {
      const std::size_t streamed = ops->copy_nt(dst, src, n);
      g_nt_bytes.fetch_add(streamed, std::memory_order_relaxed);
      return streamed;
    }
  }
  std::memcpy(dst, src, n);
  return 0;
}

std::size_t fill_zero(void* dst, std::size_t n, CopyHint hint) {
  if (n == 0) return 0;
  if (hint == CopyHint::kWriteback && n >= kNtThreshold) {
    if (const CopyOps* ops = active_ops()) {
      const std::size_t streamed = ops->fill_nt(dst, n);
      g_nt_bytes.fetch_add(streamed, std::memory_order_relaxed);
      return streamed;
    }
  }
  std::memset(dst, 0, n);
  return 0;
}

std::size_t nt_bytes_for(std::size_t n, CopyHint hint) noexcept {
  return hint == CopyHint::kWriteback && n >= kNtThreshold ? n : 0;
}

std::uint64_t nt_store_bytes() noexcept {
  return g_nt_bytes.load(std::memory_order_relaxed);
}

}  // namespace ca::simd
