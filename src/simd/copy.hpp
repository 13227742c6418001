// Dispatched bulk copy / fill kernels with an explicit non-temporal path.
//
// The paper calls non-temporal stores "crucial for best performance" for
// NVRAM-bound writes (PAPER.md SV-d) and the bandwidth model already
// charges the NT curve for them; this family makes the real copy path
// earn that treatment.  Two regimes:
//
//   temporal   std::memcpy / std::memset.  On ERMS hardware glibc lowers
//              this to `rep movsb`, which is the right choice when the
//              destination is about to be read (the cache lines are wanted).
//   writeback  AVX2/AVX-512 unaligned loads + _mm*_stream NT stores with a
//              trailing sfence.  Used for large copies whose destination
//              will NOT be re-read soon (CopyEngine writebacks toward the
//              slow device) so the streamed lines bypass the cache instead
//              of evicting the working set.
//
// The NT path engages only when the caller passes CopyHint::kWriteback,
// the size clears kNtThreshold (below it the sfence + alignment overhead
// beats any bypass win), and the active dispatch level has NT kernels.
// CA_ISA=scalar therefore degrades every call to plain memcpy/memset.
//
// Callers outside src/simd must keep funneling through util::copy_bytes /
// util::fill_zero (race-hook instrumented); ca_lint enforces both the
// byte-copy route and the intrinsics confinement to this directory.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/isa.hpp"

namespace ca::simd {

/// What the destination's near future looks like.
enum class CopyHint {
  kTemporal,   ///< destination will be read soon; keep lines in cache
  kWriteback,  ///< destination is cold (slow-tier writeback); stream past
};

/// Minimum size for the NT path.  Below this the cache lines displaced by
/// a temporal copy are cheaper than the mandatory sfence and the loss of
/// ERMS's small-copy fast path.
inline constexpr std::size_t kNtThreshold = std::size_t{256} * 1024;

/// Copy `n` non-overlapping bytes.  Returns the number of bytes actually
/// issued as NT stores (0 on the temporal path), which also accrues to the
/// process-wide nt_store_bytes() counter.
std::size_t copy_bytes(void* dst, const void* src, std::size_t n,
                       CopyHint hint = CopyHint::kTemporal);

/// Zero `n` bytes.  Same NT contract as copy_bytes.
std::size_t fill_zero(void* dst, std::size_t n,
                      CopyHint hint = CopyHint::kTemporal);

/// Deterministic model of the NT byte count of a copy/fill of `n` bytes
/// under `hint`: `n` when the hint is kWriteback and `n` clears
/// kNtThreshold, else 0.  It follows the timing model, which charges the
/// NT write curve whatever the host's dispatch level, so it depends on
/// neither pointer values nor the ISA.  The real kernels stream at most
/// this: less by the unaligned head and tail, and nothing at a level
/// without NT kernels.
std::size_t nt_bytes_for(std::size_t n, CopyHint hint) noexcept;

/// Process-wide count of bytes actually issued as NT stores.  Telemetry
/// only (relaxed accumulation); monotone non-decreasing.
std::uint64_t nt_store_bytes() noexcept;

}  // namespace ca::simd
