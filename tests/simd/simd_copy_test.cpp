// Byte-exactness and accounting for the dispatched copy/fill family.
//
// The NT kernels split every call into memcpy head / streamed body /
// memcpy tail, so the dangerous inputs are the ones that make those seams
// move: misaligned sources and destinations (independently), sizes just
// around the vector width, and sizes straddling kNtThreshold.  Every
// combination must produce bytes identical to memcpy/memset, never touch a
// byte outside [dst, dst+n), and report streamed bytes consistently with
// nt_store_bytes().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "simd/copy.hpp"
#include "simd/isa.hpp"
#include "util/rng.hpp"

namespace ca::simd {
namespace {

constexpr unsigned char kGuard = 0xC7;

class SimdCopyTest : public ::testing::TestWithParam<IsaLevel> {
 protected:
  void SetUp() override {
    entry_ = active_level();
    if (GetParam() > max_supported_level()) {
      GTEST_SKIP() << "host does not support " << level_name(GetParam());
    }
    ASSERT_TRUE(set_level(GetParam()));
  }
  void TearDown() override { set_level(entry_); }

 private:
  IsaLevel entry_ = IsaLevel::kScalar;
};

// Exhaustive seam sweep: src offset x dst offset x size, with guard bytes
// on both sides of the destination window.
TEST_P(SimdCopyTest, CopyBytesExactAtEverySeam) {
  const std::size_t kPad = 128;
  const std::size_t sizes[] = {0,   1,   2,    31,   32,  33,
                               63,  64,  65,   127,  128, 129,
                               255, 256, 4095, 4096, 8191};
  const std::size_t offs[] = {0, 1, 7, 8, 31, 32, 33, 63};

  const std::size_t max_sz = 8191;
  std::vector<unsigned char> src(max_sz + kPad), dst(max_sz + 2 * kPad),
      ref(max_sz + 2 * kPad);
  ca::util::Xoshiro256 rng(42);
  for (auto& x : src) x = static_cast<unsigned char>(rng());

  for (const std::size_t sz : sizes) {
    for (const std::size_t soff : offs) {
      for (const std::size_t doff : offs) {
        std::fill(dst.begin(), dst.end(), kGuard);
        std::fill(ref.begin(), ref.end(), kGuard);
        const std::size_t nt = copy_bytes(dst.data() + kPad + doff,
                                          src.data() + soff, sz,
                                          CopyHint::kWriteback);
        std::memcpy(ref.data() + kPad + doff, src.data() + soff, sz);
        ASSERT_EQ(dst, ref) << "size=" << sz << " soff=" << soff
                            << " doff=" << doff;
        EXPECT_EQ(nt, 0u) << "sub-threshold sizes must stay temporal";
      }
    }
  }
}

TEST_P(SimdCopyTest, FillZeroExactAtEverySeam) {
  const std::size_t kPad = 128;
  const std::size_t sizes[] = {0, 1, 31, 32, 63, 64, 65, 255, 4096, 8191};
  const std::size_t offs[] = {0, 1, 7, 31, 32, 63};
  std::vector<unsigned char> dst(8191 + 2 * kPad), ref(8191 + 2 * kPad);
  for (const std::size_t sz : sizes) {
    for (const std::size_t doff : offs) {
      std::fill(dst.begin(), dst.end(), kGuard);
      std::fill(ref.begin(), ref.end(), kGuard);
      const std::size_t nt =
          fill_zero(dst.data() + kPad + doff, sz, CopyHint::kWriteback);
      std::memset(ref.data() + kPad + doff, 0, sz);
      ASSERT_EQ(dst, ref) << "size=" << sz << " doff=" << doff;
      EXPECT_EQ(nt, 0u);
    }
  }
}

// Above-threshold copies: exact bytes, and the returned streamed count
// matches the gating rules and accrues to the process-wide counter.
TEST_P(SimdCopyTest, AboveThresholdStreamsAndAccounts) {
  const std::size_t kPad = 128;
  const std::size_t sz = kNtThreshold + 12345;
  std::vector<unsigned char> src(sz + kPad), dst(sz + 2 * kPad),
      ref(sz + 2 * kPad);
  ca::util::Xoshiro256 rng(43);
  for (auto& x : src) x = static_cast<unsigned char>(rng());

  for (const std::size_t soff : {std::size_t{0}, std::size_t{3}}) {
    for (const std::size_t doff : {std::size_t{0}, std::size_t{61}}) {
      std::fill(dst.begin(), dst.end(), kGuard);
      std::fill(ref.begin(), ref.end(), kGuard);
      const std::uint64_t before = nt_store_bytes();
      const std::size_t nt = copy_bytes(dst.data() + kPad + doff,
                                        src.data() + soff, sz,
                                        CopyHint::kWriteback);
      std::memcpy(ref.data() + kPad + doff, src.data() + soff, sz);
      ASSERT_EQ(dst, ref) << "soff=" << soff << " doff=" << doff;
      EXPECT_EQ(nt_store_bytes() - before, nt);
      if (GetParam() == IsaLevel::kScalar) {
        EXPECT_EQ(nt, 0u);
      } else {
        // The streamed body skips at most an alignment head and a partial
        // tail; the bulk of the copy must actually stream.
        EXPECT_GT(nt, sz - 128);
        EXPECT_LE(nt, sz);
      }
    }
  }

  // Temporal hint never streams, whatever the size.
  const std::size_t nt =
      copy_bytes(dst.data() + kPad, src.data(), sz, CopyHint::kTemporal);
  EXPECT_EQ(nt, 0u);

  // And the fill twin.
  std::fill(dst.begin(), dst.end(), kGuard);
  std::fill(ref.begin(), ref.end(), kGuard);
  const std::size_t ntf =
      fill_zero(dst.data() + kPad + 5, sz, CopyHint::kWriteback);
  std::memset(ref.data() + kPad + 5, 0, sz);
  ASSERT_EQ(dst, ref);
  if (GetParam() == IsaLevel::kScalar) {
    EXPECT_EQ(ntf, 0u);
  } else {
    EXPECT_GT(ntf, sz - 128);
    EXPECT_LE(ntf, sz);
  }
}

// The deterministic model bounds reality: it models every byte of a large
// writeback at every level, and the real call streams at most that -- a
// nonzero count exactly when the level has NT kernels.
TEST_P(SimdCopyTest, ModelAgreesWithRealStreamingDecision) {
  const std::size_t sz = kNtThreshold + 777;
  std::vector<unsigned char> src(sz), dst(sz);
  ca::util::Xoshiro256 rng(44);
  for (auto& x : src) x = static_cast<unsigned char>(rng());

  const std::size_t modeled = nt_bytes_for(sz, CopyHint::kWriteback);
  const std::size_t real =
      copy_bytes(dst.data(), src.data(), sz, CopyHint::kWriteback);
  EXPECT_EQ(modeled, sz);
  EXPECT_LE(real, modeled);
  EXPECT_EQ(real != 0, GetParam() != IsaLevel::kScalar);
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, SimdCopyTest,
    ::testing::Values(IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512),
    [](const ::testing::TestParamInfo<IsaLevel>& info) {
      return level_name(info.param);
    });

}  // namespace
}  // namespace ca::simd
