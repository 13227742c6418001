// Runtime ISA dispatch: level parsing, clamping, tile shapes, and the
// consistency contract between max_supported_level() and the providers.
#include <gtest/gtest.h>

#include <cstddef>

#include "simd/copy.hpp"
#include "simd/gemm_kernel.hpp"
#include "simd/isa.hpp"

namespace ca::simd {
namespace {

// Every test that forces a level restores the entry level, so suite order
// never leaks a forced level into later suites in the same binary.
class IsaDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_ = active_level(); }
  void TearDown() override { set_level(entry_); }

 private:
  IsaLevel entry_ = IsaLevel::kScalar;
};

TEST_F(IsaDispatchTest, LevelNamesRoundTripThroughParse) {
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    IsaLevel parsed = IsaLevel::kScalar;
    ASSERT_TRUE(parse_level(level_name(level), &parsed)) << level_name(level);
    EXPECT_EQ(parsed, level);
  }
}

TEST_F(IsaDispatchTest, ParseNativeResolvesToMaxSupported) {
  IsaLevel parsed = IsaLevel::kScalar;
  ASSERT_TRUE(parse_level("native", &parsed));
  EXPECT_EQ(parsed, max_supported_level());
}

TEST_F(IsaDispatchTest, ParseRejectsGarbageAndLeavesOutputUntouched) {
  IsaLevel parsed = IsaLevel::kAvx2;
  EXPECT_FALSE(parse_level("", &parsed));
  EXPECT_FALSE(parse_level("sse2", &parsed));
  EXPECT_FALSE(parse_level("AVX2", &parsed));  // spellings are lowercase
  EXPECT_FALSE(parse_level("avx1024", &parsed));
  EXPECT_FALSE(parse_level(nullptr, &parsed));
  EXPECT_EQ(parsed, IsaLevel::kAvx2);
}

TEST_F(IsaDispatchTest, SetLevelScalarAlwaysHonored) {
  EXPECT_TRUE(set_level(IsaLevel::kScalar));
  EXPECT_EQ(active_level(), IsaLevel::kScalar);
}

TEST_F(IsaDispatchTest, SetLevelClampsAboveMaxSupported) {
  const IsaLevel max = max_supported_level();
  if (max == IsaLevel::kAvx512) {
    GTEST_SKIP() << "host supports every level; nothing to clamp";
  }
  const IsaLevel above =
      max == IsaLevel::kScalar ? IsaLevel::kAvx2 : IsaLevel::kAvx512;
  EXPECT_FALSE(set_level(above));  // clamped => not honored exactly
  EXPECT_EQ(active_level(), max);
}

TEST_F(IsaDispatchTest, SetLevelAtOrBelowMaxIsExact) {
  for (int l = 0; l <= static_cast<int>(max_supported_level()); ++l) {
    const auto level = static_cast<IsaLevel>(l);
    EXPECT_TRUE(set_level(level)) << level_name(level);
    EXPECT_EQ(active_level(), level);
  }
}

TEST_F(IsaDispatchTest, GemmTileShapesMatchTheDesignDoc) {
  // DESIGN.md §3.4: scalar 4x8, AVX2 6x16, AVX-512 8x32.  Every tile must
  // divide the shared blocking (kMC=96 by mr, kNC=1024 by nr) so the pack
  // routines stay tile-agnostic.
  const GemmTile& scalar = gemm_tile(IsaLevel::kScalar);
  EXPECT_EQ(scalar.mr, 4u);
  EXPECT_EQ(scalar.nr, 8u);
  ASSERT_NE(scalar.kernel, nullptr);

  for (int l = 0; l <= static_cast<int>(max_supported_level()); ++l) {
    const GemmTile& tile = gemm_tile(static_cast<IsaLevel>(l));
    ASSERT_NE(tile.kernel, nullptr);
    EXPECT_EQ(96u % tile.mr, 0u);
    EXPECT_EQ(1024u % tile.nr, 0u);
    if (static_cast<IsaLevel>(l) == IsaLevel::kAvx2) {
      EXPECT_EQ(tile.mr, 6u);
      EXPECT_EQ(tile.nr, 16u);
    }
    if (static_cast<IsaLevel>(l) == IsaLevel::kAvx512) {
      EXPECT_EQ(tile.mr, 8u);
      EXPECT_EQ(tile.nr, 32u);
    }
  }
}

TEST_F(IsaDispatchTest, GemmTileAboveMaxFallsBackToAProvidedTile) {
  // Asking for a tile the binary/CPU cannot run must degrade, not crash.
  const GemmTile& tile = gemm_tile(IsaLevel::kAvx512);
  ASSERT_NE(tile.kernel, nullptr);
  const GemmTile& supported = gemm_tile(max_supported_level());
  EXPECT_EQ(tile.kernel, supported.kernel);
}

TEST_F(IsaDispatchTest, NtBytesModelMatchesTheGatingRules) {
  const std::size_t big = kNtThreshold;
  // kWriteback at or above the threshold models every byte as streamed,
  // anything else none -- at every dispatch level, scalar included (a
  // level the host cannot run clamps; the model must not care).
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    set_level(level);
    EXPECT_EQ(nt_bytes_for(big, CopyHint::kWriteback), big);
    EXPECT_EQ(nt_bytes_for(big + 1, CopyHint::kWriteback), big + 1);
    EXPECT_EQ(nt_bytes_for(big - 1, CopyHint::kWriteback), 0u);
    EXPECT_EQ(nt_bytes_for(big, CopyHint::kTemporal), 0u);
    EXPECT_EQ(nt_bytes_for(0, CopyHint::kWriteback), 0u);
  }
}

}  // namespace
}  // namespace ca::simd
