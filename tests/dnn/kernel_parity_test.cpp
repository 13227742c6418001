// Fast-tier vs reference-tier kernel parity (the contract in DESIGN.md
// §"Compute kernels"): the blocked-GEMM/im2col/pool-parallel kernels must
// agree with the scalar seed kernels within 1e-4 relative tolerance on
// every shape class that stresses a blocking or padding edge -- stride > 1,
// padded borders, 1x1 convolutions, non-square inputs, channel counts not
// divisible by the register tile, and batch = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dnn/gemm.hpp"
#include "dnn/harness.hpp"
#include "dnn/models.hpp"
#include "dnn/ops_real.hpp"
#include "dnn/scratch.hpp"
#include "dnn/trainer.hpp"
#include "simd/copy.hpp"
#include "simd/gemm_kernel.hpp"
#include "simd/isa.hpp"
#include "telemetry/counters.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace ca::dnn::real {
namespace {

constexpr float kRelTol = 1e-4f;

std::vector<float> randn(std::size_t n, std::uint64_t seed) {
  ca::util::Xoshiro256 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = kRelTol * std::max(1.0f, std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " at index " << i;
  }
}

// Shapes chosen to hit every fast-path edge: see file comment.
const ConvDims kConvShapes[] = {
    // n  cin  h   w  cout k  stride pad
    {1, 3, 8, 8, 5, 3, 1, 1},    // batch=1, odd channel counts
    {2, 4, 9, 7, 6, 3, 2, 1},    // stride 2, non-square, odd spatial dims
    {3, 7, 10, 6, 5, 1, 1, 0},   // 1x1 (identity-col fast path)
    {2, 5, 6, 6, 9, 5, 1, 2},    // 5x5 kernel, wide padding
    {1, 2, 11, 5, 3, 3, 2, 0},   // stride 2, no padding, batch=1
    {4, 6, 8, 8, 17, 3, 1, 1},   // cout=17: fringe of the 6x16 GEMM tile
    {5, 3, 4, 4, 4, 3, 1, 1},    // batch > pool images-per-thread
};

class KernelParityTest : public ::testing::Test {
 protected:
  KernelCtx fast() { return {&pool_, &scratch_, &counters_, false}; }
  KernelCtx reference() { return {&pool_, &scratch_, &counters_, true}; }

  util::ThreadPool pool_{8};
  ScratchPool scratch_;
  telemetry::KernelCounters counters_;
};

TEST_F(KernelParityTest, GemmMatchesNaiveAcrossTransposesAndFringes) {
  struct Case {
    std::size_t m, n, k;
    float alpha, beta;
  };
  const Case cases[] = {
      {1, 1, 1, 1.0f, 0.0f},      {5, 17, 3, 1.0f, 0.0f},
      {6, 16, 256, 1.0f, 0.0f},   {37, 53, 29, 2.0f, 0.5f},
      {64, 128, 96, 1.0f, 1.0f},  {96, 1040, 13, 1.0f, 0.0f},
      {13, 7, 300, -1.0f, 2.0f},
  };
  for (const auto& c : cases) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const auto a = randn(c.m * c.k, 1);
        const auto b = randn(c.k * c.n, 2);
        const auto c0 = randn(c.m * c.n, 3);
        const std::size_t lda = ta ? c.m : c.k;
        const std::size_t ldb = tb ? c.k : c.n;

        // Naive oracle.
        std::vector<float> want(c0);
        for (std::size_t i = 0; i < c.m; ++i) {
          for (std::size_t j = 0; j < c.n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < c.k; ++p) {
              const float av = ta ? a[p * lda + i] : a[i * lda + p];
              const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
              acc += static_cast<double>(av) * bv;
            }
            want[i * c.n + j] = c.alpha * static_cast<float>(acc) +
                                c.beta * c0[i * c.n + j];
          }
        }

        std::vector<float> got(c0);
        gemm(fast(), ta, tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(),
             ldb, c.beta, got.data(), c.n);
        expect_close(got, want, "gemm");
      }
    }
  }
}

// Serial-path fringes with n % kNR != 0 and k >= kKC, run against exact-
// sized leases: a null ctx owns a fresh local ScratchPool, so every acquire
// is exact and ASan sees any pack_b write past the padded panel width.  (The
// fixture's shared pool recycles oversized buffers LIFO, which can hide an
// overflow in the slack of an earlier, larger lease.)
TEST_F(KernelParityTest, GemmSerialFringeExactLeases) {
  struct Case {
    std::size_t m, n, k;
  };
  // n = 7: 8 * ceil(7/8) * kc > kc * 7, the width pack_b actually writes.
  // k = 300 > kKC exercises the multi-pc loop; k = 256 the exact boundary.
  for (const auto& c : {Case{13, 7, 300}, Case{4, 3, 256}, Case{97, 15, 257}}) {
    // Fringe at whatever tile the dispatcher picked (8/16/32 wide).
    ASSERT_NE(c.n % simd::gemm_tile(simd::active_level()).nr, 0u);
    ASSERT_GE(c.k, kGemmKC);
    const auto a = randn(c.m * c.k, 6);
    const auto b = randn(c.k * c.n, 7);
    std::vector<float> want(c.m * c.n, 0.0f), got(c.m * c.n, 0.0f);
    gemm(fast(), false, false, c.m, c.n, c.k, 1.0f, a.data(), c.k, b.data(),
         c.n, 0.0f, want.data(), c.n);
    gemm(KernelCtx{}, false, false, c.m, c.n, c.k, 1.0f, a.data(), c.k,
         b.data(), c.n, 0.0f, got.data(), c.n);
    expect_close(got, want, "gemm serial fringe");
  }
}

TEST_F(KernelParityTest, GemmSerialFallbackWithoutPoolOrScratch) {
  const std::size_t m = 23, n = 41, k = 57;
  const auto a = randn(m * k, 4);
  const auto b = randn(k * n, 5);
  std::vector<float> want(m * n), got(m * n);
  gemm(fast(), false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
       want.data(), n);
  gemm(KernelCtx{}, false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
       0.0f, got.data(), n);
  expect_close(got, want, "gemm null-ctx");
}

TEST_F(KernelParityTest, Conv2dForward) {
  for (const auto& d : kConvShapes) {
    const auto x = randn(d.n * d.cin * d.h * d.w, 10);
    const auto w = randn(d.cout * d.cin * d.k * d.k, 11);
    const auto b = randn(d.cout, 12);
    const std::size_t ysz = d.n * d.cout * d.hout() * d.wout();
    std::vector<float> want(ysz), got(ysz);
    conv2d_fwd(x.data(), w.data(), b.data(), want.data(), d);
    conv2d_fwd(fast(), x.data(), w.data(), b.data(), got.data(), d);
    expect_close(got, want, "conv2d_fwd");
  }
  EXPECT_GT(counters_.gemm_calls, 0u);
}

TEST_F(KernelParityTest, Conv2dForwardNullBias) {
  const ConvDims d = kConvShapes[1];
  const auto x = randn(d.n * d.cin * d.h * d.w, 13);
  const auto w = randn(d.cout * d.cin * d.k * d.k, 14);
  const std::size_t ysz = d.n * d.cout * d.hout() * d.wout();
  std::vector<float> want(ysz), got(ysz);
  conv2d_fwd(x.data(), w.data(), nullptr, want.data(), d);
  conv2d_fwd(fast(), x.data(), w.data(), nullptr, got.data(), d);
  expect_close(got, want, "conv2d_fwd nobias");
}

TEST_F(KernelParityTest, Conv2dBackwardData) {
  for (const auto& d : kConvShapes) {
    const auto w = randn(d.cout * d.cin * d.k * d.k, 20);
    const auto gy = randn(d.n * d.cout * d.hout() * d.wout(), 21);
    const std::size_t xsz = d.n * d.cin * d.h * d.w;
    std::vector<float> want(xsz), got(xsz);
    conv2d_bwd_data(w.data(), gy.data(), want.data(), d);
    conv2d_bwd_data(fast(), w.data(), gy.data(), got.data(), d);
    expect_close(got, want, "conv2d_bwd_data");
  }
}

TEST_F(KernelParityTest, Conv2dBackwardWeights) {
  for (const auto& d : kConvShapes) {
    const auto x = randn(d.n * d.cin * d.h * d.w, 30);
    const auto gy = randn(d.n * d.cout * d.hout() * d.wout(), 31);
    const std::size_t wsz = d.cout * d.cin * d.k * d.k;
    std::vector<float> want(wsz), got(wsz);
    conv2d_bwd_weights(x.data(), gy.data(), want.data(), d);
    conv2d_bwd_weights(fast(), x.data(), gy.data(), got.data(), d);
    expect_close(got, want, "conv2d_bwd_weights");
  }
}

TEST_F(KernelParityTest, Conv2dBackwardBias) {
  for (const auto& d : kConvShapes) {
    const auto gy = randn(d.n * d.cout * d.hout() * d.wout(), 40);
    std::vector<float> want(d.cout), got(d.cout);
    conv2d_bwd_bias(gy.data(), want.data(), d);
    conv2d_bwd_bias(fast(), gy.data(), got.data(), d);
    expect_close(got, want, "conv2d_bwd_bias");
  }
}

TEST_F(KernelParityTest, DenseAllPasses) {
  struct Case {
    std::size_t n, in, out;
  };
  // batch=1, fringe sizes, and a shape large enough to go wide.
  for (const auto& c : {Case{1, 7, 5}, Case{9, 33, 17}, Case{64, 96, 200}}) {
    const auto x = randn(c.n * c.in, 50);
    const auto w = randn(c.out * c.in, 51);
    const auto b = randn(c.out, 52);
    const auto gy = randn(c.n * c.out, 53);

    std::vector<float> want(c.n * c.out), got(c.n * c.out);
    dense_fwd(x.data(), w.data(), b.data(), want.data(), c.n, c.in, c.out);
    dense_fwd(fast(), x.data(), w.data(), b.data(), got.data(), c.n, c.in,
              c.out);
    expect_close(got, want, "dense_fwd");

    std::vector<float> wantx(c.n * c.in), gotx(c.n * c.in);
    dense_bwd_data(w.data(), gy.data(), wantx.data(), c.n, c.in, c.out);
    dense_bwd_data(fast(), w.data(), gy.data(), gotx.data(), c.n, c.in,
                   c.out);
    expect_close(gotx, wantx, "dense_bwd_data");

    std::vector<float> wantw(c.out * c.in), gotw(c.out * c.in);
    dense_bwd_weights(x.data(), gy.data(), wantw.data(), c.n, c.in, c.out);
    dense_bwd_weights(fast(), x.data(), gy.data(), gotw.data(), c.n, c.in,
                      c.out);
    expect_close(gotw, wantw, "dense_bwd_weights");

    std::vector<float> wantb(c.out), gotb(c.out);
    dense_bwd_bias(gy.data(), wantb.data(), c.n, c.out);
    dense_bwd_bias(fast(), gy.data(), gotb.data(), c.n, c.out);
    expect_close(gotb, wantb, "dense_bwd_bias");
  }
}

TEST_F(KernelParityTest, ElementwisePoolAndNormFamily) {
  // Large enough that the grain heuristic actually goes wide (> 4096).
  const std::size_t n = 3, c = 5, h = 20, w = 18;
  const std::size_t total = n * c * h * w;
  const auto x = randn(total, 60);
  const auto gy = randn(total, 61);

  {
    std::vector<float> want(total), got(total);
    relu_fwd(x.data(), want.data(), total);
    relu_fwd(fast(), x.data(), got.data(), total);
    expect_close(got, want, "relu_fwd");
    relu_bwd(x.data(), gy.data(), want.data(), total);
    relu_bwd(fast(), x.data(), gy.data(), got.data(), total);
    expect_close(got, want, "relu_bwd");
  }
  {
    std::vector<float> want(total), got(total);
    add_fwd(x.data(), gy.data(), want.data(), total);
    add_fwd(fast(), x.data(), gy.data(), got.data(), total);
    expect_close(got, want, "add_fwd");
  }
  {
    const std::size_t osz = total / 4;
    std::vector<float> want(osz), got(osz);
    maxpool2_fwd(x.data(), want.data(), n, c, h, w);
    maxpool2_fwd(fast(), x.data(), got.data(), n, c, h, w);
    expect_close(got, want, "maxpool2_fwd");
    const auto gyo = randn(osz, 62);
    std::vector<float> wantx(total), gotx(total);
    maxpool2_bwd(x.data(), gyo.data(), wantx.data(), n, c, h, w);
    maxpool2_bwd(fast(), x.data(), gyo.data(), gotx.data(), n, c, h, w);
    expect_close(gotx, wantx, "maxpool2_bwd");
  }
  {
    std::vector<float> want(n * c), got(n * c);
    global_avgpool_fwd(x.data(), want.data(), n, c, h, w);
    global_avgpool_fwd(fast(), x.data(), got.data(), n, c, h, w);
    expect_close(got, want, "global_avgpool_fwd");
    const auto g2 = randn(n * c, 63);
    std::vector<float> wantx(total), gotx(total);
    global_avgpool_bwd(g2.data(), wantx.data(), n, c, h, w);
    global_avgpool_bwd(fast(), g2.data(), gotx.data(), n, c, h, w);
    expect_close(gotx, wantx, "global_avgpool_bwd");
  }
  {
    // Batchnorm is bit-identical by construction (shared per-channel body).
    const auto gamma = randn(c, 64);
    const auto beta = randn(c, 65);
    std::vector<float> want(total), got(total), wm(c), wi(c), gm(c), gi(c);
    batchnorm_fwd(x.data(), gamma.data(), beta.data(), want.data(), wm.data(),
                  wi.data(), n, c, h, w, 1e-5f);
    batchnorm_fwd(fast(), x.data(), gamma.data(), beta.data(), got.data(),
                  gm.data(), gi.data(), n, c, h, w, 1e-5f);
    EXPECT_EQ(want, got);
    EXPECT_EQ(wm, gm);
    EXPECT_EQ(wi, gi);
    std::vector<float> wantx(total), gotx(total), wgg(c), wgb(c), ggg(c),
        ggb(c);
    batchnorm_bwd(x.data(), gamma.data(), wm.data(), wi.data(), gy.data(),
                  wantx.data(), wgg.data(), wgb.data(), n, c, h, w);
    batchnorm_bwd(fast(), x.data(), gamma.data(), wm.data(), wi.data(),
                  gy.data(), gotx.data(), ggg.data(), ggb.data(), n, c, h, w);
    EXPECT_EQ(wantx, gotx);
    EXPECT_EQ(wgg, ggg);
    EXPECT_EQ(wgb, ggb);
  }
  {
    const std::size_t batch = 40, classes = 129;
    const auto logits = randn(batch * classes, 66);
    std::vector<float> labels(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      labels[i] = static_cast<float>(i % classes);
    }
    std::vector<float> wantp(batch * classes), gotp(batch * classes);
    const float wl = softmax_ce_fwd(logits.data(), labels.data(),
                                    wantp.data(), batch, classes);
    const float gl = softmax_ce_fwd(fast(), logits.data(), labels.data(),
                                    gotp.data(), batch, classes);
    EXPECT_EQ(wl, gl);
    EXPECT_EQ(wantp, gotp);
    std::vector<float> wantg(batch * classes), gotg(batch * classes);
    softmax_ce_bwd(wantp.data(), labels.data(), wantg.data(), batch,
                   classes);
    softmax_ce_bwd(fast(), gotp.data(), labels.data(), gotg.data(), batch,
                   classes);
    expect_close(gotg, wantg, "softmax_ce_bwd");
  }
  EXPECT_GT(counters_.eltwise_calls, 0u);
}

TEST_F(KernelParityTest, CopyFamilyAndOptimizer) {
  const std::size_t n = 3, ca = 5, cb = 7, h = 16, w = 16;
  const std::size_t hw = h * w;
  const auto a = randn(n * ca * hw, 70);
  const auto b = randn(n * cb * hw, 71);
  {
    std::vector<float> want(n * (ca + cb) * hw), got(want.size());
    concat_fwd(a.data(), b.data(), want.data(), n, ca, cb, h, w);
    concat_fwd(fast(), a.data(), b.data(), got.data(), n, ca, cb, h, w);
    EXPECT_EQ(want, got);
    std::vector<float> wa(n * ca * hw), wb(n * cb * hw), ga(wa.size()),
        gb(wb.size());
    concat_bwd(want.data(), wa.data(), wb.data(), n, ca, cb, h, w);
    concat_bwd(fast(), got.data(), ga.data(), gb.data(), n, ca, cb, h, w);
    EXPECT_EQ(wa, ga);
    EXPECT_EQ(wb, gb);
  }
  {
    const std::size_t rows = 50, dim = 32, batch = 600;
    const auto table = randn(rows * dim, 72);
    std::vector<float> idx(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      idx[i] = static_cast<float>((i * 7) % rows);
    }
    std::vector<float> want(batch * dim), got(batch * dim);
    embedding_gather(table.data(), idx.data(), want.data(), batch, dim);
    embedding_gather(fast(), table.data(), idx.data(), got.data(), batch,
                     dim);
    EXPECT_EQ(want, got);
  }
  {
    const std::size_t total = 20000;
    const auto g = randn(total, 73);
    auto want = randn(total, 74);
    auto got = want;
    sgd_update(want.data(), g.data(), 0.05f, total);
    sgd_update(fast(), got.data(), g.data(), 0.05f, total);
    EXPECT_EQ(want, got);
    accumulate(want.data(), g.data(), total);
    accumulate(fast(), got.data(), g.data(), total);
    EXPECT_EQ(want, got);
  }
}

TEST_F(KernelParityTest, ReferenceCtxRoutesToScalarBitwise) {
  const ConvDims d = kConvShapes[3];
  const auto x = randn(d.n * d.cin * d.h * d.w, 80);
  const auto w = randn(d.cout * d.cin * d.k * d.k, 81);
  const auto b = randn(d.cout, 82);
  const std::size_t ysz = d.n * d.cout * d.hout() * d.wout();
  std::vector<float> want(ysz), got(ysz);
  conv2d_fwd(x.data(), w.data(), b.data(), want.data(), d);
  conv2d_fwd(reference(), x.data(), w.data(), b.data(), got.data(), d);
  EXPECT_EQ(want, got);
}

TEST_F(KernelParityTest, CountersAccumulateAcrossTiers) {
  const ConvDims d = kConvShapes[5];
  const auto x = randn(d.n * d.cin * d.h * d.w, 90);
  const auto w = randn(d.cout * d.cin * d.k * d.k, 91);
  std::vector<float> y(d.n * d.cout * d.hout() * d.wout());
  conv2d_fwd(fast(), x.data(), w.data(), nullptr, y.data(), d);
  EXPECT_EQ(counters_.gemm_calls, d.n);
  EXPECT_EQ(counters_.im2col_calls, d.n);
  EXPECT_GT(counters_.gemm_flops, 0.0);
  EXPECT_GE(counters_.gemm_seconds, 0.0);
  // GFLOP/s is well-defined once any time was recorded.
  EXPECT_GE(counters_.gemm_gflops(), 0.0);
}

// RAII sweep guard: force a dispatch level, restore the entry level on
// scope exit so test order never leaks a forced level.
class ScopedIsaLevel {
 public:
  explicit ScopedIsaLevel(simd::IsaLevel level)
      : saved_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedIsaLevel() { simd::set_level(saved_); }
  ScopedIsaLevel(const ScopedIsaLevel&) = delete;
  ScopedIsaLevel& operator=(const ScopedIsaLevel&) = delete;

 private:
  simd::IsaLevel saved_;
};

std::vector<simd::IsaLevel> available_levels() {
  std::vector<simd::IsaLevel> levels{simd::IsaLevel::kScalar};
  if (simd::max_supported_level() >= simd::IsaLevel::kAvx2) {
    levels.push_back(simd::IsaLevel::kAvx2);
  }
  if (simd::max_supported_level() >= simd::IsaLevel::kAvx512) {
    levels.push_back(simd::IsaLevel::kAvx512);
  }
  return levels;
}

// The whole suite already runs at whatever level CA_ISA / the host picked
// (tools/check.sh sweeps the full binary per level); this test additionally
// sweeps every level in-process so a single default run still proves
// scalar, AVX2 and AVX-512 all agree with the naive oracle on the
// trans/alpha/beta/fringe battery and a conv edge shape.
TEST_F(KernelParityTest, GemmAndConvParityAtEveryDispatchLevel) {
  struct Case {
    std::size_t m, n, k;
    float alpha, beta;
  };
  const Case cases[] = {
      {5, 17, 3, 1.0f, 0.0f},    // fringe in every tile dimension
      {37, 53, 29, 2.0f, 0.5f},  // alpha/beta blend
      {96, 1040, 13, 1.0f, 0.0f},  // goes wide; nc fringe at 1040 > kNC
  };
  for (const simd::IsaLevel level : available_levels()) {
    ScopedIsaLevel forced(level);
    ASSERT_EQ(simd::active_level(), level);
    for (const auto& c : cases) {
      for (const bool ta : {false, true}) {
        const auto a = randn(c.m * c.k, 101);
        const auto b = randn(c.k * c.n, 102);
        const auto c0 = randn(c.m * c.n, 103);
        const std::size_t lda = ta ? c.m : c.k;

        std::vector<float> want(c0);
        for (std::size_t i = 0; i < c.m; ++i) {
          for (std::size_t j = 0; j < c.n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < c.k; ++p) {
              const float av = ta ? a[p * lda + i] : a[i * lda + p];
              acc += static_cast<double>(av) * b[p * c.n + j];
            }
            want[i * c.n + j] = c.alpha * static_cast<float>(acc) +
                                c.beta * c0[i * c.n + j];
          }
        }
        std::vector<float> got(c0);
        gemm(fast(), ta, false, c.m, c.n, c.k, c.alpha, a.data(), lda,
             b.data(), c.n, c.beta, got.data(), c.n);
        expect_close(got, want,
                     simd::level_name(level));
      }
    }
    // One conv edge shape per level (the full conv battery runs per level
    // via CA_ISA in tools/check.sh).
    const ConvDims d = kConvShapes[5];  // cout=17: tile fringe
    const auto x = randn(d.n * d.cin * d.h * d.w, 104);
    const auto w = randn(d.cout * d.cin * d.k * d.k, 105);
    const std::size_t ysz = d.n * d.cout * d.hout() * d.wout();
    std::vector<float> want(ysz), got(ysz);
    conv2d_fwd(x.data(), w.data(), nullptr, want.data(), d);
    conv2d_fwd(fast(), x.data(), w.data(), nullptr, got.data(), d);
    expect_close(got, want, simd::level_name(level));
  }
}

// CA_ISA=scalar must be bitwise the seed kernel: same 4x8 packed tile,
// same accumulation order, same write-back branches.  The oracle below is
// the seed's serial blocked path, verbatim, with the tile constants fixed
// at 4x8 -- EXPECT_EQ, not tolerance.
TEST_F(KernelParityTest, ScalarLevelBitwiseIdenticalToBaselineTile) {
  constexpr std::size_t MR = 4, NR = 8;
  const std::size_t m = 37, n = 29, k = 300;
  const auto a = randn(m * k, 110);
  const auto b = randn(k * n, 111);
  const auto c0 = randn(m * n, 112);

  // Seed serial path: pack + 4x8 micro-kernel at kMC/kKC/kNC blocking.
  std::vector<float> want(c0);
  {
    const std::size_t npad = (n + NR - 1) / NR * NR;
    std::vector<float> pa(kGemmMC * kGemmKC), pb(kGemmKC * npad);
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t kc = std::min(kGemmKC, k - pc);
      const bool first_pc = pc == 0;
      for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
        const std::size_t nc = std::min(kGemmNC, n - jc);
        for (std::size_t jp = 0; jp < nc; jp += NR) {
          float* panel = pb.data() + (jp / NR) * (NR * kc);
          const std::size_t cols = std::min(NR, nc - jp);
          for (std::size_t p = 0; p < kc; ++p) {
            float* dst = panel + p * NR;
            const float* src = b.data() + (pc + p) * n + jc + jp;
            for (std::size_t j = 0; j < cols; ++j) dst[j] = src[j];
            for (std::size_t j = cols; j < NR; ++j) dst[j] = 0.0f;
          }
        }
        for (std::size_t ic = 0; ic < m; ic += kGemmMC) {
          const std::size_t mc = std::min(kGemmMC, m - ic);
          for (std::size_t ip = 0; ip < mc; ip += MR) {
            float* panel = pa.data() + (ip / MR) * (MR * kc);
            const std::size_t rows = std::min(MR, mc - ip);
            for (std::size_t p = 0; p < kc; ++p) {
              float* dst = panel + p * MR;
              for (std::size_t r = 0; r < rows; ++r) {
                dst[r] = a[(ic + ip + r) * k + pc + p];
              }
              for (std::size_t r = rows; r < MR; ++r) dst[r] = 0.0f;
            }
          }
          for (std::size_t jr = 0; jr < nc; jr += NR) {
            const std::size_t nr = std::min(NR, nc - jr);
            const float* pbp = pb.data() + (jr / NR) * (NR * kc);
            for (std::size_t ir = 0; ir < mc; ir += MR) {
              const std::size_t mr = std::min(MR, mc - ir);
              const float* pap = pa.data() + (ir / MR) * (MR * kc);
              float acc[MR][NR] = {};
              for (std::size_t p = 0; p < kc; ++p) {
                const float* ap = pap + p * MR;
                const float* bp = pbp + p * NR;
                for (std::size_t i = 0; i < MR; ++i) {
                  const float av = ap[i];
                  for (std::size_t j = 0; j < NR; ++j) {
                    acc[i][j] += av * bp[j];
                  }
                }
              }
              float* ctile = want.data() + (ic + ir) * n + jc + jr;
              for (std::size_t i = 0; i < mr; ++i) {
                float* crow = ctile + i * n;
                if (!first_pc) {
                  for (std::size_t j = 0; j < nr; ++j) {
                    crow[j] += 1.5f * acc[i][j];
                  }
                } else {
                  for (std::size_t j = 0; j < nr; ++j) {
                    crow[j] = 1.5f * acc[i][j] + 0.5f * crow[j];
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  ScopedIsaLevel forced(simd::IsaLevel::kScalar);
  std::vector<float> got(c0);
  gemm(KernelCtx{}, false, false, m, n, k, 1.5f, a.data(), k, b.data(), n,
       0.5f, got.data(), n);
  EXPECT_EQ(want, got);
}

// The NT writeback path must be byte-exact against the temporal path at
// every level: misaligned heads and tails, sub-threshold sizes (which stay
// temporal), and sizes straddling kNtThreshold.
TEST_F(KernelParityTest, CopyAndFillByteExactOnNtPath) {
  const std::size_t big = simd::kNtThreshold + 1000;
  std::vector<unsigned char> src(big + 128), dst(big + 128), ref(big + 128);
  ca::util::Xoshiro256 rng(7);
  for (auto& x : src) x = static_cast<unsigned char>(rng());

  const std::size_t sizes[] = {
      0, 1, 31, 32, 33, 63, 64, 65, 4096,
      simd::kNtThreshold - 1, simd::kNtThreshold, simd::kNtThreshold + 67};
  for (const simd::IsaLevel level : available_levels()) {
    ScopedIsaLevel forced(level);
    for (const std::size_t sz : sizes) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                    std::size_t{13}, std::size_t{63}}) {
        ASSERT_LE(off + sz, dst.size());
        std::fill(dst.begin(), dst.end(), 0xAB);
        std::fill(ref.begin(), ref.end(), 0xAB);
        const std::size_t nt =
            util::copy_bytes(dst.data() + off, src.data() + off, sz,
                             "kparity-copy", simd::CopyHint::kWriteback);
        std::memcpy(ref.data() + off, src.data() + off, sz);
        ASSERT_EQ(dst, ref) << "copy level=" << simd::level_name(level)
                            << " size=" << sz << " off=" << off;
        if (sz < simd::kNtThreshold || level == simd::IsaLevel::kScalar) {
          EXPECT_EQ(nt, 0u);  // temporal fallback
        }

        std::fill(dst.begin(), dst.end(), 0xAB);
        std::fill(ref.begin(), ref.end(), 0xAB);
        util::fill_zero(dst.data() + off, sz, "kparity-fill",
                        simd::CopyHint::kWriteback);
        std::memset(ref.data() + off, 0, sz);
        ASSERT_EQ(dst, ref) << "fill level=" << simd::level_name(level)
                            << " size=" << sz << " off=" << off;
      }
    }
  }
}

// End-to-end: one training iteration under Backend::kReal agrees with the
// same iteration under Backend::kReference (same seeds, same mode).
TEST(KernelParityIntegration, TrainerLossMatchesReferenceBackend) {
  float losses[2] = {0.0f, 0.0f};
  const Backend backends[2] = {Backend::kReal, Backend::kReference};
  for (int i = 0; i < 2; ++i) {
    HarnessConfig hc;
    hc.mode = Mode::kCaLM;
    hc.backend = backends[i];
    hc.kernel_threads = 4;
    Harness harness(hc);
    auto model = build_model(harness.engine(), ModelSpec::vgg_tiny());
    Trainer trainer(harness, *model);
    losses[i] = trainer.run_iteration().loss;
  }
  EXPECT_NEAR(losses[0], losses[1],
              kRelTol * std::max(1.0f, std::abs(losses[1])));
}

}  // namespace
}  // namespace ca::dnn::real
