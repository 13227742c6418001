// Numeric kernels (NCHW, float32), forward and backward, in two tiers:
//
//   * The plain-signature functions below are the seed *scalar reference
//     kernels*: straightforward direct loops, kept bit-stable as the
//     parity oracle (Backend::kReference) for the fast tier and still used
//     directly by unit tests and gradient checks.
//
//   * The KernelCtx overloads are the *fast tier* (Backend::kReal): conv
//     and dense reduce to a cache-blocked, register-tiled GEMM core
//     (dnn/gemm.hpp) via im2col packing; elementwise / pooling / norm ops
//     run wide on the ExecContext's ThreadPool with a grain heuristic so
//     tiny tensors stay serial.  Passing ctx.reference = true routes every
//     overload back to the scalar tier, which is how the parity tests
//     compare the two within tolerance.
//
// The benchmark harness uses the "sim" backend instead (same data movement
// and cost accounting, no arithmetic) because real convolutions at the
// paper's scaled footprints would measure the host CPU, not the memory
// system under study -- but with this fast tier the real backend runs near
// roofline, so real-backend wall-clock is dominated by data movement, not
// compute noise (the Sentinel argument).
//
// All functions are pure: raw pointers + dimensions in, results out.  The
// ctx overloads additionally use ctx.pool / ctx.scratch and record wall
// time into ctx.counters; all scratch row copies route through
// util::copy_bytes (tools/ca_lint.py rule `kernel-scratch-route`).
#pragma once

#include <cstddef>

#include "dnn/kernel_ctx.hpp"

namespace ca::dnn::real {

/// Square-kernel 2D convolution geometry.
struct ConvDims {
  std::size_t n = 1;     ///< batch
  std::size_t cin = 1;   ///< input channels
  std::size_t h = 1;     ///< input height
  std::size_t w = 1;     ///< input width
  std::size_t cout = 1;  ///< output channels
  std::size_t k = 3;     ///< kernel size (k x k)
  std::size_t stride = 1;
  std::size_t pad = 1;

  [[nodiscard]] std::size_t hout() const {
    return (h + 2 * pad - k) / stride + 1;
  }
  [[nodiscard]] std::size_t wout() const {
    return (w + 2 * pad - k) / stride + 1;
  }
  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(n) * static_cast<double>(cout) *
           static_cast<double>(hout()) * static_cast<double>(wout()) *
           static_cast<double>(cin) * static_cast<double>(k) *
           static_cast<double>(k);
  }
};

// x: (n,cin,h,w)  w: (cout,cin,k,k)  b: (cout)  y: (n,cout,hout,wout)
void conv2d_fwd(const float* x, const float* w, const float* b, float* y,
                const ConvDims& d);
void conv2d_bwd_data(const float* w, const float* gy, float* gx,
                     const ConvDims& d);
void conv2d_bwd_weights(const float* x, const float* gy, float* gw,
                        const ConvDims& d);
void conv2d_bwd_bias(const float* gy, float* gb, const ConvDims& d);

void relu_fwd(const float* x, float* y, std::size_t n);
void relu_bwd(const float* x, const float* gy, float* gx, std::size_t n);

// 2x2 max pooling with stride 2; h and w must be even.
void maxpool2_fwd(const float* x, float* y, std::size_t n, std::size_t c,
                  std::size_t h, std::size_t w);
void maxpool2_bwd(const float* x, const float* gy, float* gx, std::size_t n,
                  std::size_t c, std::size_t h, std::size_t w);

// Global average pooling: (n,c,h,w) -> (n,c).
void global_avgpool_fwd(const float* x, float* y, std::size_t n,
                        std::size_t c, std::size_t h, std::size_t w);
void global_avgpool_bwd(const float* gy, float* gx, std::size_t n,
                        std::size_t c, std::size_t h, std::size_t w);

// Training-mode batch normalization over (n,h,w) per channel.
// save_mean/save_istd: (c), produced by fwd and consumed by bwd.
void batchnorm_fwd(const float* x, const float* gamma, const float* beta,
                   float* y, float* save_mean, float* save_istd,
                   std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w, float eps);
void batchnorm_bwd(const float* x, const float* gamma, const float* save_mean,
                   const float* save_istd, const float* gy, float* gx,
                   float* ggamma, float* gbeta, std::size_t n, std::size_t c,
                   std::size_t h, std::size_t w);

// Fully connected: x (n,in), w (out,in), b (out), y (n,out).
void dense_fwd(const float* x, const float* w, const float* b, float* y,
               std::size_t n, std::size_t in, std::size_t out);
void dense_bwd_data(const float* w, const float* gy, float* gx, std::size_t n,
                    std::size_t in, std::size_t out);
void dense_bwd_weights(const float* x, const float* gy, float* gw,
                       std::size_t n, std::size_t in, std::size_t out);
void dense_bwd_bias(const float* gy, float* gb, std::size_t n,
                    std::size_t out);

// Softmax + cross-entropy against integer labels stored as floats.
// probs (n,classes) is saved for the backward pass.  Returns mean loss.
float softmax_ce_fwd(const float* logits, const float* labels, float* probs,
                     std::size_t n, std::size_t classes);
void softmax_ce_bwd(const float* probs, const float* labels, float* gx,
                    std::size_t n, std::size_t classes);

// Elementwise.
void add_fwd(const float* a, const float* b, float* y, std::size_t n);

// Channel concatenation of (n,ca,h,w) and (n,cb,h,w) into (n,ca+cb,h,w),
// and the matching gradient split.
void concat_fwd(const float* a, const float* b, float* y, std::size_t n,
                std::size_t ca, std::size_t cb, std::size_t h, std::size_t w);
void concat_bwd(const float* gy, float* ga, float* gb, std::size_t n,
                std::size_t ca, std::size_t cb, std::size_t h, std::size_t w);

// Sparse embedding primitives (SVI extension): gather rows of a (rows,dim)
// table by float-encoded indices, and the fused sparse SGD scatter update.
void embedding_gather(const float* table, const float* indices, float* out,
                      std::size_t batch, std::size_t dim);
void embedding_scatter_sgd(float* table, const float* indices,
                           const float* grads, float lr, std::size_t batch,
                           std::size_t dim);

// Optimizer and accumulation helpers.
void sgd_update(float* w, const float* g, float lr, std::size_t n);
void accumulate(float* acc, const float* g, std::size_t n);  // acc += g

// --- fast tier: KernelCtx dispatch overloads --------------------------------
//
// Same contracts as the scalar functions above.  With ctx.reference the
// scalar kernel runs; otherwise the blocked/parallel implementation does.
// Results agree with the reference within ~1e-4 relative tolerance (FP
// summation order differs); tests/dnn/kernel_parity_test.cpp holds the
// line.

void conv2d_fwd(const KernelCtx& ctx, const float* x, const float* w,
                const float* b, float* y, const ConvDims& d);
void conv2d_bwd_data(const KernelCtx& ctx, const float* w, const float* gy,
                     float* gx, const ConvDims& d);
void conv2d_bwd_weights(const KernelCtx& ctx, const float* x,
                        const float* gy, float* gw, const ConvDims& d);
void conv2d_bwd_bias(const KernelCtx& ctx, const float* gy, float* gb,
                     const ConvDims& d);

void relu_fwd(const KernelCtx& ctx, const float* x, float* y, std::size_t n);
void relu_bwd(const KernelCtx& ctx, const float* x, const float* gy,
              float* gx, std::size_t n);

void maxpool2_fwd(const KernelCtx& ctx, const float* x, float* y,
                  std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w);
void maxpool2_bwd(const KernelCtx& ctx, const float* x, const float* gy,
                  float* gx, std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w);
void global_avgpool_fwd(const KernelCtx& ctx, const float* x, float* y,
                        std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w);
void global_avgpool_bwd(const KernelCtx& ctx, const float* gy, float* gx,
                        std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w);

void batchnorm_fwd(const KernelCtx& ctx, const float* x, const float* gamma,
                   const float* beta, float* y, float* save_mean,
                   float* save_istd, std::size_t n, std::size_t c,
                   std::size_t h, std::size_t w, float eps);
void batchnorm_bwd(const KernelCtx& ctx, const float* x, const float* gamma,
                   const float* save_mean, const float* save_istd,
                   const float* gy, float* gx, float* ggamma, float* gbeta,
                   std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w);

void dense_fwd(const KernelCtx& ctx, const float* x, const float* w,
               const float* b, float* y, std::size_t n, std::size_t in,
               std::size_t out);
void dense_bwd_data(const KernelCtx& ctx, const float* w, const float* gy,
                    float* gx, std::size_t n, std::size_t in,
                    std::size_t out);
void dense_bwd_weights(const KernelCtx& ctx, const float* x, const float* gy,
                       float* gw, std::size_t n, std::size_t in,
                       std::size_t out);
void dense_bwd_bias(const KernelCtx& ctx, const float* gy, float* gb,
                    std::size_t n, std::size_t out);

float softmax_ce_fwd(const KernelCtx& ctx, const float* logits,
                     const float* labels, float* probs, std::size_t n,
                     std::size_t classes);
void softmax_ce_bwd(const KernelCtx& ctx, const float* probs,
                    const float* labels, float* gx, std::size_t n,
                    std::size_t classes);

void add_fwd(const KernelCtx& ctx, const float* a, const float* b, float* y,
             std::size_t n);

void concat_fwd(const KernelCtx& ctx, const float* a, const float* b,
                float* y, std::size_t n, std::size_t ca, std::size_t cb,
                std::size_t h, std::size_t w);
void concat_bwd(const KernelCtx& ctx, const float* gy, float* ga, float* gb,
                std::size_t n, std::size_t ca, std::size_t cb, std::size_t h,
                std::size_t w);

void embedding_gather(const KernelCtx& ctx, const float* table,
                      const float* indices, float* out, std::size_t batch,
                      std::size_t dim);
// Scatter stays serial in both tiers: duplicate indices in one batch alias
// the same table row, so a parallel scatter would race with itself.
void embedding_scatter_sgd(const KernelCtx& ctx, float* table,
                           const float* indices, const float* grads,
                           float lr, std::size_t batch, std::size_t dim);

void sgd_update(const KernelCtx& ctx, float* w, const float* g, float lr,
                std::size_t n);
void accumulate(const KernelCtx& ctx, float* acc, const float* g,
                std::size_t n);

}  // namespace ca::dnn::real
