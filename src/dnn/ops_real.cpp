#include "dnn/ops_real.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "dnn/gemm.hpp"
#include "dnn/scratch.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/stopwatch.hpp"
#include "util/bytes.hpp"
#include "util/threadpool.hpp"

namespace ca::dnn::real {

namespace {
// Index helpers for NCHW layouts.
inline std::size_t idx4(std::size_t n, std::size_t c, std::size_t y,
                        std::size_t x, std::size_t C, std::size_t H,
                        std::size_t W) {
  return ((n * C + c) * H + y) * W + x;
}

// Per-channel batchnorm bodies, shared by the scalar reference kernels and
// the channel-parallel fast tier: channels are independent, so running them
// concurrently keeps the arithmetic (and therefore the result) bit-identical
// to the sequential reference.
void bn_fwd_channel(const float* x, const float* gamma, const float* beta,
                    float* y, float* save_mean, float* save_istd,
                    std::size_t ch, std::size_t n, std::size_t c,
                    std::size_t hw, float m, float eps) {
  double sum = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const float* xc = x + (b * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) sum += xc[j];
  }
  const float mean = static_cast<float>(sum) / m;
  double var = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const float* xc = x + (b * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) {
      const float d = xc[j] - mean;
      var += static_cast<double>(d) * d;
    }
  }
  const float istd = 1.0f / std::sqrt(static_cast<float>(var) / m + eps);
  save_mean[ch] = mean;
  save_istd[ch] = istd;
  for (std::size_t b = 0; b < n; ++b) {
    const float* xc = x + (b * c + ch) * hw;
    float* yc = y + (b * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) {
      yc[j] = gamma[ch] * (xc[j] - mean) * istd + beta[ch];
    }
  }
}

void bn_bwd_channel(const float* x, const float* gamma,
                    const float* save_mean, const float* save_istd,
                    const float* gy, float* gx, float* ggamma, float* gbeta,
                    std::size_t ch, std::size_t n, std::size_t c,
                    std::size_t hw, float m) {
  const float mean = save_mean[ch];
  const float istd = save_istd[ch];
  double sum_gy = 0.0;
  double sum_gy_xhat = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const float* xc = x + (b * c + ch) * hw;
    const float* gyc = gy + (b * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) {
      const float xhat = (xc[j] - mean) * istd;
      sum_gy += gyc[j];
      sum_gy_xhat += static_cast<double>(gyc[j]) * xhat;
    }
  }
  ggamma[ch] = static_cast<float>(sum_gy_xhat);
  gbeta[ch] = static_cast<float>(sum_gy);
  const float k1 = static_cast<float>(sum_gy) / m;
  const float k2 = static_cast<float>(sum_gy_xhat) / m;
  for (std::size_t b = 0; b < n; ++b) {
    const float* xc = x + (b * c + ch) * hw;
    const float* gyc = gy + (b * c + ch) * hw;
    float* gxc = gx + (b * c + ch) * hw;
    for (std::size_t j = 0; j < hw; ++j) {
      const float xhat = (xc[j] - mean) * istd;
      gxc[j] = gamma[ch] * istd * (gyc[j] - k1 - xhat * k2);
    }
  }
}
}  // namespace

void conv2d_fwd(const float* x, const float* w, const float* b, float* y,
                const ConvDims& d) {
  const std::size_t ho = d.hout();
  const std::size_t wo = d.wout();
  for (std::size_t n = 0; n < d.n; ++n) {
    for (std::size_t co = 0; co < d.cout; ++co) {
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox) {
          float acc = (b != nullptr) ? b[co] : 0.0f;
          for (std::size_t ci = 0; ci < d.cin; ++ci) {
            for (std::size_t ky = 0; ky < d.k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * d.stride + ky) -
                  static_cast<std::ptrdiff_t>(d.pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) continue;
              for (std::size_t kx = 0; kx < d.k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * d.stride + kx) -
                    static_cast<std::ptrdiff_t>(d.pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(d.w)) continue;
                acc += x[idx4(n, ci, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix), d.cin, d.h, d.w)] *
                       w[((co * d.cin + ci) * d.k + ky) * d.k + kx];
              }
            }
          }
          y[idx4(n, co, oy, ox, d.cout, ho, wo)] = acc;
        }
      }
    }
  }
}

void conv2d_bwd_data(const float* w, const float* gy, float* gx,
                     const ConvDims& d) {
  const std::size_t ho = d.hout();
  const std::size_t wo = d.wout();
  std::memset(gx, 0, sizeof(float) * d.n * d.cin * d.h * d.w);
  for (std::size_t n = 0; n < d.n; ++n) {
    for (std::size_t co = 0; co < d.cout; ++co) {
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox) {
          const float g = gy[idx4(n, co, oy, ox, d.cout, ho, wo)];
          if (g == 0.0f) continue;
          for (std::size_t ci = 0; ci < d.cin; ++ci) {
            for (std::size_t ky = 0; ky < d.k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * d.stride + ky) -
                  static_cast<std::ptrdiff_t>(d.pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) continue;
              for (std::size_t kx = 0; kx < d.k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * d.stride + kx) -
                    static_cast<std::ptrdiff_t>(d.pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(d.w)) continue;
                gx[idx4(n, ci, static_cast<std::size_t>(iy),
                        static_cast<std::size_t>(ix), d.cin, d.h, d.w)] +=
                    g * w[((co * d.cin + ci) * d.k + ky) * d.k + kx];
              }
            }
          }
        }
      }
    }
  }
}

void conv2d_bwd_weights(const float* x, const float* gy, float* gw,
                        const ConvDims& d) {
  const std::size_t ho = d.hout();
  const std::size_t wo = d.wout();
  std::memset(gw, 0, sizeof(float) * d.cout * d.cin * d.k * d.k);
  for (std::size_t n = 0; n < d.n; ++n) {
    for (std::size_t co = 0; co < d.cout; ++co) {
      for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox) {
          const float g = gy[idx4(n, co, oy, ox, d.cout, ho, wo)];
          if (g == 0.0f) continue;
          for (std::size_t ci = 0; ci < d.cin; ++ci) {
            for (std::size_t ky = 0; ky < d.k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * d.stride + ky) -
                  static_cast<std::ptrdiff_t>(d.pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) continue;
              for (std::size_t kx = 0; kx < d.k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * d.stride + kx) -
                    static_cast<std::ptrdiff_t>(d.pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(d.w)) continue;
                gw[((co * d.cin + ci) * d.k + ky) * d.k + kx] +=
                    g * x[idx4(n, ci, static_cast<std::size_t>(iy),
                               static_cast<std::size_t>(ix), d.cin, d.h, d.w)];
              }
            }
          }
        }
      }
    }
  }
}

void conv2d_bwd_bias(const float* gy, float* gb, const ConvDims& d) {
  const std::size_t ho = d.hout();
  const std::size_t wo = d.wout();
  std::memset(gb, 0, sizeof(float) * d.cout);
  for (std::size_t n = 0; n < d.n; ++n) {
    for (std::size_t co = 0; co < d.cout; ++co) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < ho * wo; ++i) {
        acc += gy[(n * d.cout + co) * ho * wo + i];
      }
      gb[co] += acc;
    }
  }
}

void relu_fwd(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void relu_bwd(const float* x, const float* gy, float* gx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) gx[i] = x[i] > 0.0f ? gy[i] : 0.0f;
}

void maxpool2_fwd(const float* x, float* y, std::size_t n, std::size_t c,
                  std::size_t h, std::size_t w) {
  const std::size_t ho = h / 2;
  const std::size_t wo = w / 2;
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* xc = x + i * h * w;
    float* yc = y + i * ho * wo;
    for (std::size_t oy = 0; oy < ho; ++oy) {
      for (std::size_t ox = 0; ox < wo; ++ox) {
        const std::size_t base = (2 * oy) * w + 2 * ox;
        yc[oy * wo + ox] = std::max(std::max(xc[base], xc[base + 1]),
                                    std::max(xc[base + w], xc[base + w + 1]));
      }
    }
  }
}

void maxpool2_bwd(const float* x, const float* gy, float* gx, std::size_t n,
                  std::size_t c, std::size_t h, std::size_t w) {
  const std::size_t ho = h / 2;
  const std::size_t wo = w / 2;
  std::memset(gx, 0, sizeof(float) * n * c * h * w);
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* xc = x + i * h * w;
    const float* gyc = gy + i * ho * wo;
    float* gxc = gx + i * h * w;
    for (std::size_t oy = 0; oy < ho; ++oy) {
      for (std::size_t ox = 0; ox < wo; ++ox) {
        const std::size_t base = (2 * oy) * w + 2 * ox;
        // Route the gradient to the (first) maximal element of the window.
        std::size_t best = base;
        for (const std::size_t cand :
             {base + 1, base + w, base + w + 1}) {
          if (xc[cand] > xc[best]) best = cand;
        }
        gxc[best] += gyc[oy * wo + ox];
      }
    }
  }
}

void global_avgpool_fwd(const float* x, float* y, std::size_t n,
                        std::size_t c, std::size_t h, std::size_t w) {
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t i = 0; i < n * c; ++i) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < h * w; ++j) acc += x[i * h * w + j];
    y[i] = acc * inv;
  }
}

void global_avgpool_bwd(const float* gy, float* gx, std::size_t n,
                        std::size_t c, std::size_t h, std::size_t w) {
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t i = 0; i < n * c; ++i) {
    const float g = gy[i] * inv;
    for (std::size_t j = 0; j < h * w; ++j) gx[i * h * w + j] = g;
  }
}

void batchnorm_fwd(const float* x, const float* gamma, const float* beta,
                   float* y, float* save_mean, float* save_istd,
                   std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w, float eps) {
  const std::size_t hw = h * w;
  const float m = static_cast<float>(n * hw);
  for (std::size_t ch = 0; ch < c; ++ch) {
    bn_fwd_channel(x, gamma, beta, y, save_mean, save_istd, ch, n, c, hw, m,
                   eps);
  }
}

void batchnorm_bwd(const float* x, const float* gamma, const float* save_mean,
                   const float* save_istd, const float* gy, float* gx,
                   float* ggamma, float* gbeta, std::size_t n, std::size_t c,
                   std::size_t h, std::size_t w) {
  const std::size_t hw = h * w;
  const float m = static_cast<float>(n * hw);
  for (std::size_t ch = 0; ch < c; ++ch) {
    bn_bwd_channel(x, gamma, save_mean, save_istd, gy, gx, ggamma, gbeta, ch,
                   n, c, hw, m);
  }
}

void dense_fwd(const float* x, const float* w, const float* b, float* y,
               std::size_t n, std::size_t in, std::size_t out) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      float acc = (b != nullptr) ? b[o] : 0.0f;
      for (std::size_t j = 0; j < in; ++j) acc += x[i * in + j] * w[o * in + j];
      y[i * out + o] = acc;
    }
  }
}

void dense_bwd_data(const float* w, const float* gy, float* gx, std::size_t n,
                    std::size_t in, std::size_t out) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < in; ++j) {
      float acc = 0.0f;
      for (std::size_t o = 0; o < out; ++o) {
        acc += gy[i * out + o] * w[o * in + j];
      }
      gx[i * in + j] = acc;
    }
  }
}

void dense_bwd_weights(const float* x, const float* gy, float* gw,
                       std::size_t n, std::size_t in, std::size_t out) {
  std::memset(gw, 0, sizeof(float) * in * out);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      const float g = gy[i * out + o];
      if (g == 0.0f) continue;
      for (std::size_t j = 0; j < in; ++j) gw[o * in + j] += g * x[i * in + j];
    }
  }
}

void dense_bwd_bias(const float* gy, float* gb, std::size_t n,
                    std::size_t out) {
  std::memset(gb, 0, sizeof(float) * out);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) gb[o] += gy[i * out + o];
  }
}

float softmax_ce_fwd(const float* logits, const float* labels, float* probs,
                     std::size_t n, std::size_t classes) {
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits + i * classes;
    float* prow = probs + i * classes;
    float mx = row[0];
    for (std::size_t c = 1; c < classes; ++c) mx = std::max(mx, row[c]);
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      prow[c] = std::exp(row[c] - mx);
      denom += prow[c];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t c = 0; c < classes; ++c) prow[c] *= inv;
    const auto label = static_cast<std::size_t>(labels[i]);
    loss -= std::log(std::max(prow[label], 1e-12f));
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

void softmax_ce_bwd(const float* probs, const float* labels, float* gx,
                    std::size_t n, std::size_t classes) {
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    for (std::size_t c = 0; c < classes; ++c) {
      const float p = probs[i * classes + c];
      gx[i * classes + c] = (p - (c == label ? 1.0f : 0.0f)) * inv_n;
    }
  }
}

void add_fwd(const float* a, const float* b, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}

void concat_fwd(const float* a, const float* b, float* y, std::size_t n,
                std::size_t ca, std::size_t cb, std::size_t h,
                std::size_t w) {
  const std::size_t hw = h * w;
  for (std::size_t i = 0; i < n; ++i) {
    util::copy_bytes(y + i * (ca + cb) * hw, a + i * ca * hw,
                     sizeof(float) * ca * hw, "ops::concat_fwd");
    util::copy_bytes(y + (i * (ca + cb) + ca) * hw, b + i * cb * hw,
                     sizeof(float) * cb * hw, "ops::concat_fwd");
  }
}

void concat_bwd(const float* gy, float* ga, float* gb, std::size_t n,
                std::size_t ca, std::size_t cb, std::size_t h,
                std::size_t w) {
  const std::size_t hw = h * w;
  for (std::size_t i = 0; i < n; ++i) {
    util::copy_bytes(ga + i * ca * hw, gy + i * (ca + cb) * hw,
                     sizeof(float) * ca * hw, "ops::concat_bwd");
    util::copy_bytes(gb + i * cb * hw, gy + (i * (ca + cb) + ca) * hw,
                     sizeof(float) * cb * hw, "ops::concat_bwd");
  }
}

void embedding_gather(const float* table, const float* indices, float* out,
                      std::size_t batch, std::size_t dim) {
  for (std::size_t i = 0; i < batch; ++i) {
    const auto row = static_cast<std::size_t>(indices[i]);
    util::copy_bytes(out + i * dim, table + row * dim, sizeof(float) * dim,
                     "ops::embedding_gather");
  }
}

void embedding_scatter_sgd(float* table, const float* indices,
                           const float* grads, float lr, std::size_t batch,
                           std::size_t dim) {
  for (std::size_t i = 0; i < batch; ++i) {
    const auto row = static_cast<std::size_t>(indices[i]);
    for (std::size_t j = 0; j < dim; ++j) {
      table[row * dim + j] -= lr * grads[i * dim + j];
    }
  }
}

void sgd_update(float* w, const float* g, float lr, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) w[i] -= lr * g[i];
}

void accumulate(float* acc, const float* g, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += g[i];
}

// ---------------------------------------------------------------------------
// Fast tier: KernelCtx overloads (blocked GEMM + im2col + pool-parallel
// elementwise).  Every overload first checks ctx.reference and falls back to
// the scalar oracle above.
// ---------------------------------------------------------------------------

namespace {

/// Fold a task-private counter slot back into the shared sink.  Only ever
/// called on the launching thread, after the parallel section's barrier --
/// KernelCounters itself is not thread-safe.
void fold_counters(telemetry::KernelCounters* dst,
                   const telemetry::KernelCounters& s) {
  if (dst == nullptr) return;
  dst->gemm_calls += s.gemm_calls;
  dst->gemm_seconds += s.gemm_seconds;
  dst->gemm_flops += s.gemm_flops;
  dst->im2col_calls += s.im2col_calls;
  dst->im2col_seconds += s.im2col_seconds;
  dst->eltwise_calls += s.eltwise_calls;
  dst->eltwise_seconds += s.eltwise_seconds;
}

/// Shared launch path for the elementwise/pool/norm family: record the op
/// into ctx.counters on the calling thread, then run `fn` over [0, n) --
/// wide on the pool when n * work_per_item clears the grain heuristic,
/// inline otherwise.  `fn` must only write state owned by its subrange.
void eltwise_launch(const KernelCtx& ctx, std::size_t n,
                    std::size_t work_per_item,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  double* sink = nullptr;
  if (ctx.counters != nullptr) {
    ++ctx.counters->eltwise_calls;
    sink = &ctx.counters->eltwise_seconds;
  }
  telemetry::ScopedKernelTimer timer(sink);
  if (ctx.pool != nullptr) {
    ctx.pool->parallel_for(n, fn, util::ThreadPool::grain_for(work_per_item));
  } else {
    fn(0, n);
  }
}

/// Patch-matrix extent for one image: (cin*k*k) x (hout*wout), row-major.
std::size_t conv_col_floats(const ConvDims& d) {
  return d.cin * d.k * d.k * d.hout() * d.wout();
}

/// 1x1 / stride-1 / pad-0 convolutions need no patch matrix: the image
/// itself already is the (cin x h*w) col operand.
bool conv_identity_col(const ConvDims& d) {
  return d.k == 1 && d.stride == 1 && d.pad == 0;
}

/// Scatter one image (cin,h,w) into the patch matrix col (cin*k*k, ho*wo).
/// Stride-1 interior rows are contiguous in x and go through
/// util::copy_bytes; padding is zero-filled; stride > 1 gathers scalar.
void im2col_image(const float* x, const ConvDims& d, float* col) {
  const std::size_t ho = d.hout();
  const std::size_t wo = d.wout();
  const auto pad = static_cast<std::ptrdiff_t>(d.pad);
  float* crow = col;
  for (std::size_t ci = 0; ci < d.cin; ++ci) {
    for (std::size_t ky = 0; ky < d.k; ++ky) {
      for (std::size_t kx = 0; kx < d.k; ++kx, crow += ho * wo) {
        for (std::size_t oy = 0; oy < ho; ++oy) {
          float* dst = crow + oy * wo;
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * d.stride + ky) - pad;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) {
            std::fill(dst, dst + wo, 0.0f);
            continue;
          }
          const float* src =
              x + (ci * d.h + static_cast<std::size_t>(iy)) * d.w;
          if (d.stride == 1) {
            // ix = ox + kx - pad stays inside [0, w) for ox in [ox0, ox1).
            const std::ptrdiff_t shift =
                static_cast<std::ptrdiff_t>(kx) - pad;
            const auto ox0 = static_cast<std::size_t>(
                std::max<std::ptrdiff_t>(0, -shift));
            const auto ox1 = static_cast<std::size_t>(
                std::clamp(static_cast<std::ptrdiff_t>(d.w) - shift,
                           std::ptrdiff_t{0},
                           static_cast<std::ptrdiff_t>(wo)));
            std::fill(dst, dst + std::min(ox0, ox1), 0.0f);
            if (ox1 > ox0) {
              util::copy_bytes(dst + ox0, src + ox0 + kx - d.pad,
                               sizeof(float) * (ox1 - ox0), "ops::im2col");
            }
            std::fill(dst + std::max(ox0, ox1), dst + wo, 0.0f);
          } else {
            for (std::size_t ox = 0; ox < wo; ++ox) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * d.stride + kx) - pad;
              dst[ox] = (ix >= 0 && ix < static_cast<std::ptrdiff_t>(d.w))
                            ? src[ix]
                            : 0.0f;
            }
          }
        }
      }
    }
  }
}

/// Inverse scatter: accumulate the patch matrix back into the (pre-zeroed)
/// image gradient.  Overlapping receptive fields make this += even at
/// stride 1, so there is no memcpy fast path.
void col2im_add_image(const float* col, const ConvDims& d, float* gx) {
  const std::size_t ho = d.hout();
  const std::size_t wo = d.wout();
  const auto pad = static_cast<std::ptrdiff_t>(d.pad);
  const float* crow = col;
  for (std::size_t ci = 0; ci < d.cin; ++ci) {
    for (std::size_t ky = 0; ky < d.k; ++ky) {
      for (std::size_t kx = 0; kx < d.k; ++kx, crow += ho * wo) {
        for (std::size_t oy = 0; oy < ho; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * d.stride + ky) - pad;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) continue;
          const float* src = crow + oy * wo;
          float* dst = gx + (ci * d.h + static_cast<std::size_t>(iy)) * d.w;
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * d.stride + kx) - pad;
            if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(d.w)) {
              dst[ix] += src[ox];
            }
          }
        }
      }
    }
  }
}

/// Dispatch `run_image(i, col, pool, counters)` over a conv batch.  When
/// the batch cannot feed the workers, images run serially on the caller
/// and the inner GEMM gets the pool; otherwise images fan out one-per-task
/// with private scratch leases and private per-image counter slots (folded
/// after the barrier), and the inner GEMM runs serially inside its task.
void conv_batch_launch(
    const KernelCtx& ctx, std::size_t n, std::size_t col_floats,
    const std::function<void(std::size_t, float*, util::ThreadPool*,
                             telemetry::KernelCounters*)>& run_image) {
  const bool batch_wide =
      ctx.pool != nullptr && n > 1 && ctx.pool->thread_count() > 1;
  if (!batch_wide) {
    ScratchPool local;
    ScratchPool& sp = ctx.scratch != nullptr ? *ctx.scratch : local;
    ScratchPool::Lease lease;
    if (col_floats > 0) lease = sp.acquire(col_floats);
    for (std::size_t i = 0; i < n; ++i) {
      run_image(i, lease.data(), ctx.pool, ctx.counters);
    }
    return;
  }
  std::vector<telemetry::KernelCounters> slots(ctx.counters != nullptr ? n
                                                                       : 0);
  ctx.pool->parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        ScratchPool local;
        ScratchPool& sp = ctx.scratch != nullptr ? *ctx.scratch : local;
        ScratchPool::Lease lease;
        if (col_floats > 0) lease = sp.acquire(col_floats);
        for (std::size_t i = begin; i < end; ++i) {
          run_image(i, lease.data(), nullptr,
                    slots.empty() ? nullptr : &slots[i]);
        }
      },
      /*min_grain=*/1);
  for (const auto& s : slots) fold_counters(ctx.counters, s);
}

}  // namespace

void conv2d_fwd(const KernelCtx& ctx, const float* x, const float* w,
                const float* b, float* y, const ConvDims& d) {
  if (ctx.reference) {
    conv2d_fwd(x, w, b, y, d);
    return;
  }
  const std::size_t hw_o = d.hout() * d.wout();
  const std::size_t cikk = d.cin * d.k * d.k;
  const std::size_t xsz = d.cin * d.h * d.w;
  const std::size_t ysz = d.cout * hw_o;
  const bool identity = conv_identity_col(d);
  conv_batch_launch(
      ctx, d.n, identity ? 0 : conv_col_floats(d),
      [&](std::size_t i, float* col, util::ThreadPool* pool,
          telemetry::KernelCounters* kc) {
        const float* xi = x + i * xsz;
        float* yi = y + i * ysz;
        const float* colp = xi;
        if (!identity) {
          double* sink = kc != nullptr ? &kc->im2col_seconds : nullptr;
          {
            telemetry::ScopedKernelTimer t(sink);
            im2col_image(xi, d, col);
          }
          if (kc != nullptr) ++kc->im2col_calls;
          colp = col;
        }
        KernelCtx inner{pool, ctx.scratch, kc, false};
        // Y_i (cout x hw_o) = W (cout x cikk) * col (cikk x hw_o).
        gemm(inner, false, false, d.cout, hw_o, cikk, 1.0f, w, cikk, colp,
             hw_o, 0.0f, yi, hw_o);
        if (b != nullptr) {
          for (std::size_t co = 0; co < d.cout; ++co) {
            float* yr = yi + co * hw_o;
            const float bias = b[co];
            for (std::size_t j = 0; j < hw_o; ++j) yr[j] += bias;
          }
        }
      });
}

void conv2d_bwd_data(const KernelCtx& ctx, const float* w, const float* gy,
                     float* gx, const ConvDims& d) {
  if (ctx.reference) {
    conv2d_bwd_data(w, gy, gx, d);
    return;
  }
  const std::size_t hw_o = d.hout() * d.wout();
  const std::size_t cikk = d.cin * d.k * d.k;
  const std::size_t xsz = d.cin * d.h * d.w;
  const std::size_t ysz = d.cout * hw_o;
  const bool identity = conv_identity_col(d);
  conv_batch_launch(
      ctx, d.n, identity ? 0 : conv_col_floats(d),
      [&](std::size_t i, float* col, util::ThreadPool* pool,
          telemetry::KernelCounters* kc) {
        const float* gyi = gy + i * ysz;
        float* gxi = gx + i * xsz;
        KernelCtx inner{pool, ctx.scratch, kc, false};
        // col (cikk x hw_o) = W^T (cikk x cout) * GY_i (cout x hw_o); for
        // identity convs the patch matrix *is* the image gradient.
        gemm(inner, true, false, cikk, hw_o, d.cout, 1.0f, w, cikk, gyi,
             hw_o, 0.0f, identity ? gxi : col, hw_o);
        if (!identity) {
          double* sink = kc != nullptr ? &kc->im2col_seconds : nullptr;
          telemetry::ScopedKernelTimer t(sink);
          if (kc != nullptr) ++kc->im2col_calls;  // counts the col2im dual
          std::fill(gxi, gxi + xsz, 0.0f);
          col2im_add_image(col, d, gxi);
        }
      });
}

void conv2d_bwd_weights(const KernelCtx& ctx, const float* x,
                        const float* gy, float* gw, const ConvDims& d) {
  if (ctx.reference) {
    conv2d_bwd_weights(x, gy, gw, d);
    return;
  }
  const std::size_t hw_o = d.hout() * d.wout();
  const std::size_t cikk = d.cin * d.k * d.k;
  const std::size_t xsz = d.cin * d.h * d.w;
  const std::size_t ysz = d.cout * hw_o;
  const std::size_t wsz = d.cout * cikk;
  const bool identity = conv_identity_col(d);
  const std::size_t col_floats = identity ? 0 : conv_col_floats(d);
  if (d.n == 0) {
    std::fill(gw, gw + wsz, 0.0f);
    return;
  }

  // acc (cout x cikk) += GY_i (cout x hw_o) * col_i^T (hw_o x cikk), over
  // images [i0, i1); beta = 0 on the first image writes acc fully.
  auto run_range = [&](std::size_t i0, std::size_t i1, float* col,
                       float* acc, util::ThreadPool* pool,
                       telemetry::KernelCounters* kc) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* xi = x + i * xsz;
      const float* colp = xi;
      if (!identity) {
        double* sink = kc != nullptr ? &kc->im2col_seconds : nullptr;
        {
          telemetry::ScopedKernelTimer t(sink);
          im2col_image(xi, d, col);
        }
        if (kc != nullptr) ++kc->im2col_calls;
        colp = col;
      }
      KernelCtx inner{pool, ctx.scratch, kc, false};
      gemm(inner, false, true, d.cout, cikk, hw_o, 1.0f, gy + i * ysz, hw_o,
           colp, hw_o, i == i0 ? 0.0f : 1.0f, acc, cikk);
    }
  };

  const bool batch_wide =
      ctx.pool != nullptr && d.n > 1 && ctx.pool->thread_count() > 1;
  if (!batch_wide) {
    ScratchPool local;
    ScratchPool& sp = ctx.scratch != nullptr ? *ctx.scratch : local;
    ScratchPool::Lease lease;
    if (col_floats > 0) lease = sp.acquire(col_floats);
    run_range(0, d.n, lease.data(), gw, ctx.pool, ctx.counters);
    return;
  }

  // Chunked reduction: each task accumulates its image range into a private
  // partial buffer, then the partials are summed into gw (also in
  // parallel, over disjoint element ranges).  No two tasks ever write the
  // same floats.
  const std::size_t nchunks = std::min(ctx.pool->thread_count(), d.n);
  std::vector<float> partial(nchunks * wsz);
  std::vector<telemetry::KernelCounters> slots(
      ctx.counters != nullptr ? nchunks : 0);
  ctx.pool->parallel_for(
      nchunks,
      [&](std::size_t begin, std::size_t end) {
        ScratchPool local;
        ScratchPool& sp = ctx.scratch != nullptr ? *ctx.scratch : local;
        ScratchPool::Lease lease;
        if (col_floats > 0) lease = sp.acquire(col_floats);
        for (std::size_t chunk = begin; chunk < end; ++chunk) {
          const std::size_t i0 = chunk * d.n / nchunks;
          const std::size_t i1 = (chunk + 1) * d.n / nchunks;
          run_range(i0, i1, lease.data(), partial.data() + chunk * wsz,
                    nullptr, slots.empty() ? nullptr : &slots[chunk]);
        }
      },
      /*min_grain=*/1);
  for (const auto& s : slots) fold_counters(ctx.counters, s);
  ctx.pool->parallel_for(wsz, [&](std::size_t begin, std::size_t end) {
    util::copy_bytes(gw + begin, partial.data() + begin,
                     sizeof(float) * (end - begin),
                     "ops::conv2d_bwd_weights");
    for (std::size_t chunk = 1; chunk < nchunks; ++chunk) {
      const float* p = partial.data() + chunk * wsz;
      for (std::size_t j = begin; j < end; ++j) gw[j] += p[j];
    }
  });
}

void conv2d_bwd_bias(const KernelCtx& ctx, const float* gy, float* gb,
                     const ConvDims& d) {
  if (ctx.reference) {
    conv2d_bwd_bias(gy, gb, d);
    return;
  }
  const std::size_t hw_o = d.hout() * d.wout();
  eltwise_launch(ctx, d.cout, d.n * hw_o,
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t co = begin; co < end; ++co) {
                     float total = 0.0f;
                     for (std::size_t b = 0; b < d.n; ++b) {
                       const float* g = gy + (b * d.cout + co) * hw_o;
                       float acc = 0.0f;
                       for (std::size_t i = 0; i < hw_o; ++i) acc += g[i];
                       total += acc;
                     }
                     gb[co] = total;
                   }
                 });
}

void relu_fwd(const KernelCtx& ctx, const float* x, float* y, std::size_t n) {
  if (ctx.reference) {
    relu_fwd(x, y, n);
    return;
  }
  eltwise_launch(ctx, n, 1, [&](std::size_t b, std::size_t e) {
    relu_fwd(x + b, y + b, e - b);
  });
}

void relu_bwd(const KernelCtx& ctx, const float* x, const float* gy,
              float* gx, std::size_t n) {
  if (ctx.reference) {
    relu_bwd(x, gy, gx, n);
    return;
  }
  eltwise_launch(ctx, n, 1, [&](std::size_t b, std::size_t e) {
    relu_bwd(x + b, gy + b, gx + b, e - b);
  });
}

void maxpool2_fwd(const KernelCtx& ctx, const float* x, float* y,
                  std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) {
  if (ctx.reference) {
    maxpool2_fwd(x, y, n, c, h, w);
    return;
  }
  const std::size_t hw = h * w;
  eltwise_launch(ctx, n * c, hw, [&](std::size_t b, std::size_t e) {
    maxpool2_fwd(x + b * hw, y + b * (hw / 4), e - b, 1, h, w);
  });
}

void maxpool2_bwd(const KernelCtx& ctx, const float* x, const float* gy,
                  float* gx, std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) {
  if (ctx.reference) {
    maxpool2_bwd(x, gy, gx, n, c, h, w);
    return;
  }
  const std::size_t hw = h * w;
  eltwise_launch(ctx, n * c, hw, [&](std::size_t b, std::size_t e) {
    maxpool2_bwd(x + b * hw, gy + b * (hw / 4), gx + b * hw, e - b, 1, h, w);
  });
}

void global_avgpool_fwd(const KernelCtx& ctx, const float* x, float* y,
                        std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w) {
  if (ctx.reference) {
    global_avgpool_fwd(x, y, n, c, h, w);
    return;
  }
  const std::size_t hw = h * w;
  eltwise_launch(ctx, n * c, hw, [&](std::size_t b, std::size_t e) {
    global_avgpool_fwd(x + b * hw, y + b, e - b, 1, h, w);
  });
}

void global_avgpool_bwd(const KernelCtx& ctx, const float* gy, float* gx,
                        std::size_t n, std::size_t c, std::size_t h,
                        std::size_t w) {
  if (ctx.reference) {
    global_avgpool_bwd(gy, gx, n, c, h, w);
    return;
  }
  const std::size_t hw = h * w;
  eltwise_launch(ctx, n * c, hw, [&](std::size_t b, std::size_t e) {
    global_avgpool_bwd(gy + b, gx + b * hw, e - b, 1, h, w);
  });
}

void batchnorm_fwd(const KernelCtx& ctx, const float* x, const float* gamma,
                   const float* beta, float* y, float* save_mean,
                   float* save_istd, std::size_t n, std::size_t c,
                   std::size_t h, std::size_t w, float eps) {
  if (ctx.reference) {
    batchnorm_fwd(x, gamma, beta, y, save_mean, save_istd, n, c, h, w, eps);
    return;
  }
  const std::size_t hw = h * w;
  const float m = static_cast<float>(n * hw);
  // Channels are independent; each one reads its plane three times.
  eltwise_launch(ctx, c, 3 * n * hw, [&](std::size_t b, std::size_t e) {
    for (std::size_t ch = b; ch < e; ++ch) {
      bn_fwd_channel(x, gamma, beta, y, save_mean, save_istd, ch, n, c, hw,
                     m, eps);
    }
  });
}

void batchnorm_bwd(const KernelCtx& ctx, const float* x, const float* gamma,
                   const float* save_mean, const float* save_istd,
                   const float* gy, float* gx, float* ggamma, float* gbeta,
                   std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w) {
  if (ctx.reference) {
    batchnorm_bwd(x, gamma, save_mean, save_istd, gy, gx, ggamma, gbeta, n,
                  c, h, w);
    return;
  }
  const std::size_t hw = h * w;
  const float m = static_cast<float>(n * hw);
  eltwise_launch(ctx, c, 3 * n * hw, [&](std::size_t b, std::size_t e) {
    for (std::size_t ch = b; ch < e; ++ch) {
      bn_bwd_channel(x, gamma, save_mean, save_istd, gy, gx, ggamma, gbeta,
                     ch, n, c, hw, m);
    }
  });
}

void dense_fwd(const KernelCtx& ctx, const float* x, const float* w,
               const float* b, float* y, std::size_t n, std::size_t in,
               std::size_t out) {
  if (ctx.reference) {
    dense_fwd(x, w, b, y, n, in, out);
    return;
  }
  // Y (n x out) = X (n x in) * W^T (in x out); W is stored (out x in).
  gemm(ctx, false, true, n, out, in, 1.0f, x, in, w, in, 0.0f, y, out);
  if (b != nullptr) {
    eltwise_launch(ctx, n, out, [&](std::size_t rb, std::size_t re) {
      for (std::size_t i = rb; i < re; ++i) {
        float* yr = y + i * out;
        for (std::size_t o = 0; o < out; ++o) yr[o] += b[o];
      }
    });
  }
}

void dense_bwd_data(const KernelCtx& ctx, const float* w, const float* gy,
                    float* gx, std::size_t n, std::size_t in,
                    std::size_t out) {
  if (ctx.reference) {
    dense_bwd_data(w, gy, gx, n, in, out);
    return;
  }
  // GX (n x in) = GY (n x out) * W (out x in).
  gemm(ctx, false, false, n, in, out, 1.0f, gy, out, w, in, 0.0f, gx, in);
}

void dense_bwd_weights(const KernelCtx& ctx, const float* x, const float* gy,
                       float* gw, std::size_t n, std::size_t in,
                       std::size_t out) {
  if (ctx.reference) {
    dense_bwd_weights(x, gy, gw, n, in, out);
    return;
  }
  // GW (out x in) = GY^T (out x n) * X (n x in).
  gemm(ctx, true, false, out, in, n, 1.0f, gy, out, x, in, 0.0f, gw, in);
}

void dense_bwd_bias(const KernelCtx& ctx, const float* gy, float* gb,
                    std::size_t n, std::size_t out) {
  if (ctx.reference) {
    dense_bwd_bias(gy, gb, n, out);
    return;
  }
  eltwise_launch(ctx, out, n, [&](std::size_t b, std::size_t e) {
    for (std::size_t o = b; o < e; ++o) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += gy[i * out + o];
      gb[o] = acc;
    }
  });
}

float softmax_ce_fwd(const KernelCtx& ctx, const float* logits,
                     const float* labels, float* probs, std::size_t n,
                     std::size_t classes) {
  // Scalar in both tiers: the mean-loss reduction is a sequential sum and
  // the op is a few n*classes exps -- below any useful grain.
  (void)ctx;
  return softmax_ce_fwd(logits, labels, probs, n, classes);
}

void softmax_ce_bwd(const KernelCtx& ctx, const float* probs,
                    const float* labels, float* gx, std::size_t n,
                    std::size_t classes) {
  if (ctx.reference) {
    softmax_ce_bwd(probs, labels, gx, n, classes);
    return;
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  eltwise_launch(ctx, n, classes, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const auto label = static_cast<std::size_t>(labels[i]);
      for (std::size_t cc = 0; cc < classes; ++cc) {
        const float p = probs[i * classes + cc];
        gx[i * classes + cc] = (p - (cc == label ? 1.0f : 0.0f)) * inv_n;
      }
    }
  });
}

void add_fwd(const KernelCtx& ctx, const float* a, const float* b, float* y,
             std::size_t n) {
  if (ctx.reference) {
    add_fwd(a, b, y, n);
    return;
  }
  eltwise_launch(ctx, n, 1, [&](std::size_t i0, std::size_t i1) {
    add_fwd(a + i0, b + i0, y + i0, i1 - i0);
  });
}

void concat_fwd(const KernelCtx& ctx, const float* a, const float* b,
                float* y, std::size_t n, std::size_t ca, std::size_t cb,
                std::size_t h, std::size_t w) {
  if (ctx.reference) {
    concat_fwd(a, b, y, n, ca, cb, h, w);
    return;
  }
  // Batch the per-image row copies across the pool; each subrange delegates
  // to the scalar kernel, whose copies already route through copy_bytes.
  const std::size_t hw = h * w;
  eltwise_launch(ctx, n, (ca + cb) * hw, [&](std::size_t i0, std::size_t i1) {
    concat_fwd(a + i0 * ca * hw, b + i0 * cb * hw,
               y + i0 * (ca + cb) * hw, i1 - i0, ca, cb, h, w);
  });
}

void concat_bwd(const KernelCtx& ctx, const float* gy, float* ga, float* gb,
                std::size_t n, std::size_t ca, std::size_t cb, std::size_t h,
                std::size_t w) {
  if (ctx.reference) {
    concat_bwd(gy, ga, gb, n, ca, cb, h, w);
    return;
  }
  const std::size_t hw = h * w;
  eltwise_launch(ctx, n, (ca + cb) * hw, [&](std::size_t i0, std::size_t i1) {
    concat_bwd(gy + i0 * (ca + cb) * hw, ga + i0 * ca * hw,
               gb + i0 * cb * hw, i1 - i0, ca, cb, h, w);
  });
}

void embedding_gather(const KernelCtx& ctx, const float* table,
                      const float* indices, float* out, std::size_t batch,
                      std::size_t dim) {
  if (ctx.reference) {
    embedding_gather(table, indices, out, batch, dim);
    return;
  }
  eltwise_launch(ctx, batch, dim, [&](std::size_t b, std::size_t e) {
    embedding_gather(table, indices + b, out + b * dim, e - b, dim);
  });
}

void embedding_scatter_sgd(const KernelCtx& ctx, float* table,
                           const float* indices, const float* grads,
                           float lr, std::size_t batch, std::size_t dim) {
  // Serial in both tiers: duplicate indices alias table rows -- see the
  // header.
  (void)ctx;
  embedding_scatter_sgd(table, indices, grads, lr, batch, dim);
}

void sgd_update(const KernelCtx& ctx, float* w, const float* g, float lr,
                std::size_t n) {
  if (ctx.reference) {
    sgd_update(w, g, lr, n);
    return;
  }
  eltwise_launch(ctx, n, 1, [&](std::size_t b, std::size_t e) {
    sgd_update(w + b, g + b, lr, e - b);
  });
}

void accumulate(const KernelCtx& ctx, float* acc, const float* g,
                std::size_t n) {
  if (ctx.reference) {
    accumulate(acc, g, n);
    return;
  }
  eltwise_launch(ctx, n, 1, [&](std::size_t b, std::size_t e) {
    accumulate(acc + b, g + b, e - b);
  });
}

}  // namespace ca::dnn::real
