// The blocked-scalar reference backend: the portable GEMM, im2col, col2im,
// depthwise forward and backward, ReLU and RMSProp kernels. Compiled with the baseline flags only (no
// -mavx2/-mfma), so it runs on every host; it is the reference the avx2
// backend is checked against.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "tensor/backend/backend.h"

namespace a3cs::tensor::backend {

namespace {

// Register-tile sizes of the blocked GEMM micro-kernel. Per C element the
// reduction always runs kk ascending, so results do not depend on the tile
// sizes or on which shard computed the element. 4x8 = 32 accumulator floats
// fits the baseline-SSE2 register file (16 xmm) without spilling.
constexpr int kMR = 4;  // A rows per micro-tile
constexpr int kNR = 8;  // C columns accumulated in registers

inline float a_at(const float* a, bool trans_a, int a_cols, int i, int kk) {
  return trans_a ? a[static_cast<std::size_t>(kk) * a_cols + i]
                 : a[static_cast<std::size_t>(i) * a_cols + kk];
}

// Writes an accumulator tile back to C with the alpha/beta scaling applied
// exactly once per output element.
inline void store_tile(const float (*acc)[kNR], float* c, int i0, int j0,
                       int mr, int nr, int n, float alpha, float beta) {
  for (int r = 0; r < mr; ++r) {
    float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
    if (beta == 0.0f) {
      for (int j = 0; j < nr; ++j) crow[j] = alpha * acc[r][j];
    } else {
      for (int j = 0; j < nr; ++j) {
        crow[j] = beta * crow[j] + alpha * acc[r][j];
      }
    }
  }
}

// Full kMR x kNR tile of the !trans_b path with COMPILE-TIME loop bounds:
// at -O2 the constant-bound loops fully unroll and the accumulator tile
// lives in registers for the whole kk reduction, so each A value and B row
// segment is reused kMR times and C is touched once instead of k times.
// (Variable-bound edge tiles spill the accumulator and run ~3x slower.)
template <bool TransA>
inline void micro_tile_full(const float* a, const float* b, float* c, int i0,
                            int j0, int k, int n, float alpha, float beta,
                            int a_cols, int b_cols) {
  float acc[kMR][kNR] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
    for (int r = 0; r < kMR; ++r) {
      const float av = a_at(a, TransA, a_cols, i0 + r, kk);
      for (int j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  store_tile(acc, c, i0, j0, kMR, kNR, n, alpha, beta);
}

// C[r0:r1, :] = alpha * A[r0:r1, :] @ B + beta * C[r0:r1, :].
// Every C element reduces kk ascending on every path (full tiles, edge
// tiles, trans_b dot products), so the result is independent of the tiling
// and of which shard computed it.
void gemm_rows(const float* a, bool trans_a, const float* b, bool trans_b,
               float* c, int r0, int r1, int k, int n, float alpha, float beta,
               int a_cols, int b_cols) {
  for (int i0 = r0; i0 < r1; i0 += kMR) {
    const int mr = std::min(kMR, r1 - i0);
    int j_start = 0;
    if (!trans_b && mr == kMR) {
      // Fast path over the full tiles of this row panel.
      for (; j_start + kNR <= n; j_start += kNR) {
        if (trans_a) {
          micro_tile_full<true>(a, b, c, i0, j_start, k, n, alpha, beta,
                                a_cols, b_cols);
        } else {
          micro_tile_full<false>(a, b, c, i0, j_start, k, n, alpha, beta,
                                 a_cols, b_cols);
        }
      }
      if (j_start == n) continue;
    }
    for (int j0 = j_start; j0 < n; j0 += kNR) {
      const int nr = std::min(kNR, n - j0);
      float acc[kMR][kNR] = {};
      if (!trans_b) {
        for (int kk = 0; kk < k; ++kk) {
          const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
          for (int r = 0; r < mr; ++r) {
            const float av = a_at(a, trans_a, a_cols, i0 + r, kk);
            for (int j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
          }
        }
      } else {
        // B^T case: both reductions run over contiguous rows of A and B.
        for (int j = 0; j < nr; ++j) {
          const float* bcol = b + static_cast<std::size_t>(j0 + j) * b_cols;
          for (int r = 0; r < mr; ++r) {
            float sum = 0.0f;
            if (!trans_a) {
              const float* arow = a + static_cast<std::size_t>(i0 + r) * a_cols;
              for (int kk = 0; kk < k; ++kk) sum += arow[kk] * bcol[kk];
            } else {
              for (int kk = 0; kk < k; ++kk) {
                sum += a_at(a, trans_a, a_cols, i0 + r, kk) * bcol[kk];
              }
            }
            acc[r][j] = sum;
          }
        }
      }
      store_tile(acc, c, i0, j0, mr, nr, n, alpha, beta);
    }
  }
}

// Fills column-matrix rows [cr0, cr1); each row is one (channel, ky, kx)
// triple, filled column-major over (n, oy, ox) with zero padding.
void im2col_rows(const float* in, const ConvGeometry& g,
                 const TapTable& /*taps*/, float* out, int cr0, int cr1) {
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  const int col_cols = g.n * ohw;
  for (int cr = cr0; cr < cr1; ++cr) {
    const int kw_off = cr % g.kw;
    const int kh_off = (cr / g.kw) % g.kh;
    const int ch = cr / (g.kw * g.kh);
    float* orow = out + static_cast<std::size_t>(cr) * col_cols;
    for (int n = 0; n < g.n; ++n) {
      const float* img = in + (static_cast<std::size_t>(n) * g.c + ch) * hw;
      float* ocell = orow + static_cast<std::size_t>(n) * ohw;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride - g.pad + kh_off;
        if (iy < 0 || iy >= g.h) {
          std::fill(ocell, ocell + g.ow, 0.0f);
          ocell += g.ow;
          continue;
        }
        const float* irow = img + static_cast<std::size_t>(iy) * g.w;
        for (int ox = 0; ox < g.ow; ++ox) {
          const int ix = ox * g.stride - g.pad + kw_off;
          *ocell++ = (ix < 0 || ix >= g.w) ? 0.0f : irow[ix];
        }
      }
    }
  }
}

// Scatter-adds the column rows of channels [c0, c1) into the pre-zeroed
// gradient image, walking column-rows in the same ascending order as the
// serial loop so the accumulation order stays bit-exact.
void col2im_channels(const float* in, const ConvGeometry& g, float* out,
                     int c0, int c1) {
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  const int col_cols = g.n * ohw;
  const int khw = g.kh * g.kw;
  for (int cr = c0 * khw; cr < c1 * khw; ++cr) {
    const int kw_off = cr % g.kw;
    const int kh_off = (cr / g.kw) % g.kh;
    const int ch = cr / (g.kw * g.kh);
    const float* irow = in + static_cast<std::size_t>(cr) * col_cols;
    for (int n = 0; n < g.n; ++n) {
      float* img = out + (static_cast<std::size_t>(n) * g.c + ch) * hw;
      const float* icell = irow + static_cast<std::size_t>(n) * ohw;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride - g.pad + kh_off;
        if (iy < 0 || iy >= g.h) {
          icell += g.ow;
          continue;
        }
        float* orow = img + static_cast<std::size_t>(iy) * g.w;
        for (int ox = 0; ox < g.ow; ++ox) {
          const int ix = ox * g.stride - g.pad + kw_off;
          const float v = *icell++;
          if (ix >= 0 && ix < g.w) orow[ix] += v;
        }
      }
    }
  }
}

// Depthwise forward, one (sample, channel) plane at a time through raw plane
// pointers, each window clamped to its in-bounds taps once. Input row
// pointers start at the first in-bounds tap, so none points before its
// buffer. Taps run ky, then kx, ascending. The tap table is not needed here.
void depthwise_forward(const float* x, const float* weight, const float* bias,
                       const ConvGeometry& g, const TapTable& /*taps*/,
                       float* out) {
  const std::size_t khw = static_cast<std::size_t>(g.kh) * g.kw;
  const std::size_t in_plane = static_cast<std::size_t>(g.h) * g.w;
  const std::size_t out_plane = static_cast<std::size_t>(g.oh) * g.ow;
  for (int n = 0; n < g.n; ++n) {
    for (int c = 0; c < g.c; ++c) {
      const std::size_t plane = static_cast<std::size_t>(n) * g.c + c;
      const float* xp = x + plane * in_plane;
      float* op = out + plane * out_plane;
      const float* w = weight + c * khw;
      const float b = bias[c];
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy0 = oy * g.stride - g.pad;
        const TapRange ty = taps_inside(iy0, g.kh, g.h);
        float* orow = op + static_cast<std::size_t>(oy) * g.ow;
        for (int ox = 0; ox < g.ow; ++ox) {
          const int ix0 = ox * g.stride - g.pad;
          const TapRange tx = taps_inside(ix0, g.kw, g.w);
          float acc = b;
          for (int ky = ty.lo; ky < ty.hi; ++ky) {
            const float* wrow = w + ky * g.kw + tx.lo;
            const float* xrow =
                xp + static_cast<std::size_t>(iy0 + ky) * g.w + (ix0 + tx.lo);
            for (int i = 0; i < tx.hi - tx.lo; ++i) acc += wrow[i] * xrow[i];
          }
          orow[ox] = acc;
        }
      }
    }
  }
}

// Depthwise backward, one (sample, channel) plane at a time through raw
// plane pointers, each window clamped to its in-bounds taps once. Input row
// pointers start at the first in-bounds tap, so none points before its
// buffer. Outputs run oy, then ox, and their taps ky, then kx, ascending.
void depthwise_backward(const float* x, const float* weight,
                        const float* grad_out, const ConvGeometry& g,
                        const TapTable& /*taps*/, float* grad_in,
                        float* weight_grad, float* bias_grad) {
  const std::size_t khw = static_cast<std::size_t>(g.kh) * g.kw;
  const std::size_t in_plane = static_cast<std::size_t>(g.h) * g.w;
  const std::size_t out_plane = static_cast<std::size_t>(g.oh) * g.ow;
  std::fill(grad_in, grad_in + static_cast<std::size_t>(g.n) * g.c * in_plane,
            0.0f);
  for (int n = 0; n < g.n; ++n) {
    for (int c = 0; c < g.c; ++c) {
      const std::size_t plane = static_cast<std::size_t>(n) * g.c + c;
      const float* xp = x + plane * in_plane;
      float* gip = grad_in + plane * in_plane;
      const float* gop = grad_out + plane * out_plane;
      const float* w = weight + c * khw;
      float* wg = weight_grad + c * khw;
      double bias_acc = 0.0;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy0 = oy * g.stride - g.pad;
        const TapRange ty = taps_inside(iy0, g.kh, g.h);
        const float* gorow = gop + static_cast<std::size_t>(oy) * g.ow;
        for (int ox = 0; ox < g.ow; ++ox) {
          const float go = gorow[ox];
          bias_acc += go;
          if (go == 0.0f) continue;
          const int ix0 = ox * g.stride - g.pad;
          const TapRange tx = taps_inside(ix0, g.kw, g.w);
          for (int ky = ty.lo; ky < ty.hi; ++ky) {
            const std::size_t row =
                static_cast<std::size_t>(iy0 + ky) * g.w + (ix0 + tx.lo);
            const float* xrow = xp + row;
            float* girow = gip + row;
            const float* wrow = w + ky * g.kw + tx.lo;
            float* wgrow = wg + ky * g.kw + tx.lo;
            for (int i = 0; i < tx.hi - tx.lo; ++i) {
              wgrow[i] += go * xrow[i];
              girow[i] += go * wrow[i];
            }
          }
        }
      }
      bias_grad[c] += static_cast<float>(bias_acc);
    }
  }
}

// ReLU without a branch per element: the comparison becomes an all-ones or
// all-zero mask that clears the element's bits (to +0) where it holds.
inline std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

inline float from_bits(std::uint32_t u) {
  float v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

void relu_forward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t negative = 0u - static_cast<std::uint32_t>(x[i] < 0.0f);
    y[i] = from_bits(bits_of(x[i]) & ~negative);
  }
}

void relu_backward(const float* x, const float* g, float* gi, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t off = 0u - static_cast<std::uint32_t>(x[i] <= 0.0f);
    gi[i] = from_bits(bits_of(g[i]) & ~off);
  }
}

void rmsprop_step(float* value, const float* grad, float* sq_avg,
                  std::int64_t n, double lr, double alpha, double eps) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double g = grad[i];
    sq_avg[i] = static_cast<float>(alpha * sq_avg[i] + (1.0 - alpha) * g * g);
    value[i] -= static_cast<float>(
        lr * g / (std::sqrt(static_cast<double>(sq_avg[i])) + eps));
  }
}

}  // namespace

const Backend& scalar_backend() {
  static const Backend kScalar{"scalar",          gemm_rows,
                               im2col_rows,       col2im_channels,
                               depthwise_forward, depthwise_backward,
                               relu_forward,      relu_backward,
                               rmsprop_step};
  return kScalar;
}

}  // namespace a3cs::tensor::backend
