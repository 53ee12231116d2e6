// The blocked-scalar reference backend: the portable GEMM, im2col and col2im
// kernels. Compiled with the baseline flags only (no -mavx2/-mfma), so it
// runs on every host; it is the reference the avx2 backend is checked against.
#include <algorithm>
#include <cstddef>

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
void im2col_rows(const float* in, const ConvGeometry& g, float* out, int cr0,
                 int cr1) {
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

}  // namespace

const Backend& scalar_backend() {
  static const Backend kScalar{"scalar", gemm_rows, im2col_rows,
                               col2im_channels};
  return kScalar;
}

}  // namespace a3cs::tensor::backend
