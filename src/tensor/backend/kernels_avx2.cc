// AVX2/FMA kernel backend. This TU is the ONLY one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt, enforced by the
// arch-intrinsics-scoped lint rule); when the toolchain lacks the flags the
// A3CS_BACKEND_AVX2_TU define is absent and the stub at the bottom reports
// the backend unavailable. Registration is additionally gated at runtime on
// __builtin_cpu_supports("avx2"/"fma"), so a binary built here still runs
// (on the scalar backend) on older x86 hosts.
//
// Numerics: deterministic at every thread count — shard boundaries come from
// the caller and every per-element GEMM reduction is one FMA chain over kk
// ascending — but NOT bit-identical to the scalar backend: FMA fuses the
// multiply-add rounding step.
// im2col (pure data movement) and col2im (same per-element add order) ARE
// bit-exact with scalar. Cross-backend agreement is enforced under the ULP
// tolerance of tensor/backend/check.h by tests/backend_check_test.cc.
#include "tensor/backend/backend.h"

#if defined(A3CS_BACKEND_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

namespace a3cs::tensor::backend {

namespace {

// 6x16 register tile: 12 ymm accumulators + 2 B lanes + 1 broadcast A value
// = 15 of the 16 ymm registers live across the kk loop, no spills.
constexpr int kMR = 6;   // A rows per micro-tile
constexpr int kNR = 16;  // C columns per micro-tile (two 8-lane vectors)

// Packs op(A)[i0:i0+kMR, :] into kk-major order (kMR consecutive values per
// kk), zero-padding rows past r1 so the micro-kernel never branches on mr.
void pack_a_strip(const float* a, bool trans_a, int a_cols, int i0, int r1,
                  int k, float* dst) {
  for (int kk = 0; kk < k; ++kk) {
    float* drow = dst + static_cast<std::size_t>(kk) * kMR;
    for (int r = 0; r < kMR; ++r) {
      const int i = i0 + r;
      drow[r] = (i < r1)
                    ? (trans_a ? a[static_cast<std::size_t>(kk) * a_cols + i]
                               : a[static_cast<std::size_t>(i) * a_cols + kk])
                    : 0.0f;
    }
  }
}

// Packs op(B)[:, j0:j0+kNR] into kk-major order (kNR consecutive values per
// kk), zero-padding columns past n. Unifies the trans_b cases: the micro-
// kernel always streams two contiguous 8-lane loads per kk.
void pack_b_panel(const float* b, bool trans_b, int b_cols, int j0, int n,
                  int k, float* dst) {
  const int nr = std::min(kNR, n - j0);
  if (!trans_b) {
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
      float* drow = dst + static_cast<std::size_t>(kk) * kNR;
      for (int j = 0; j < nr; ++j) drow[j] = brow[j];
      for (int j = nr; j < kNR; ++j) drow[j] = 0.0f;
    }
  } else {
    for (int kk = 0; kk < k; ++kk) {
      float* drow = dst + static_cast<std::size_t>(kk) * kNR;
      for (int j = 0; j < nr; ++j) {
        drow[j] = b[static_cast<std::size_t>(j0 + j) * b_cols + kk];
      }
      for (int j = nr; j < kNR; ++j) drow[j] = 0.0f;
    }
  }
}

// The 6x16 FMA micro-kernel over one packed A strip and one packed B panel.
// 12 explicitly named ymm accumulators (the compiler will not reliably keep
// a __m256[6][2] array in registers) + 2 B lanes + 1 A broadcast = 15 live
// ymm registers across the kk loop. `cr` points at C[i0, j0]; `ldc` is the
// storage row width of C. When beta == 0 the tile never reads C.
inline void micro_6x16(const float* ap, const float* bp, int k, float* cr,
                       int ldc, int mr, int nr, __m256 alpha_v, __m256 beta_v,
                       float alpha, float beta) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 av = _mm256_broadcast_ss(ap + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(ap + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(ap + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
    ap += kMR;
    bp += kNR;
  }
  if (mr == kMR && nr == kNR) {
    if (beta == 0.0f) {
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c00));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c01));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c10));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c11));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c20));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c21));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c30));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c31));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c40));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c41));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c50));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c51));
    } else {
      const auto blend = [&](float* p, __m256 acc0, __m256 acc1) {
        _mm256_storeu_ps(p, _mm256_fmadd_ps(beta_v, _mm256_loadu_ps(p),
                                            _mm256_mul_ps(alpha_v, acc0)));
        _mm256_storeu_ps(
            p + 8, _mm256_fmadd_ps(beta_v, _mm256_loadu_ps(p + 8),
                                   _mm256_mul_ps(alpha_v, acc1)));
      };
      blend(cr, c00, c01);
      blend(cr + ldc, c10, c11);
      blend(cr + 2 * static_cast<std::size_t>(ldc), c20, c21);
      blend(cr + 3 * static_cast<std::size_t>(ldc), c30, c31);
      blend(cr + 4 * static_cast<std::size_t>(ldc), c40, c41);
      blend(cr + 5 * static_cast<std::size_t>(ldc), c50, c51);
    }
    return;
  }
  // Edge tile: spill the accumulators and apply alpha/beta only to the
  // in-range cells (padded lanes must not touch C).
  alignas(32) float tmp[kMR][kNR];
  _mm256_store_ps(tmp[0], c00);
  _mm256_store_ps(tmp[0] + 8, c01);
  _mm256_store_ps(tmp[1], c10);
  _mm256_store_ps(tmp[1] + 8, c11);
  _mm256_store_ps(tmp[2], c20);
  _mm256_store_ps(tmp[2] + 8, c21);
  _mm256_store_ps(tmp[3], c30);
  _mm256_store_ps(tmp[3] + 8, c31);
  _mm256_store_ps(tmp[4], c40);
  _mm256_store_ps(tmp[4] + 8, c41);
  _mm256_store_ps(tmp[5], c50);
  _mm256_store_ps(tmp[5] + 8, c51);
  for (int r = 0; r < mr; ++r) {
    float* crow = cr + static_cast<std::size_t>(r) * ldc;
    if (beta == 0.0f) {
      for (int j = 0; j < nr; ++j) crow[j] = alpha * tmp[r][j];
    } else {
      for (int j = 0; j < nr; ++j) crow[j] = beta * crow[j] + alpha * tmp[r][j];
    }
  }
}

// C[r0:r1, :] = alpha * op(A)[r0:r1, :] @ op(B) + beta * C[r0:r1, :].
// Per element the reduction is one FMA chain over kk ascending, independent
// of the strip/panel an element lands in, so results do not depend on the
// shard boundaries (= thread count).
void gemm_rows(const float* a, bool trans_a, const float* b, bool trans_b,
               float* c, int r0, int r1, int k, int n, float alpha, float beta,
               int a_cols, int b_cols) {
  if (r1 <= r0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate reduction: C = beta * C (never read C when beta == 0).
    for (int i = r0; i < r1; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * n;
      if (beta == 0.0f) {
        std::fill(crow, crow + n, 0.0f);
      } else {
        for (int j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }

  const int rows = r1 - r0;
  const int strips = (rows + kMR - 1) / kMR;
  std::vector<float> packed_a(static_cast<std::size_t>(strips) * k * kMR);
  for (int s = 0; s < strips; ++s) {
    pack_a_strip(a, trans_a, a_cols, r0 + s * kMR, r1, k,
                 packed_a.data() + static_cast<std::size_t>(s) * k * kMR);
  }
  std::vector<float> packed_b(static_cast<std::size_t>(k) * kNR);

  const __m256 alpha_v = _mm256_set1_ps(alpha);
  const __m256 beta_v = _mm256_set1_ps(beta);
  for (int j0 = 0; j0 < n; j0 += kNR) {
    const int nr = std::min(kNR, n - j0);
    pack_b_panel(b, trans_b, b_cols, j0, n, k, packed_b.data());
    for (int s = 0; s < strips; ++s) {
      const int i0 = r0 + s * kMR;
      const int mr = std::min(kMR, r1 - i0);
      micro_6x16(packed_a.data() + static_cast<std::size_t>(s) * k * kMR,
                 packed_b.data(), k, c + static_cast<std::size_t>(i0) * n + j0,
                 n, mr, nr, alpha_v, beta_v, alpha, beta);
    }
  }
}

// im2col rows. Pure data movement, bit-exact with scalar. The stride==1 fast
// path turns the gather of each output row segment into prefix-zeros, one
// contiguous copy and suffix-zeros.
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
    // Valid ox range for stride==1: 0 <= ox - pad + kw_off < w.
    const int x_lo = std::max(0, g.pad - kw_off);
    const int x_hi = std::min(g.ow, g.w + g.pad - kw_off);
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
        if (g.stride == 1) {
          if (x_lo > 0) std::fill(ocell, ocell + std::min(x_lo, g.ow), 0.0f);
          if (x_hi > x_lo) {
            std::memcpy(ocell + x_lo, irow + (x_lo - g.pad + kw_off),
                        static_cast<std::size_t>(x_hi - x_lo) * sizeof(float));
          }
          if (x_hi < g.ow) {
            std::fill(ocell + std::max(x_hi, 0), ocell + g.ow, 0.0f);
          }
          ocell += g.ow;
        } else {
          for (int ox = 0; ox < g.ow; ++ox) {
            const int ix = ox * g.stride - g.pad + kw_off;
            *ocell++ = (ix < 0 || ix >= g.w) ? 0.0f : irow[ix];
          }
        }
      }
    }
  }
}

// col2im channels. Bit-exact with scalar: every image cell receives its adds
// in the same ascending column-row order; the stride==1 middle segment is an
// elementwise 8-lane vector add, which does not reorder any per-cell sum.
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
    const int x_lo = std::max(0, g.pad - kw_off);
    const int x_hi = std::min(g.ow, g.w + g.pad - kw_off);
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
        if (g.stride == 1 && x_hi > x_lo) {
          float* dst = orow + (x_lo - g.pad + kw_off);
          const float* src = icell + x_lo;
          const int len = x_hi - x_lo;
          int j = 0;
          for (; j + 8 <= len; j += 8) {
            _mm256_storeu_ps(dst + j, _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                                    _mm256_loadu_ps(src + j)));
          }
          for (; j < len; ++j) dst[j] += src[j];
          icell += g.ow;
        } else {
          for (int ox = 0; ox < g.ow; ++ox) {
            const int ix = ox * g.stride - g.pad + kw_off;
            const float v = *icell++;
            if (ix >= 0 && ix < g.w) orow[ix] += v;
          }
        }
      }
    }
  }
}

}  // namespace

const Backend* avx2_backend() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  static const bool supported = false;
#endif
  if (!supported) return nullptr;
  static const Backend kAvx2{"avx2", gemm_rows, im2col_rows,
                             col2im_channels};
  return &kAvx2;
}

}  // namespace a3cs::tensor::backend

#else  // !A3CS_BACKEND_AVX2_TU

namespace a3cs::tensor::backend {

// Toolchain without AVX2/FMA support: the backend is never available.
const Backend* avx2_backend() { return nullptr; }

}  // namespace a3cs::tensor::backend

#endif
