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
// ascending. The GEMM is NOT bit-identical to the scalar backend: its
// explicit FMA intrinsics fuse the multiply-add rounding step, and
// cross-backend agreement is enforced under the ULP tolerance of
// tensor/backend/check.h by tests/backend_check_test.cc.
// Every other entry IS bit-exact with scalar: im2col (pure data movement),
// col2im (same per-element add order), ReLU (same selects), depthwise
// forward and backward (same per-element multiply and add sequence, one
// channel per lane) and RMSProp (same double expressions; IEEE sqrt and
// division are correctly rounded). The TU is compiled with
// -ffp-contract=off so the compiler never fuses a written mul + add into an
// FMA behind the code's back.
#include "tensor/backend/backend.h"

#if defined(A3CS_BACKEND_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

// Output planes of at most this many positions take the gather path of
// im2col: their rows are too short for the per-row copies to pay.
constexpr int kGatherMaxOhw = 64;

// Lanes [0, count) of an 8-lane mask set, the rest clear.
inline __m256i lanes_below(int count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(count),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// Gathers the 8 elements of `plane` at tap offsets `idx`; lanes whose offset
// is -1 (padding, or past the end of the row) read nothing and give +0.
inline __m256 gather_taps(const float* plane, __m256i idx, __m256 valid) {
  return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), plane, idx, valid, 4);
}

inline __m256 valid_taps(__m256i idx) {
  return _mm256_castsi256_ps(_mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1)));
}

// im2col rows. Pure data movement, bit-exact with scalar. A 1x1, stride 1,
// unpadded row is the channel's planes back to back. Rows of at most
// kGatherMaxOhw positions per sample take their tap offsets from the tap
// table and write each sample with 8-lane masked gathers.
// Longer rows copy each output row segment: for stride 1 prefix-zeros, one
// contiguous copy and suffix-zeros.
void im2col_rows(const float* in, const ConvGeometry& g, const TapTable& taps,
                 float* out, int cr0, int cr1) {
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  const int col_cols = g.n * ohw;
  if (g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0) {
    for (int ch = cr0; ch < cr1; ++ch) {
      float* orow = out + static_cast<std::size_t>(ch) * col_cols;
      for (int n = 0; n < g.n; ++n) {
        std::memcpy(orow + static_cast<std::size_t>(n) * ohw,
                    in + (static_cast<std::size_t>(n) * g.c + ch) * hw,
                    static_cast<std::size_t>(hw) * sizeof(float));
      }
    }
    return;
  }
  if (ohw <= kGatherMaxOhw) {
    const int khw = g.kh * g.kw;
    const int groups = taps.row / 8;
    const __m256i tail = lanes_below(ohw - (groups - 1) * 8);
    for (int cr = cr0; cr < cr1; ++cr) {
      const int ch = cr / khw;
      const std::int32_t* tap =
          taps.offsets.data() + static_cast<std::size_t>(cr % khw) * taps.row;
      float* orow = out + static_cast<std::size_t>(cr) * col_cols;
      for (int n = 0; n < g.n; ++n) {
        const float* img = in + (static_cast<std::size_t>(n) * g.c + ch) * hw;
        float* ocell = orow + static_cast<std::size_t>(n) * ohw;
        for (int gi = 0; gi < groups; ++gi) {
          const __m256i idx = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(tap + gi * 8));
          const __m256 v = gather_taps(img, idx, valid_taps(idx));
          if (gi + 1 < groups) {
            _mm256_storeu_ps(ocell + gi * 8, v);
          } else {
            _mm256_maskstore_ps(ocell + gi * 8, tail, v);
          }
        }
      }
    }
    return;
  }
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

// The depthwise kernels hold one channel per lane: a Lanes value is one
// position of 8 channel planes of a sample, so every lane is live at any
// plane size and a tap is valid for all 8 lanes or none. Channels past the
// last full group of 8 run in the low lanes of a last group; its other lanes
// read +0 and are never written back.
struct alignas(32) Lanes {
  float v[8];
};

inline __m256 load(const Lanes& l) { return _mm256_load_ps(l.v); }
inline void store(Lanes& l, __m256 v) { _mm256_store_ps(l.v, v); }

// Transposes the 8x8 block r[lane][position] into r[position][lane].
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// dst[p].v[l] = src[l * plane + p] for the `lanes` consecutive planes of
// `plane` floats at src; lanes past `lanes` read +0.
void planes_to_lanes(const float* src, int plane, int lanes, Lanes* dst) {
  int p = 0;
  if (lanes == 8) {
    for (; p + 8 <= plane; p += 8) {
      __m256 r[8];
      for (int l = 0; l < 8; ++l) {
        r[l] = _mm256_loadu_ps(src + static_cast<std::size_t>(l) * plane + p);
      }
      transpose8(r);
      for (int j = 0; j < 8; ++j) store(dst[p + j], r[j]);
    }
  }
  const __m256i stride = _mm256_mullo_epi32(
      _mm256_set1_epi32(plane), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 live = _mm256_castsi256_ps(lanes_below(lanes));
  for (; p < plane; ++p) {
    store(dst[p], _mm256_mask_i32gather_ps(_mm256_setzero_ps(), src + p,
                                           stride, live, 4));
  }
}

// The inverse of planes_to_lanes for the `lanes` low lanes:
// dst[l * plane + p] = src[p].v[l].
void lanes_to_planes(const Lanes* src, int plane, int lanes, float* dst) {
  int p = 0;
  if (lanes == 8) {
    for (; p + 8 <= plane; p += 8) {
      __m256 r[8];
      for (int j = 0; j < 8; ++j) r[j] = load(src[p + j]);
      transpose8(r);
      for (int l = 0; l < 8; ++l) {
        _mm256_storeu_ps(dst + static_cast<std::size_t>(l) * plane + p, r[l]);
      }
    }
  }
  for (; p < plane; ++p) {
    for (int l = 0; l < lanes; ++l) {
      dst[static_cast<std::size_t>(l) * plane + p] = src[p].v[l];
    }
  }
}

// Depthwise forward in channel lanes. For each group of 8 channels the
// filters and, per sample, the input planes are brought into lane order;
// each output position starts at the bias and, for each of its valid taps
// (ky, then kx, ascending), computes acc + w * x with a separate multiply
// and add (this TU is built with -ffp-contract=off). Padding taps add
// nothing, not a zero product, so every element takes exactly the scalar
// backend's operations, -0, NaN and Inf included.
void depthwise_forward(const float* x, const float* weight, const float* bias,
                       const ConvGeometry& g, const TapTable& taps,
                       float* out) {
  const int khw = g.kh * g.kw;
  const int in_plane = g.h * g.w;
  const int ohw = g.oh * g.ow;
  std::vector<Lanes> wl(khw), xl(in_plane), yl(ohw);
  for (int c0 = 0; c0 < g.c; c0 += 8) {
    const int lanes = std::min(8, g.c - c0);
    planes_to_lanes(weight + static_cast<std::size_t>(c0) * khw, khw, lanes,
                    wl.data());
    const __m256 b = _mm256_maskload_ps(bias + c0, lanes_below(lanes));
    for (int n = 0; n < g.n; ++n) {
      const std::size_t plane0 = static_cast<std::size_t>(n) * g.c + c0;
      planes_to_lanes(x + plane0 * in_plane, in_plane, lanes, xl.data());
      const TapTable::Tap* t = taps.valid.data();
      for (int p = 0; p < ohw; ++p) {
        __m256 acc = b;
        for (const TapTable::Tap* end = taps.valid.data() + taps.first[p + 1];
             t != end; ++t) {
          acc = _mm256_add_ps(
              acc, _mm256_mul_ps(load(wl[t->tap]), load(xl[t->offset])));
        }
        store(yl[p], acc);
      }
      lanes_to_planes(yl.data(), ohw, lanes, out + plane0 * ohw);
    }
  }
}

// Depthwise backward in the same channel lanes. Per group of 8 channels the
// weight gradients are brought into lane order once, accumulate over n, oy,
// ox ascending and are written back once. Per sample, dx accumulates in a
// lane-order scratch that starts at +0, and each upstream gradient go is
// applied as blend(acc, acc + go * v, go != 0): the unordered compare keeps
// a NaN go, and -0 and +0 are skipped, as the scalar `go == 0` skip does.
// The bias gradient sums each plane's go in double, two 4-lane halves, and
// is added to the float bias gradient once per sample.
void depthwise_backward(const float* x, const float* weight,
                        const float* grad_out, const ConvGeometry& g,
                        const TapTable& taps, float* grad_in,
                        float* weight_grad, float* bias_grad) {
  const int khw = g.kh * g.kw;
  const int in_plane = g.h * g.w;
  const int ohw = g.oh * g.ow;
  std::vector<Lanes> wl(khw), wgl(khw), xl(in_plane), gl(ohw), dxl(in_plane);
  const __m256 zero = _mm256_setzero_ps();
  for (int c0 = 0; c0 < g.c; c0 += 8) {
    const int lanes = std::min(8, g.c - c0);
    const __m256i live_lanes = lanes_below(lanes);
    planes_to_lanes(weight + static_cast<std::size_t>(c0) * khw, khw, lanes,
                    wl.data());
    planes_to_lanes(weight_grad + static_cast<std::size_t>(c0) * khw, khw,
                    lanes, wgl.data());
    for (int n = 0; n < g.n; ++n) {
      const std::size_t plane0 = static_cast<std::size_t>(n) * g.c + c0;
      planes_to_lanes(x + plane0 * in_plane, in_plane, lanes, xl.data());
      planes_to_lanes(grad_out + plane0 * ohw, ohw, lanes, gl.data());
      for (Lanes& d : dxl) store(d, zero);
      __m256d bias_lo = _mm256_setzero_pd(), bias_hi = _mm256_setzero_pd();
      const TapTable::Tap* t = taps.valid.data();
      for (int p = 0; p < ohw; ++p) {
        const __m256 go = load(gl[p]);
        bias_lo = _mm256_add_pd(bias_lo,
                                _mm256_cvtps_pd(_mm256_castps256_ps128(go)));
        bias_hi = _mm256_add_pd(bias_hi,
                                _mm256_cvtps_pd(_mm256_extractf128_ps(go, 1)));
        const TapTable::Tap* end = taps.valid.data() + taps.first[p + 1];
        const __m256 keep = _mm256_cmp_ps(go, zero, _CMP_NEQ_UQ);
        if (_mm256_movemask_ps(keep) == 0) {
          t = end;
          continue;
        }
        for (; t != end; ++t) {
          Lanes& wg = wgl[t->tap];
          Lanes& dx = dxl[t->offset];
          const __m256 wg_old = load(wg);
          const __m256 dx_old = load(dx);
          store(wg, _mm256_blendv_ps(
                        wg_old,
                        _mm256_add_ps(wg_old,
                                      _mm256_mul_ps(go, load(xl[t->offset]))),
                        keep));
          store(dx, _mm256_blendv_ps(
                        dx_old,
                        _mm256_add_ps(dx_old,
                                      _mm256_mul_ps(go, load(wl[t->tap]))),
                        keep));
        }
      }
      const __m256 bias_sum = _mm256_set_m128(_mm256_cvtpd_ps(bias_hi),
                                              _mm256_cvtpd_ps(bias_lo));
      _mm256_maskstore_ps(
          bias_grad + c0, live_lanes,
          _mm256_add_ps(_mm256_maskload_ps(bias_grad + c0, live_lanes),
                        bias_sum));
      lanes_to_planes(dxl.data(), in_plane, lanes, grad_in + plane0 * in_plane);
    }
    lanes_to_planes(wgl.data(), khw, lanes,
                    weight_grad + static_cast<std::size_t>(c0) * khw);
  }
}

// ReLU, 8 lanes at a time; the tail goes through masked loads and stores.
// max(0, x) returns x unless 0 > x, so -0 and NaN pass like in scalar.
void relu_forward(const float* x, float* y, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(zero, _mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i m = lanes_below(static_cast<int>(n - i));
    _mm256_maskstore_ps(y + i, m,
                        _mm256_max_ps(zero, _mm256_maskload_ps(x + i, m)));
  }
}

// Keeps g where !(x <= 0): the ordered compare is false for NaN x.
void relu_backward(const float* x, const float* g, float* gi, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const auto step = [&](__m256 xv, __m256 gv) {
    return _mm256_andnot_ps(_mm256_cmp_ps(xv, zero, _CMP_LE_OQ), gv);
  };
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(gi + i,
                     step(_mm256_loadu_ps(x + i), _mm256_loadu_ps(g + i)));
  }
  if (i < n) {
    const __m256i m = lanes_below(static_cast<int>(n - i));
    _mm256_maskstore_ps(gi + i, m,
                        step(_mm256_maskload_ps(x + i, m),
                             _mm256_maskload_ps(g + i, m)));
  }
}

// RMSProp, 4 elements at a time in double, in the scalar expression order;
// the last n % 4 elements take the scalar loop.
void rmsprop_step(float* value, const float* grad, float* sq_avg,
                  std::int64_t n, double lr, double alpha, double eps) {
  const __m256d alpha_v = _mm256_set1_pd(alpha);
  const __m256d rest_v = _mm256_set1_pd(1.0 - alpha);
  const __m256d lr_v = _mm256_set1_pd(lr);
  const __m256d eps_v = _mm256_set1_pd(eps);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grad + i));
    const __m256d v_old = _mm256_cvtps_pd(_mm_loadu_ps(sq_avg + i));
    const __m128 v = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(alpha_v, v_old),
                      _mm256_mul_pd(_mm256_mul_pd(rest_v, g), g)));
    _mm_storeu_ps(sq_avg + i, v);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr_v, g),
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_cvtps_pd(v)), eps_v));
    _mm_storeu_ps(value + i,
                  _mm_sub_ps(_mm_loadu_ps(value + i), _mm256_cvtpd_ps(step)));
  }
  scalar_backend().rmsprop_step(value + i, grad + i, sq_avg + i, n - i, lr,
                                alpha, eps);
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
  static const Backend kAvx2{"avx2",
                             gemm_rows,
                             im2col_rows,
                             col2im_channels,
                             depthwise_forward,
                             depthwise_backward,
                             relu_forward,
                             relu_backward,
                             rmsprop_step};
  return &kAvx2;
}

}  // namespace a3cs::tensor::backend

#else  // !A3CS_BACKEND_AVX2_TU

namespace a3cs::tensor::backend {

// Toolchain without AVX2/FMA support: the backend is never available.
const Backend* avx2_backend() { return nullptr; }

}  // namespace a3cs::tensor::backend

#endif
