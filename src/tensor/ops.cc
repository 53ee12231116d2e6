#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "tensor/backend/backend.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace a3cs::tensor {

namespace {

// Row-panel grain for the parallel GEMM decomposition and the minimum
// m*k*n below which a GEMM is not worth scheduling. Both are fixed
// constants: shard boundaries must depend only on the problem shape, and
// they are shared by every kernel backend (the backend computes shards, the
// orchestration here cuts them — see tensor/backend/backend.h).
constexpr int kGemmRowGrain = 16;
constexpr std::int64_t kGemmMinParallelWork = 1 << 16;

}  // namespace

void gemm_raw(const float* a, bool trans_a, const float* b, bool trans_b,
              float* c, int m, int k, int n, float alpha, float beta) {
  // Storage row widths of A and B as laid out in memory.
  const int a_cols = trans_a ? m : k;
  const int b_cols = trans_b ? k : n;
  if (m <= 0 || n <= 0) return;
  A3CS_PROF_SCOPE("gemm");
  {
    // Analytic work model: one FMA (2 flops) per (m,k,n) element; A and B
    // each read once, C written once (float32).
    static obs::perf::WorkCounters& wc = obs::perf::WorkCounters::named("gemm");
    const std::int64_t mk = static_cast<std::int64_t>(m) * std::max(0, k);
    const std::int64_t kn = static_cast<std::int64_t>(std::max(0, k)) * n;
    const std::int64_t mn = static_cast<std::int64_t>(m) * n;
    wc.add(2 * mk * n, 4 * (mk + kn), 4 * mn);
  }
  // Resolve the kernel backend once per call so every shard of this region
  // runs the same kernels even if another thread re-selects concurrently.
  const backend::Backend& be = backend::active();
  if (k <= 0) {
    // Degenerate reduction: C = beta * C.
    be.gemm_rows(a, trans_a, b, trans_b, c, 0, m, 0, n, alpha, beta, a_cols,
                 b_cols);
    return;
  }

  const std::int64_t work =
      static_cast<std::int64_t>(m) * k * n;
  if (work < kGemmMinParallelWork) {
    be.gemm_rows(a, trans_a, b, trans_b, c, 0, m, k, n, alpha, beta, a_cols,
                 b_cols);
    return;
  }
  util::parallel_for(
      0, m, kGemmRowGrain,
      [&](std::int64_t row0, std::int64_t row1) {
        be.gemm_rows(a, trans_a, b, trans_b, c, static_cast<int>(row0),
                     static_cast<int>(row1), k, n, alpha, beta, a_cols,
                     b_cols);
      },
      "gemm");
}

void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha, float beta) {
  A3CS_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
                 c.shape().rank() == 2,
             "gemm requires matrices");
  const int a_rows = a.shape()[0], a_cols = a.shape()[1];
  const int b_rows = b.shape()[0], b_cols = b.shape()[1];
  const int m = trans_a ? a_cols : a_rows;
  const int k = trans_a ? a_rows : a_cols;
  const int kb = trans_b ? b_cols : b_rows;
  const int n = trans_b ? b_rows : b_cols;
  A3CS_CHECK(k == kb, "gemm inner dimension mismatch");
  A3CS_CHECK(c.shape()[0] == m && c.shape()[1] == n,
             "gemm output shape mismatch");
  gemm_raw(a.data(), trans_a, b.data(), trans_b, c.data(), m, k, n, alpha,
           beta);
}

ConvGeometry ConvGeometry::make(const Shape& input, int kh, int kw, int stride,
                                int pad) {
  A3CS_CHECK(input.rank() == 4, "conv input must be NCHW");
  A3CS_CHECK(stride >= 1, "conv stride must be >= 1");
  ConvGeometry g;
  g.n = input[0];
  g.c = input[1];
  g.h = input[2];
  g.w = input[3];
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  g.oh = (g.h + 2 * pad - kh) / stride + 1;
  g.ow = (g.w + 2 * pad - kw) / stride + 1;
  A3CS_CHECK(g.oh > 0 && g.ow > 0, "conv output is empty");
  return g;
}

void im2col(const Tensor& input, const ConvGeometry& g, const TapTable& taps,
            Tensor& cols) {
  const int col_rows = g.c * g.kh * g.kw;
  const int col_cols = g.n * g.oh * g.ow;
  A3CS_CHECK(cols.shape() == Shape::mat(col_rows, col_cols),
             "im2col output shape mismatch");
  A3CS_CHECK(taps.matches(g), "im2col tap table built for another geometry");
  A3CS_PROF_SCOPE("im2col");
  {
    // Pure data movement: every output cell is one gather (or zero fill);
    // the input is touched ~kh*kw times through the sliding windows.
    static obs::perf::WorkCounters& wc =
        obs::perf::WorkCounters::named("im2col");
    const std::int64_t cells =
        static_cast<std::int64_t>(col_rows) * col_cols;
    wc.add(0, 4 * cells, 4 * cells);
  }
  const float* in = input.data();
  float* out = cols.data();
  // Each output row belongs to exactly one (channel, ky, kx) triple, so the
  // rows can be filled independently. Grain is derived from the row width
  // only, keeping shard boundaries thread-count independent.
  const backend::Backend& be = backend::active();
  const std::int64_t grain =
      std::max<std::int64_t>(1, 32768 / std::max(1, col_cols));
  util::parallel_for(
      0, col_rows, grain,
      [&](std::int64_t cr0, std::int64_t cr1) {
        be.im2col_rows(in, g, taps, out, static_cast<int>(cr0),
                       static_cast<int>(cr1));
      },
      "im2col");
}

void col2im(const Tensor& cols, const ConvGeometry& g, Tensor& grad_input) {
  const int col_rows = g.c * g.kh * g.kw;
  const int col_cols = g.n * g.oh * g.ow;
  A3CS_CHECK(cols.shape() == Shape::mat(col_rows, col_cols),
             "col2im input shape mismatch");
  A3CS_PROF_SCOPE("col2im");
  {
    // Scatter-accumulate: one add per column cell back into the image.
    static obs::perf::WorkCounters& wc =
        obs::perf::WorkCounters::named("col2im");
    const std::int64_t cells =
        static_cast<std::int64_t>(col_rows) * col_cols;
    wc.add(cells, 4 * cells, 4 * cells);
  }
  A3CS_CHECK(grad_input.shape() == Shape::nchw(g.n, g.c, g.h, g.w),
             "col2im output shape mismatch");
  grad_input.zero();
  const float* in = cols.data();
  float* out = grad_input.data();
  // The scatter-add overlaps between kernel offsets of the SAME channel but
  // never across channels, so channels are the race-free unit of work. Each
  // shard walks its channels' column rows in the same ascending order as the
  // serial loop, keeping the accumulation order bit-exact.
  const backend::Backend& be = backend::active();
  util::parallel_for(
      0, g.c, 1,
      [&](std::int64_t ch0, std::int64_t ch1) {
        be.col2im_channels(in, g, out, static_cast<int>(ch0),
                           static_cast<int>(ch1));
      },
      "col2im");
}

bool TapTable::matches(const ConvGeometry& g) const {
  return h == g.h && w == g.w && kh == g.kh && kw == g.kw &&
         stride == g.stride && pad == g.pad;
}

TapTable make_tap_table(const ConvGeometry& g) {
  TapTable t;
  t.h = g.h;
  t.w = g.w;
  t.kh = g.kh;
  t.kw = g.kw;
  t.stride = g.stride;
  t.pad = g.pad;
  const int ohw = g.oh * g.ow;
  t.row = (ohw + 7) / 8 * 8;
  const int khw = g.kh * g.kw;
  t.offsets.assign(static_cast<std::size_t>(khw) * t.row, -1);
  std::int32_t* o = t.offsets.data();
  for (int ky = 0; ky < g.kh; ++ky) {
    for (int kx = 0; kx < g.kw; ++kx, o += t.row) {
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride - g.pad + ky;
        if (iy < 0 || iy >= g.h) continue;
        for (int ox = 0; ox < g.ow; ++ox) {
          const int ix = ox * g.stride - g.pad + kx;
          if (ix >= 0 && ix < g.w) o[oy * g.ow + ox] = iy * g.w + ix;
        }
      }
    }
  }
  t.first.reserve(static_cast<std::size_t>(ohw) + 1);
  for (int p = 0; p < ohw; ++p) {
    t.first.push_back(static_cast<std::int32_t>(t.valid.size()));
    for (int tap = 0; tap < khw; ++tap) {
      const std::int32_t off =
          t.offsets[static_cast<std::size_t>(tap) * t.row + p];
      if (off >= 0) t.valid.push_back({tap, off});
    }
  }
  t.first.push_back(static_cast<std::int32_t>(t.valid.size()));
  return t;
}

void depthwise_conv2d(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvGeometry& g,
                      const TapTable& taps, Tensor& out) {
  A3CS_CHECK(input.shape() == Shape::nchw(g.n, g.c, g.h, g.w),
             "depthwise input shape mismatch");
  A3CS_CHECK(weight.shape() == Shape::mat(g.c, g.kh * g.kw) &&
                 bias.shape() == Shape::vec(g.c),
             "depthwise parameter shape mismatch");
  A3CS_CHECK(out.shape() == Shape::nchw(g.n, g.c, g.oh, g.ow),
             "depthwise output shape mismatch");
  A3CS_CHECK(taps.matches(g), "depthwise tap table built for another geometry");
  backend::active().depthwise_forward(input.data(), weight.data(), bias.data(),
                                      g, taps, out.data());
}

void depthwise_conv2d_backward(const Tensor& input, const Tensor& weight,
                               const Tensor& grad_out, const ConvGeometry& g,
                               const TapTable& taps, Tensor& grad_in,
                               Tensor& weight_grad, Tensor& bias_grad) {
  const Shape in_shape = Shape::nchw(g.n, g.c, g.h, g.w);
  A3CS_CHECK(input.shape() == in_shape && grad_in.shape() == in_shape,
             "depthwise backward input shape mismatch");
  A3CS_CHECK(weight.shape() == Shape::mat(g.c, g.kh * g.kw) &&
                 weight_grad.same_shape(weight) &&
                 bias_grad.shape() == Shape::vec(g.c),
             "depthwise backward parameter shape mismatch");
  A3CS_CHECK(grad_out.shape() == Shape::nchw(g.n, g.c, g.oh, g.ow),
             "depthwise backward grad_out shape mismatch");
  A3CS_CHECK(taps.matches(g), "depthwise tap table built for another geometry");
  backend::active().depthwise_backward(input.data(), weight.data(),
                                       grad_out.data(), g, taps,
                                       grad_in.data(), weight_grad.data(),
                                       bias_grad.data());
}

void rmsprop_step(Tensor& value, const Tensor& grad, Tensor& sq_avg, double lr,
                  double alpha, double eps) {
  A3CS_CHECK(grad.same_shape(value) && sq_avg.same_shape(value),
             "rmsprop_step shape mismatch");
  backend::active().rmsprop_step(value.data(), grad.data(), sq_avg.data(),
                                 value.numel(), lr, alpha, eps);
}

void relu(const Tensor& x, Tensor& y) {
  A3CS_CHECK(y.same_shape(x), "relu output shape mismatch");
  backend::active().relu_forward(x.data(), y.data(), x.numel());
}

void relu_backward(const Tensor& x, const Tensor& grad_out, Tensor& grad_in) {
  A3CS_CHECK(grad_out.same_shape(x) && grad_in.same_shape(x),
             "relu_backward shape mismatch");
  backend::active().relu_backward(x.data(), grad_out.data(), grad_in.data(),
                                  x.numel());
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  A3CS_CHECK(logits.shape().rank() == 2, "softmax_rows requires a matrix");
  A3CS_CHECK(probs.shape() == logits.shape(), "softmax output shape mismatch");
  const int rows = logits.shape()[0], cols = logits.shape()[1];
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::size_t>(r) * cols;
    float* out = probs.data() + static_cast<std::size_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - mx);
      sum += out[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int c = 0; c < cols; ++c) out[c] *= inv;
  }
}

void log_softmax_rows(const Tensor& logits, Tensor& log_probs) {
  A3CS_CHECK(logits.shape().rank() == 2, "log_softmax_rows requires a matrix");
  A3CS_CHECK(log_probs.shape() == logits.shape(),
             "log_softmax output shape mismatch");
  const int rows = logits.shape()[0], cols = logits.shape()[1];
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::size_t>(r) * cols;
    float* out = log_probs.data() + static_cast<std::size_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) sum += std::exp(in[c] - mx);
    const float lse = mx + static_cast<float>(std::log(sum));
    for (int c = 0; c < cols; ++c) out[c] = in[c] - lse;
  }
}

std::int64_t argmax(const Tensor& t) {
  A3CS_CHECK(t.numel() > 0, "argmax of empty tensor");
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < t.numel(); ++i) {
    if (t[i] > t[best]) best = i;
  }
  return best;
}

}  // namespace a3cs::tensor
