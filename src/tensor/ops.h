// Free-function kernels on Tensors: GEMM, im2col/col2im, depthwise
// convolution, ReLU, row softmax, the RMSProp update.
// These are the computational primitives the nn modules are built from.
//
// GEMM, im2col and col2im execute on the global util::ThreadPool with fixed
// contiguous sharding (row panels / column rows / channels respectively), so
// their results are bit-exact for every A3CS_THREADS value: each output
// element is produced by exactly one shard and its reduction order (kk
// ascending in GEMM, column-row ascending in col2im) never depends on the
// thread count. See docs/PERFORMANCE.md.
//
// The shard bodies dispatch through the pluggable kernel-backend table
// (tensor/backend/backend.h, selected via A3CS_BACKEND): "scalar" is the
// bit-exact blocked reference, "avx2" the FMA-fused SIMD backend —
// per-backend determinism holds at every thread count either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace a3cs::tensor {

// C = alpha * op(A) @ op(B) + beta * C, row-major, where op transposes when
// the corresponding flag is set. A is (m x k) after op, B is (k x n) after
// op, C is (m x n). C must be preallocated with the right shape.
void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha = 1.0f, float beta = 0.0f);

// Raw-pointer GEMM over row-major buffers: C(m x n) = alpha*op(A)@op(B) +
// beta*C where op(A) is (m x k) and stored (m x k), or (k x m) when trans_a.
// Linear and Conv2d call it on their parameter and activation buffers
// directly; Conv2d runs one whole-batch GEMM per pass over its im2col matrix.
void gemm_raw(const float* a, bool trans_a, const float* b, bool trans_b,
              float* c, int m, int k, int n, float alpha = 1.0f,
              float beta = 0.0f);

// Convolution lowering. Input is NCHW; the column matrix has shape
// (C*KH*KW) x (N*OH*OW), so a convolution is one GEMM with the (OC)x(C*KH*KW)
// weight matrix.
struct ConvGeometry {
  int n, c, h, w;          // input
  int kh, kw;              // kernel
  int stride;
  int pad;
  int oh, ow;              // output spatial dims

  static ConvGeometry make(const Shape& input, int kh, int kw, int stride,
                           int pad);
};

// The kernel taps [lo, hi) of a window starting at input index i0 that land
// inside [0, size): the padding clamp, taken once per window.
struct TapRange {
  int lo, hi;
};
inline TapRange taps_inside(int i0, int kernel, int size) {
  return {std::max(0, -i0), std::min(kernel, size - i0)};
}

// Input offsets of every kernel tap of a convolution geometry, in two
// layouts. Row ky * kw + kx of `offsets` holds, for each output position
// oy * ow + ox, the offset iy * w + ix of the tap's input element within one
// input plane, or -1 where the tap lands in the padding. Rows are `row`
// entries long: oh * ow rounded up to a multiple of 8, the tail filled with
// -1 (im2col gathers 8 positions of one tap row at a time). `valid` lists,
// for each output position p, its valid taps ky, then kx, ascending with
// their input offsets: entries [first[p], first[p + 1]) (the depthwise
// kernels walk one position's taps at a time). Independent of the batch and
// channel counts, so a layer builds it once per input plane size.
struct TapTable {
  struct Tap {
    std::int32_t tap;     // ky * kw + kx
    std::int32_t offset;  // iy * w + ix
  };
  int h = 0, w = 0, kh = 0, kw = 0, stride = 0, pad = 0;  // built for
  int row = 0;
  std::vector<std::int32_t> offsets;  // kh * kw rows of `row` entries
  std::vector<std::int32_t> first;    // oh * ow + 1 entries
  std::vector<Tap> valid;             // the valid taps of each position

  bool matches(const ConvGeometry& g) const;
};
TapTable make_tap_table(const ConvGeometry& g);

// cols must be (c*kh*kw) x (n*oh*ow); `taps` is make_tap_table(g) (a layer
// caches it per input plane size).
void im2col(const Tensor& input, const ConvGeometry& g, const TapTable& taps,
            Tensor& cols);

// Scatter-add the column matrix back into an NCHW gradient image.
// `grad_input` is zeroed first.
void col2im(const Tensor& cols, const ConvGeometry& g, Tensor& grad_input);

// Depthwise convolution forward: out(n, c) = bias[c] + the k x k window of
// input plane (n, c) against filter row c of `weight` (C x KH*KW). Per
// output element the valid taps are summed ky, then kx, ascending onto the
// bias, on every backend, so the result is bit-exact across backends.
// `taps` must match `g` (a layer caches it per input plane size); `out` is
// (N, C, OH, OW) and fully overwritten.
void depthwise_conv2d(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvGeometry& g,
                      const TapTable& taps, Tensor& out);

// Depthwise convolution backward for the forward above. `grad_in` (N, C, H,
// W) is fully overwritten; `weight_grad` and `bias_grad` are accumulated
// into. An upstream gradient that compares equal to zero (+0 or -0) adds
// nothing to grad_in or weight_grad; NaN and +-Inf ones do. Per element:
// weight_grad(c, tap) adds go * x over n, then oy, then ox, ascending;
// grad_in starts at +0 and adds go * w over the outputs (oy, ox) of its
// plane ascending; bias_grad(c) adds, once per sample n, the double sum of
// that plane's upstream gradients. Bit-exact across backends.
void depthwise_conv2d_backward(const Tensor& input, const Tensor& weight,
                               const Tensor& grad_out, const ConvGeometry& g,
                               const TapTable& taps, Tensor& grad_in,
                               Tensor& weight_grad, Tensor& bias_grad);

// One RMSProp update over a parameter, in double per element:
// sq_avg = float(alpha * sq_avg + ((1 - alpha) * g) * g), then
// value -= float(lr * g / (sqrt(sq_avg) + eps)). Bit-exact across backends.
void rmsprop_step(Tensor& value, const Tensor& grad, Tensor& sq_avg, double lr,
                  double alpha, double eps);

// ReLU: y = x where x >= 0 or x is -0 or NaN, +0 where x < 0.
void relu(const Tensor& x, Tensor& y);
// ReLU backward: grad_in = grad_out where !(x <= 0) (NaN x passes), +0
// elsewhere. All three tensors have the same shape; grad_in is overwritten.
void relu_backward(const Tensor& x, const Tensor& grad_out, Tensor& grad_in);

// Row-wise softmax of a (rows x cols) matrix; output preallocated same shape.
void softmax_rows(const Tensor& logits, Tensor& probs);

// Row-wise log-softmax (numerically stable).
void log_softmax_rows(const Tensor& logits, Tensor& log_probs);

// argmax of a flat tensor.
std::int64_t argmax(const Tensor& t);

}  // namespace a3cs::tensor
