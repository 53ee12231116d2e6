// Free-function kernels on Tensors: GEMM, im2col/col2im, row softmax.
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

// cols must be (c*kh*kw) x (n*oh*ow).
void im2col(const Tensor& input, const ConvGeometry& g, Tensor& cols);

// Scatter-add the column matrix back into an NCHW gradient image.
// `grad_input` is zeroed first.
void col2im(const Tensor& cols, const ConvGeometry& g, Tensor& grad_input);

// Row-wise softmax of a (rows x cols) matrix; output preallocated same shape.
void softmax_rows(const Tensor& logits, Tensor& probs);

// Row-wise log-softmax (numerically stable).
void log_softmax_rows(const Tensor& logits, Tensor& log_probs);

// argmax of a flat tensor.
std::int64_t argmax(const Tensor& t);

}  // namespace a3cs::tensor
