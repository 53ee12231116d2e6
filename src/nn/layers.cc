#include "nn/layers.h"

#include <algorithm>

#include "nn/init.h"
#include "obs/profile.h"
#include "util/logging.h"

namespace a3cs::nn {

using tensor::ConvGeometry;
using tensor::gemm_raw;

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::string name, int in_c, int out_c, int kernel, int stride,
               int pad, util::Rng& rng)
    : name_(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name_ + ".weight", Shape::mat(out_c, in_c * kernel * kernel)),
      bias_(name_ + ".bias", Shape::vec(out_c)) {
  A3CS_CHECK(in_c > 0 && out_c > 0 && kernel > 0, "bad conv dims");
  he_normal(weight_.value, in_c * kernel * kernel, rng);
}

Tensor Conv2d::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 4 && x.shape()[1] == in_c_,
             name_ + ": input shape mismatch " + x.shape().to_string());
  geom_ = ConvGeometry::make(x.shape(), kernel_, kernel_, stride_, pad_);
  const int ckk = in_c_ * kernel_ * kernel_;
  const int ohw = geom_.oh * geom_.ow;
  const int batch_cols = geom_.n * ohw;
  // im2col, the GEMM (beta = 0) and the re-layout below write every
  // element of their outputs, so none of them is zero-filled first.
  const Shape cols_shape = Shape::mat(ckk, batch_cols);
  if (cached_cols_.shape() != cols_shape) {
    cached_cols_ = Tensor::uninitialized(cols_shape);
  }
  if (!taps_.matches(geom_)) taps_ = tensor::make_tap_table(geom_);
  tensor::im2col(x, geom_, taps_, cached_cols_);
  has_cache_ = true;

  Tensor out =
      Tensor::uninitialized(Shape::nchw(geom_.n, out_c_, geom_.oh, geom_.ow));
  A3CS_PROF_SCOPE("conv-fwd");
  // y(OC x N*ohw) = W(OC x ckk) @ cols(ckk x N*ohw): one whole-batch GEMM.
  // At N == 1 that is already NCHW, so the GEMM writes straight into `out`
  // and the pass below only adds the bias in place.
  Tensor y;
  if (geom_.n > 1) y = Tensor::uninitialized(Shape::mat(out_c_, batch_cols));
  float* yd = geom_.n > 1 ? y.data() : out.data();
  gemm_raw(weight_.value.data(), false, cached_cols_.data(), false, yd, out_c_,
           ckk, batch_cols);
  // Re-lay (OC, N, ohw) out as (N, OC, ohw), adding the bias on the way.
  for (int n = 0; n < geom_.n; ++n) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* src = yd + static_cast<std::size_t>(oc) * batch_cols +
                         static_cast<std::size_t>(n) * ohw;
      float* dst =
          out.data() + (static_cast<std::size_t>(n) * out_c_ + oc) * ohw;
      const float b = bias_.value[oc];
      for (int j = 0; j < ohw; ++j) dst[j] = src[j] + b;
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  A3CS_CHECK(grad_out.shape() ==
                 Shape::nchw(geom_.n, out_c_, geom_.oh, geom_.ow),
             name_ + ": grad_out shape mismatch");
  const int ckk = in_c_ * kernel_ * kernel_;
  const int ohw = geom_.oh * geom_.ow;
  const int batch_cols = geom_.n * ohw;
  A3CS_PROF_SCOPE("conv-bwd");

  // g(OC x N*ohw): grad_out with its sample and channel axes swapped, the
  // layout of the forward GEMM's output. Every element is copied in.
  Tensor g_mat = Tensor::uninitialized(Shape::mat(out_c_, batch_cols));
  float* g = g_mat.data();
  for (int n = 0; n < geom_.n; ++n) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* src =
          grad_out.data() + (static_cast<std::size_t>(n) * out_c_ + oc) * ohw;
      std::copy(src, src + ohw,
                g + static_cast<std::size_t>(oc) * batch_cols +
                    static_cast<std::size_t>(n) * ohw);
    }
  }

  // grad_b += row sums of g (double accumulator, columns ascending).
  for (int oc = 0; oc < out_c_; ++oc) {
    const float* grow = g + static_cast<std::size_t>(oc) * batch_cols;
    double acc = 0.0;
    for (int j = 0; j < batch_cols; ++j) acc += grow[j];
    bias_.grad[oc] += static_cast<float>(acc);
  }
  // grad_W(OC x ckk) += g(OC x N*ohw) @ cols^T(N*ohw x ckk)
  gemm_raw(g, false, cached_cols_.data(), true, weight_.grad.data(), out_c_,
           batch_cols, ckk, 1.0f, 1.0f);
  // grad_cols(ckk x N*ohw) = W^T(ckk x OC) @ g(OC x N*ohw); beta = 0 never
  // reads it, and col2im zeroes grad_input itself.
  Tensor grad_cols = Tensor::uninitialized(Shape::mat(ckk, batch_cols));
  gemm_raw(weight_.value.data(), true, g, false, grad_cols.data(), ckk,
           out_c_, batch_cols);

  Tensor grad_input =
      Tensor::uninitialized(Shape::nchw(geom_.n, in_c_, geom_.h, geom_.w));
  tensor::col2im(grad_cols, geom_, grad_input);
  has_cache_ = false;
  return grad_input;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ------------------------------------------------------- DepthwiseConv2d --

DepthwiseConv2d::DepthwiseConv2d(std::string name, int channels, int kernel,
                                 int stride, int pad, util::Rng& rng)
    : name_(std::move(name)),
      channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name_ + ".weight", Shape::mat(channels, kernel * kernel)),
      bias_(name_ + ".bias", Shape::vec(channels)) {
  he_normal(weight_.value, kernel * kernel, rng);
}

// The forward runs on the kernel backend (tensor::depthwise_conv2d) over a
// tap table cached per input plane size.
Tensor DepthwiseConv2d::forward(const Tensor& x) {
  A3CS_PROF_SCOPE("depthwise-fwd");
  A3CS_CHECK(x.shape().rank() == 4 && x.shape()[1] == channels_,
             name_ + ": input shape mismatch");
  const auto g =
      ConvGeometry::make(x.shape(), kernel_, kernel_, stride_, pad_);
  cached_input_ = x;
  has_cache_ = true;
  if (!taps_.matches(g)) taps_ = tensor::make_tap_table(g);
  Tensor out = Tensor::uninitialized(Shape::nchw(g.n, channels_, g.oh, g.ow));
  tensor::depthwise_conv2d(x, weight_.value, bias_.value, g, taps_, out);
  return out;
}

// The backward runs on the kernel backend too, over the forward's tap
// table.
Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  A3CS_PROF_SCOPE("depthwise-bwd");
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  const Tensor& x = cached_input_;
  const auto g =
      ConvGeometry::make(x.shape(), kernel_, kernel_, stride_, pad_);
  A3CS_CHECK(grad_out.shape() == Shape::nchw(g.n, channels_, g.oh, g.ow),
             name_ + ": grad_out shape mismatch");
  Tensor grad_input = Tensor::uninitialized(x.shape());
  tensor::depthwise_conv2d_backward(x, weight_.value, grad_out, g, taps_,
                                    grad_input, weight_.grad, bias_.grad);
  has_cache_ = false;
  return grad_input;
}

void DepthwiseConv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::string name, int in_features, int out_features,
               util::Rng& rng, float init_scale)
    : name_(std::move(name)),
      in_f_(in_features),
      out_f_(out_features),
      weight_(name_ + ".weight", Shape::mat(out_features, in_features)),
      bias_(name_ + ".bias", Shape::vec(out_features)) {
  he_normal(weight_.value, in_features, rng);
  if (init_scale != 1.0f) scale_init(weight_.value, init_scale);
}

Tensor Linear::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 2 && x.shape()[1] == in_f_,
             name_ + ": input shape mismatch " + x.shape().to_string());
  cached_input_ = x;
  has_cache_ = true;
  const int n = x.shape()[0];
  Tensor out(Shape::mat(n, out_f_));
  for (int i = 0; i < n; ++i) {
    float* orow = out.data() + static_cast<std::size_t>(i) * out_f_;
    for (int o = 0; o < out_f_; ++o) orow[o] = bias_.value[o];
  }
  // out(n x OUT) += x(n x IN) @ W^T(IN x OUT)
  gemm_raw(x.data(), false, weight_.value.data(), true, out.data(), n, in_f_,
           out_f_, 1.0f, 1.0f);
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  const int n = cached_input_.shape()[0];
  A3CS_CHECK(grad_out.shape() == Shape::mat(n, out_f_),
             name_ + ": grad_out shape mismatch");
  // grad_W(OUT x IN) += g^T(OUT x n) @ x(n x IN)
  gemm_raw(grad_out.data(), true, cached_input_.data(), false,
           weight_.grad.data(), out_f_, n, in_f_, 1.0f, 1.0f);
  // grad_b += column sums of g
  for (int i = 0; i < n; ++i) {
    const float* grow = grad_out.data() + static_cast<std::size_t>(i) * out_f_;
    for (int o = 0; o < out_f_; ++o) bias_.grad[o] += grow[o];
  }
  // grad_x(n x IN) = g(n x OUT) @ W(OUT x IN)
  Tensor grad_input(Shape::mat(n, in_f_));
  gemm_raw(grad_out.data(), false, weight_.value.data(), false,
           grad_input.data(), n, out_f_, in_f_, 1.0f, 0.0f);
  has_cache_ = false;
  return grad_input;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  has_cache_ = true;
  Tensor out = Tensor::uninitialized(x.shape());
  tensor::relu(x, out);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  A3CS_CHECK(grad_out.same_shape(cached_input_),
             name_ + ": grad_out shape mismatch");
  Tensor grad_input = Tensor::uninitialized(grad_out.shape());
  tensor::relu_backward(cached_input_, grad_out, grad_input);
  has_cache_ = false;
  return grad_input;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 4, name_ + ": expects NCHW input");
  cached_shape_ = x.shape();
  const int n = x.shape()[0];
  const int f = static_cast<int>(x.numel() / n);
  return x.reshaped(Shape::mat(n, f));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

// ------------------------------------------------------------ Sequential --

Sequential& Sequential::add(std::unique_ptr<Module> m) {
  children_.push_back(std::move(m));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& child : children_) cur = child->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& child : children_) child->collect_parameters(out);
}

}  // namespace a3cs::nn
