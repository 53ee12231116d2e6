#include "nn/blocks.h"

#include "util/logging.h"

namespace a3cs::nn {

// --------------------------------------------------------- ResidualBlock --

ResidualBlock::ResidualBlock(std::string name, int in_c, int out_c, int kernel,
                             int stride, util::Rng& rng)
    : name_(std::move(name)),
      conv1_(name_ + ".conv1", in_c, out_c, kernel, stride, kernel / 2, rng),
      relu1_(name_ + ".relu1"),
      conv2_(name_ + ".conv2", out_c, out_c, kernel, 1, kernel / 2, rng),
      relu2_(name_ + ".relu2") {
  identity_skip_ = (in_c == out_c && stride == 1);
  if (!identity_skip_) {
    proj_ = std::make_unique<Conv2d>(name_ + ".proj", in_c, out_c, 1, stride,
                                     0, rng);
  }
}

Tensor ResidualBlock::forward(const Tensor& x) {
  cached_skip_input_ = x;
  Tensor main = conv2_.forward(relu1_.forward(conv1_.forward(x)));
  Tensor skip = identity_skip_ ? x : proj_->forward(x);
  main += skip;
  return relu2_.forward(main);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = relu2_.backward(grad_out);
  // The add node fans the gradient out to both paths unchanged.
  Tensor g_main = conv1_.backward(relu1_.backward(conv2_.backward(g)));
  Tensor g_skip = identity_skip_ ? g : proj_->backward(g);
  g_main += g_skip;
  return g_main;
}

void ResidualBlock::collect_parameters(std::vector<Parameter*>& out) {
  conv1_.collect_parameters(out);
  conv2_.collect_parameters(out);
  if (proj_) proj_->collect_parameters(out);
}

// ------------------------------------------------------ InvertedResidual --

InvertedResidual::InvertedResidual(std::string name, int in_c, int out_c,
                                   int kernel, int expansion, int stride,
                                   util::Rng& rng)
    : name_(std::move(name)),
      expansion_(expansion),
      expand_(name_ + ".expand", in_c, in_c * expansion, 1, 1, 0, rng),
      relu1_(name_ + ".relu1"),
      dw_(name_ + ".dw", in_c * expansion, kernel, stride, kernel / 2, rng),
      relu2_(name_ + ".relu2"),
      project_(name_ + ".project", in_c * expansion, out_c, 1, 1, 0, rng),
      has_skip_(stride == 1 && in_c == out_c) {}

Tensor InvertedResidual::forward(const Tensor& x) {
  Tensor out = project_.forward(
      relu2_.forward(dw_.forward(relu1_.forward(expand_.forward(x)))));
  if (has_skip_) out += x;
  return out;
}

Tensor InvertedResidual::backward(const Tensor& grad_out) {
  Tensor g = expand_.backward(
      relu1_.backward(dw_.backward(relu2_.backward(project_.backward(grad_out)))));
  if (has_skip_) g += grad_out;
  return g;
}

void InvertedResidual::collect_parameters(std::vector<Parameter*>& out) {
  expand_.collect_parameters(out);
  dw_.collect_parameters(out);
  project_.collect_parameters(out);
}

// ---------------------------------------------------------------- SkipOp --

SkipOp::SkipOp(std::string name, int in_c, int out_c, int stride)
    : name_(std::move(name)), in_c_(in_c), out_c_(out_c), stride_(stride) {
  A3CS_CHECK(stride >= 1, "SkipOp: bad stride");
}

Tensor SkipOp::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 4 && x.shape()[1] == in_c_,
             name_ + ": input shape mismatch");
  cached_in_shape_ = x.shape();
  if (in_c_ == out_c_ && stride_ == 1) return x;
  const int n = x.shape()[0], h = x.shape()[2], w = x.shape()[3];
  const int oh = (h + stride_ - 1) / stride_;
  const int ow = (w + stride_ - 1) / stride_;
  Tensor out(Shape::nchw(n, out_c_, oh, ow));
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const int ic = oc % in_c_;  // replicate channels cyclically
      const float* src =
          x.data() + (static_cast<std::size_t>(b) * in_c_ + ic) * h * w;
      float* dst =
          out.data() + (static_cast<std::size_t>(b) * out_c_ + oc) * oh * ow;
      for (int oy = 0; oy < oh; ++oy) {
        const float* srow = src + static_cast<std::size_t>(oy) * stride_ * w;
        for (int ox = 0; ox < ow; ++ox) *dst++ = srow[ox * stride_];
      }
    }
  }
  return out;
}

Tensor SkipOp::backward(const Tensor& grad_out) {
  if (in_c_ == out_c_ && stride_ == 1) return grad_out;
  const int n = cached_in_shape_[0], h = cached_in_shape_[2],
            w = cached_in_shape_[3];
  const int oh = (h + stride_ - 1) / stride_;
  const int ow = (w + stride_ - 1) / stride_;
  A3CS_CHECK(grad_out.shape() == Shape::nchw(n, out_c_, oh, ow),
             name_ + ": grad_out shape mismatch");
  Tensor grad_input(cached_in_shape_);
  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < out_c_; ++oc) {
      const int ic = oc % in_c_;
      const float* src = grad_out.data() +
                         (static_cast<std::size_t>(b) * out_c_ + oc) * oh * ow;
      float* dst = grad_input.data() +
                   (static_cast<std::size_t>(b) * in_c_ + ic) * h * w;
      for (int oy = 0; oy < oh; ++oy) {
        float* drow = dst + static_cast<std::size_t>(oy) * stride_ * w;
        for (int ox = 0; ox < ow; ++ox) drow[ox * stride_] += *src++;
      }
    }
  }
  return grad_input;
}

}  // namespace a3cs::nn
