// Primitive layers: Conv2d, DepthwiseConv2d, Linear, ReLU, Flatten,
// Sequential. Each implements Module with an exact backward pass.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace a3cs::nn {

// Standard 2D convolution over NCHW input; weight layout (OC, C*KH*KW),
// lowered to a whole-batch im2col and one GEMM per pass (forward, weight
// grad, column grad).
class Conv2d : public Module {
 public:
  Conv2d(std::string name, int in_c, int out_c, int kernel, int stride,
         int pad, util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  int in_channels() const { return in_c_; }
  int out_channels() const { return out_c_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::string name_;
  int in_c_, out_c_, kernel_, stride_, pad_;
  Parameter weight_;  // (OC, C*KH*KW)
  Parameter bias_;    // (OC)
  Tensor cached_cols_;          // (C*KH*KW, N*OH*OW): im2col of last input
  tensor::ConvGeometry geom_{};
  bool has_cache_ = false;
};

// Depthwise 2D convolution: one k x k filter per channel.
class DepthwiseConv2d : public Module {
 public:
  DepthwiseConv2d(std::string name, int channels, int kernel, int stride,
                  int pad, util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  int channels() const { return channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::string name_;
  int channels_, kernel_, stride_, pad_;
  Parameter weight_;  // (C, KH*KW)
  Parameter bias_;    // (C)
  Tensor cached_input_;
  bool has_cache_ = false;
};

// Fully connected layer on (N, IN) matrices: out = x @ W^T + b.
class Linear : public Module {
 public:
  Linear(std::string name, int in_features, int out_features, util::Rng& rng,
         float init_scale = 1.0f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  int in_features() const { return in_f_; }
  int out_features() const { return out_f_; }

 private:
  std::string name_;
  int in_f_, out_f_;
  Parameter weight_;  // (OUT, IN)
  Parameter bias_;    // (OUT)
  Tensor cached_input_;
  bool has_cache_ = false;
};

// Elementwise max(x, 0).
class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>&) override {}
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor cached_input_;
  bool has_cache_ = false;
};

// NCHW -> (N, C*H*W).
class Flatten : public Module {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>&) override {}
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Shape cached_shape_;
};

// Runs children in order.
class Sequential : public Module {
 public:
  explicit Sequential(std::string name = "seq") : name_(std::move(name)) {}

  Sequential& add(std::unique_ptr<Module> m);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace a3cs::nn
