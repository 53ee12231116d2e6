// Dense float tensor with value semantics. The single data container used by
// the NN library, the RL stack and the NAS/DAS engines.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/shape.h"

namespace a3cs::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, const std::vector<float>& data);

  // A tensor whose elements are NOT initialized. Only for outputs whose every
  // element is written before any is read (a GEMM with beta = 0, an im2col
  // matrix, an elementwise result). Builds with A3CS_SANITIZE set fill it
  // with quiet NaN instead, so an element a kernel forgets to write shows up
  // as NaN in the bit-exact tests.
  static Tensor uninitialized(Shape shape);

  // Copies are one memcpy; a copy-assignment reuses the buffer when the
  // element counts match.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  // A copy of the elements (tests compare and concatenate with it).
  std::vector<float> vec() const { return {data(), data() + numel_}; }

  // Flat element access; at() checks the bounds.
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }
  float& at(std::int64_t i);
  float at(std::int64_t i) const;

  // Multi-dimensional accessors; rank must match.
  float& at2(int i, int j);
  float at2(int i, int j) const;
  float& at4(int n, int c, int h, int w);
  float at4(int n, int c, int h, int w) const;

  void fill(float v);
  void zero() { fill(0.0f); }

  // Reinterpret the buffer under a new shape with identical numel.
  Tensor reshaped(Shape new_shape) const;

  // In-place arithmetic (shapes must match exactly).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);

  // this += s * other (axpy), the workhorse of optimizers.
  void axpy(float s, const Tensor& other);

  float sum() const;
  float max() const;
  float min() const;
  float abs_max() const;
  // L2 norm of the flattened tensor.
  float norm() const;
  float dot(const Tensor& other) const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::int64_t numel_ = 0;
  std::unique_ptr<float[]> data_;
};

Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, float s);

}  // namespace a3cs::tensor
