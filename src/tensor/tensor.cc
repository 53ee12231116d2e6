#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace a3cs::tensor {

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = shape;
  t.numel_ = shape.numel();
  t.data_ = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(t.numel_));
#if defined(A3CS_SANITIZE_BUILD)
  t.fill(std::numeric_limits<float>::quiet_NaN());
#endif
  return t;
}

Tensor::Tensor(Shape shape, float fill) : Tensor(uninitialized(shape)) {
  this->fill(fill);
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(uninitialized(shape)) {
  A3CS_CHECK(static_cast<std::int64_t>(data.size()) == numel_,
             "data size does not match shape " + shape_.to_string());
  std::copy(data.begin(), data.end(), data_.get());
}

Tensor::Tensor(const Tensor& other) : Tensor(uninitialized(other.shape_)) {
  if (numel_ > 0) {
    std::memcpy(data_.get(), other.data_.get(),
                static_cast<std::size_t>(numel_) * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (numel_ != other.numel_) {
    data_ = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(other.numel_));
    numel_ = other.numel_;
  }
  shape_ = other.shape_;
  if (numel_ > 0) {
    std::memcpy(data_.get(), other.data_.get(),
                static_cast<std::size_t>(numel_) * sizeof(float));
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::exchange(other.shape_, Shape())),
      numel_(std::exchange(other.numel_, 0)),
      data_(std::move(other.data_)) {}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  shape_ = std::exchange(other.shape_, Shape());
  numel_ = std::exchange(other.numel_, 0);
  data_ = std::move(other.data_);
  return *this;
}

float& Tensor::at(std::int64_t i) {
  A3CS_CHECK(i >= 0 && i < numel_, "tensor index out of range");
  return data_[static_cast<std::size_t>(i)];
}

float Tensor::at(std::int64_t i) const {
  A3CS_CHECK(i >= 0 && i < numel_, "tensor index out of range");
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at2(int i, int j) {
  A3CS_CHECK(shape_.rank() == 2, "at2 on non-matrix");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float Tensor::at2(int i, int j) const {
  A3CS_CHECK(shape_.rank() == 2, "at2 on non-matrix");
  return data_[static_cast<std::size_t>(i) * shape_[1] + j];
}

float& Tensor::at4(int n, int c, int h, int w) {
  A3CS_CHECK(shape_.rank() == 4, "at4 on non-NCHW tensor");
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

float Tensor::at4(int n, int c, int h, int w) const {
  A3CS_CHECK(shape_.rank() == 4, "at4 on non-NCHW tensor");
  const std::size_t idx =
      ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) *
          shape_[3] +
      w;
  return data_[idx];
}

void Tensor::fill(float v) { std::fill(data(), data() + numel_, v); }

Tensor Tensor::reshaped(Shape new_shape) const {
  A3CS_CHECK(new_shape.numel() == shape_.numel(),
             "reshape numel mismatch: " + shape_.to_string() + " -> " +
                 new_shape.to_string());
  Tensor out = *this;
  out.shape_ = new_shape;
  return out;
}

Tensor& Tensor::operator+=(const Tensor& other) {
  A3CS_CHECK(same_shape(other), "operator+= shape mismatch");
  for (std::int64_t i = 0; i < numel_; ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  A3CS_CHECK(same_shape(other), "operator-= shape mismatch");
  for (std::int64_t i = 0; i < numel_; ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (std::int64_t i = 0; i < numel_; ++i) data_[i] *= s;
  return *this;
}

void Tensor::axpy(float s, const Tensor& other) {
  A3CS_CHECK(same_shape(other), "axpy shape mismatch");
  for (std::int64_t i = 0; i < numel_; ++i) data_[i] += s * other.data_[i];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (std::int64_t i = 0; i < numel_; ++i) acc += data_[i];
  return static_cast<float>(acc);
}

float Tensor::max() const {
  A3CS_CHECK(!empty(), "max of empty tensor");
  return *std::max_element(data(), data() + numel_);
}

float Tensor::min() const {
  A3CS_CHECK(!empty(), "min of empty tensor");
  return *std::min_element(data(), data() + numel_);
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (std::int64_t i = 0; i < numel_; ++i) m = std::max(m, std::abs(data_[i]));
  return m;
}

float Tensor::norm() const {
  double acc = 0.0;
  for (std::int64_t i = 0; i < numel_; ++i) {
    acc += static_cast<double>(data_[i]) * data_[i];
  }
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::dot(const Tensor& other) const {
  A3CS_CHECK(same_shape(other), "dot shape mismatch");
  double acc = 0.0;
  for (std::int64_t i = 0; i < numel_; ++i) {
    acc += static_cast<double>(data_[i]) * other.data_[i];
  }
  return static_cast<float>(acc);
}

Tensor operator+(Tensor a, const Tensor& b) {
  a += b;
  return a;
}

Tensor operator-(Tensor a, const Tensor& b) {
  a -= b;
  return a;
}

Tensor operator*(Tensor a, float s) {
  a *= s;
  return a;
}

}  // namespace a3cs::tensor
