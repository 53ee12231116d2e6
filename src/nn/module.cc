#include "nn/module.h"

#include <cmath>

#include "util/logging.h"

namespace a3cs::nn {

std::vector<Parameter*> Module::parameters() {
  std::vector<Parameter*> out;
  collect_parameters(out);
  return out;
}

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::int64_t Module::num_parameters() {
  std::int64_t n = 0;
  for (Parameter* p : parameters()) n += p->numel();
  return n;
}

void copy_parameters(Module& src, Module& dst) {
  auto sp = src.parameters();
  auto dp = dst.parameters();
  A3CS_CHECK(sp.size() == dp.size(), "copy_parameters: count mismatch");
  for (std::size_t i = 0; i < sp.size(); ++i) {
    A3CS_CHECK(sp[i]->value.same_shape(dp[i]->value),
               "copy_parameters: shape mismatch at " + sp[i]->name);
    dp[i]->value = sp[i]->value;
  }
}

namespace {

NormStats tensor_set_norm_stats(const std::vector<Parameter*>& params,
                                bool grads) {
  double total = 0.0;
  for (const Parameter* p : params) {
    const tensor::Tensor& t = grads ? p->grad : p->value;
    const float* data = t.data();
    const std::int64_t n = t.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(data[i]);
      total += v * v;
    }
  }
  NormStats out;
  out.norm = std::sqrt(total);
  // NaN propagates through the sum and Inf saturates it, so the finiteness
  // of the accumulator IS the finiteness of the whole set.
  out.finite = std::isfinite(out.norm);
  return out;
}

}  // namespace

NormStats grad_norm_stats(const std::vector<Parameter*>& params) {
  return tensor_set_norm_stats(params, /*grads=*/true);
}

NormStats param_norm_stats(const std::vector<Parameter*>& params) {
  return tensor_set_norm_stats(params, /*grads=*/false);
}

void zero_gradients(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->grad.zero();
}

float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm,
                     const NormStats& stats) {
  const float norm = static_cast<float>(stats.norm);
  if (!stats.finite) {
    // A non-finite norm means at least one gradient element is NaN/Inf;
    // scaling by max_norm/norm would spread the poison to EVERY element and
    // the optimizer would then corrupt every weight. Zero the batch instead
    // and surface the raw norm to the caller.
    zero_gradients(params);
    return norm;
  }
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params) p->grad *= scale;
  }
  return norm;
}

}  // namespace a3cs::nn
