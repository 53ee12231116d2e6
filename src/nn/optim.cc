#include "nn/optim.h"

#include <cmath>

#include "obs/profile.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/logging.h"
#include "util/state_io.h"

namespace a3cs::nn {
namespace {

namespace sio = util::sio;

// Per-parameter moment maps serialize positionally: u32 count, then for each
// parameter a presence flag + the tensor (absent = never stepped).
void save_moment_map(std::ostream& out, const std::vector<Parameter*>& params,
                     const std::unordered_map<Parameter*, Tensor>& moments) {
  sio::put_u32(out, static_cast<std::uint32_t>(params.size()));
  for (Parameter* p : params) {
    const auto it = moments.find(p);
    sio::put_bool(out, it != moments.end());
    if (it != moments.end()) tensor::write_tensor(out, it->second);
  }
}

void load_moment_map(std::istream& in, const std::vector<Parameter*>& params,
                     std::unordered_map<Parameter*, Tensor>& moments) {
  const std::uint32_t count = sio::get_u32(in);
  A3CS_CHECK(count == params.size(),
             "optimizer load_state: parameter count mismatch");
  moments.clear();
  for (Parameter* p : params) {
    if (!sio::get_bool(in)) continue;
    Tensor t = tensor::read_tensor(in);
    A3CS_CHECK(t.same_shape(p->value),
               "optimizer load_state: moment shape mismatch at " + p->name);
    moments.emplace(p, std::move(t));
  }
}

}  // namespace

void Sgd::step(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) {
    if (momentum_ == 0.0) {
      p->value.axpy(static_cast<float>(-lr_), p->grad);
      continue;
    }
    auto [it, inserted] = velocity_.try_emplace(p, p->value.shape());
    Tensor& v = it->second;
    for (std::int64_t i = 0; i < v.numel(); ++i) {
      v[i] = static_cast<float>(momentum_ * v[i] + p->grad[i]);
      p->value[i] -= static_cast<float>(lr_) * v[i];
    }
  }
}

void RmsProp::step(const std::vector<Parameter*>& params) {
  A3CS_PROF_SCOPE("optim-step");
  for (Parameter* p : params) {
    auto [it, inserted] = sq_avg_.try_emplace(p, p->value.shape());
    tensor::rmsprop_step(p->value, p->grad, it->second, lr_, alpha_, eps_);
  }
}

void Adam::step(const std::vector<Parameter*>& params) {
  A3CS_PROF_SCOPE("optim-step");
  for (Parameter* p : params) {
    auto it = state_.find(p);
    if (it == state_.end()) {
      it = state_.emplace(p, State{Tensor(p->value.shape()),
                                   Tensor(p->value.shape()), 0}).first;
    }
    State& s = it->second;
    ++s.t;
    const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(s.t));
    const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(s.t));
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      const double g = p->grad[i];
      s.m[i] = static_cast<float>(beta1_ * s.m[i] + (1.0 - beta1_) * g);
      s.v[i] = static_cast<float>(beta2_ * s.v[i] + (1.0 - beta2_) * g * g);
      const double mhat = s.m[i] / bc1;
      const double vhat = s.v[i] / bc2;
      p->value[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

void Sgd::save_state(std::ostream& out,
                     const std::vector<Parameter*>& params) const {
  save_moment_map(out, params, velocity_);
}

void Sgd::load_state(std::istream& in, const std::vector<Parameter*>& params) {
  load_moment_map(in, params, velocity_);
}

void RmsProp::save_state(std::ostream& out,
                         const std::vector<Parameter*>& params) const {
  save_moment_map(out, params, sq_avg_);
}

void RmsProp::load_state(std::istream& in,
                         const std::vector<Parameter*>& params) {
  load_moment_map(in, params, sq_avg_);
}

void Adam::save_state(std::ostream& out,
                      const std::vector<Parameter*>& params) const {
  namespace sio = util::sio;
  sio::put_u32(out, static_cast<std::uint32_t>(params.size()));
  for (Parameter* p : params) {
    const auto it = state_.find(p);
    sio::put_bool(out, it != state_.end());
    if (it == state_.end()) continue;
    sio::put_i64(out, it->second.t);
    tensor::write_tensor(out, it->second.m);
    tensor::write_tensor(out, it->second.v);
  }
}

void Adam::load_state(std::istream& in, const std::vector<Parameter*>& params) {
  namespace sio = util::sio;
  const std::uint32_t count = sio::get_u32(in);
  A3CS_CHECK(count == params.size(),
             "Adam load_state: parameter count mismatch");
  state_.clear();
  for (Parameter* p : params) {
    if (!sio::get_bool(in)) continue;
    State s;
    s.t = sio::get_i64(in);
    s.m = tensor::read_tensor(in);
    s.v = tensor::read_tensor(in);
    A3CS_CHECK(s.m.same_shape(p->value) && s.v.same_shape(p->value),
               "Adam load_state: moment shape mismatch at " + p->name);
    state_.emplace(p, std::move(s));
  }
}

double LinearLrSchedule::at(std::int64_t step) const {
  if (step <= hold_steps_) return lr_start_;
  if (step >= total_steps_) return lr_end_;
  const double frac = static_cast<double>(step - hold_steps_) /
                      static_cast<double>(total_steps_ - hold_steps_);
  return lr_start_ + frac * (lr_end_ - lr_start_);
}

}  // namespace a3cs::nn
