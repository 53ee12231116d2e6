#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/optim.h"
#include "tensor/backend/backend.h"
#include "util/rng.h"

namespace a3cs {
namespace {

using nn::Parameter;
using nn::Shape;
using nn::Tensor;

Parameter make_param(std::vector<float> value, std::vector<float> grad) {
  Parameter p("p", Shape::vec(static_cast<int>(value.size())));
  p.value = Tensor(p.value.shape(), std::move(value));
  p.grad = Tensor(p.grad.shape(), std::move(grad));
  return p;
}

// ------------------------------------------------------------------ SGD ---

TEST(Sgd, PlainStep) {
  Parameter p = make_param({1.0f, 2.0f}, {0.5f, -0.5f});
  nn::Sgd opt(0.1);
  opt.step({&p});
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(p.value[1], 2.0f + 0.1f * 0.5f);
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p = make_param({0.0f}, {1.0f});
  nn::Sgd opt(0.1, 0.9);
  opt.step({&p});  // v = 1, w = -0.1
  EXPECT_FLOAT_EQ(p.value[0], -0.1f);
  opt.step({&p});  // v = 0.9 + 1 = 1.9, w = -0.1 - 0.19 = -0.29
  EXPECT_NEAR(p.value[0], -0.29f, 1e-6);
}

TEST(Sgd, LearningRateSettable) {
  nn::Sgd opt(0.1);
  opt.set_learning_rate(0.01);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.01);
}

// -------------------------------------------------------------- RMSProp ---

TEST(RmsProp, FirstStepMatchesFormula) {
  Parameter p = make_param({1.0f}, {2.0f});
  const double alpha = 0.99, eps = 1e-5, lr = 0.1;
  nn::RmsProp opt(lr, alpha, eps);
  opt.step({&p});
  const double v = (1 - alpha) * 4.0;
  const double expected = 1.0 - lr * 2.0 / (std::sqrt(v) + eps);
  EXPECT_NEAR(p.value[0], expected, 1e-6);
}

TEST(RmsProp, StateIsPerParameter) {
  Parameter p1 = make_param({0.0f}, {1.0f});
  Parameter p2 = make_param({0.0f}, {100.0f});
  nn::RmsProp opt(0.1);
  opt.step({&p1, &p2});
  // RMS normalization: both should move by roughly lr / sqrt(1-alpha).
  EXPECT_NEAR(p1.value[0] / p2.value[0], 1.0, 1e-2);
}

// The update RmsProp::step ran per element before it moved to the kernel
// backend. Every backend must reproduce it byte for byte.
void rmsprop_reference(std::vector<float>& value, const std::vector<float>& grad,
                       std::vector<float>& v, double lr, double alpha,
                       double eps) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const double g = grad[i];
    v[i] = static_cast<float>(alpha * v[i] + (1.0 - alpha) * g * g);
    value[i] -=
        static_cast<float>(lr * g / (std::sqrt(static_cast<double>(v[i])) +
                                     eps));
  }
}

// Bit for bit, except that any two NaNs match.
bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(RmsProp, StepBitExactToReferenceLoopOnEveryBackend) {
  // Sizes 1-37 cover every 4-lane tail; 25603 is a supernet-sized tensor.
  std::vector<int> sizes;
  for (int n = 1; n <= 37; ++n) sizes.push_back(n);
  sizes.push_back(25603);
  const float specials[] = {0.0f,
                            -0.0f,
                            1e-40f,
                            -3e-42f,
                            std::numeric_limits<float>::denorm_min(),
                            1e30f,
                            -1e30f,
                            std::numeric_limits<float>::quiet_NaN()};
  const double alpha = 0.99, eps = 1e-5;
  const double lrs[] = {7e-4, 3e-4, 1e-4};  // 3 steps, as a schedule
  for (const std::string& name : tensor::backend::available_names()) {
    ASSERT_TRUE(tensor::backend::select(name));
    util::Rng rng(4242);
    std::vector<std::unique_ptr<Parameter>> params;
    std::vector<Parameter*> ptrs;
    std::vector<std::vector<float>> ref_value, ref_v;
    for (const int n : sizes) {
      params.push_back(std::make_unique<Parameter>("p", Shape::vec(n)));
      for (int i = 0; i < n; ++i) {
        params.back()->value[i] = static_cast<float>(rng.normal());
      }
      ptrs.push_back(params.back().get());
      ref_value.emplace_back(params.back()->value.data(),
                             params.back()->value.data() + n);
      ref_v.emplace_back(static_cast<std::size_t>(n), 0.0f);
    }
    nn::RmsProp opt(lrs[0], alpha, eps);
    for (int step = 0; step < 3; ++step) {
      opt.set_learning_rate(lrs[step]);
      std::vector<std::vector<float>> grads;
      for (Parameter* p : ptrs) {
        std::vector<float> g(static_cast<std::size_t>(p->grad.numel()));
        for (std::size_t i = 0; i < g.size(); ++i) {
          g[i] = rng.bernoulli(0.25)
                     ? specials[rng.uniform_int(8)]
                     : static_cast<float>(rng.normal(0.0, 0.5));
        }
        std::memcpy(p->grad.data(), g.data(), g.size() * sizeof(float));
        grads.push_back(std::move(g));
      }
      opt.step(ptrs);
      for (std::size_t k = 0; k < ptrs.size(); ++k) {
        rmsprop_reference(ref_value[k], grads[k], ref_v[k], lrs[step], alpha,
                          eps);
        for (std::size_t i = 0; i < ref_value[k].size(); ++i) {
          const float actual = ptrs[k]->value[static_cast<std::int64_t>(i)];
          ASSERT_TRUE(same_bits(actual, ref_value[k][i]))
              << name << " step " << step << " size " << ref_value[k].size()
              << " element " << i << ": " << actual << " vs "
              << ref_value[k][i];
        }
      }
    }
  }
  tensor::backend::select("scalar");
}

// ----------------------------------------------------------------- Adam ---

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, the very first Adam step is ~lr * sign(g).
  Parameter p = make_param({0.0f}, {3.0f});
  nn::Adam opt(0.01);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], -0.01, 1e-4);
}

TEST(Adam, MatchesReferenceImplementation) {
  Parameter p = make_param({1.0f}, {0.5f});
  const double lr = 0.1, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  nn::Adam opt(lr, b1, b2, eps);

  double m = 0, v = 0, w = 1.0;
  std::vector<double> grads = {0.5, -0.2, 0.7};
  for (std::size_t t = 0; t < grads.size(); ++t) {
    p.grad[0] = static_cast<float>(grads[t]);
    opt.step({&p});
    m = b1 * m + (1 - b1) * grads[t];
    v = b2 * v + (1 - b2) * grads[t] * grads[t];
    const double mh = m / (1 - std::pow(b1, static_cast<double>(t + 1)));
    const double vh = v / (1 - std::pow(b2, static_cast<double>(t + 1)));
    w -= lr * mh / (std::sqrt(vh) + eps);
    EXPECT_NEAR(p.value[0], w, 1e-5) << "step " << t;
  }
}

// ------------------------------------------------- convergence checks -----

class QuadraticConvergence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(QuadraticConvergence, MinimizesQuadratic) {
  // f(w) = 0.5 * ||w - target||^2, grad = w - target.
  Parameter p = make_param({5.0f, -3.0f, 2.0f}, {0, 0, 0});
  const std::vector<float> target = {1.0f, 1.0f, -1.0f};
  std::unique_ptr<nn::Optimizer> opt;
  const std::string name = GetParam();
  if (name == "sgd") opt = std::make_unique<nn::Sgd>(0.2);
  else if (name == "sgdm") opt = std::make_unique<nn::Sgd>(0.05, 0.9);
  else if (name == "rmsprop") opt = std::make_unique<nn::RmsProp>(0.05);
  else opt = std::make_unique<nn::Adam>(0.2);

  for (int it = 0; it < 400; ++it) {
    for (int i = 0; i < 3; ++i) {
      p.grad[i] = p.value[i] - target[static_cast<std::size_t>(i)];
    }
    opt->step({&p});
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(p.value[i], target[static_cast<std::size_t>(i)], 0.05)
        << name << " dim " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, QuadraticConvergence,
                         ::testing::Values("sgd", "sgdm", "rmsprop", "adam"));

// ------------------------------------------------------------ schedule ----

TEST(LinearLrSchedule, HoldsThenDecays) {
  nn::LinearLrSchedule s(1e-3, 1e-4, 100, 1000);
  EXPECT_DOUBLE_EQ(s.at(0), 1e-3);
  EXPECT_DOUBLE_EQ(s.at(100), 1e-3);
  EXPECT_DOUBLE_EQ(s.at(1000), 1e-4);
  EXPECT_DOUBLE_EQ(s.at(5000), 1e-4);
  const double mid = s.at(550);  // halfway through the decay
  EXPECT_NEAR(mid, (1e-3 + 1e-4) / 2, 1e-9);
  EXPECT_LT(s.at(700), s.at(300));
}

}  // namespace
}  // namespace a3cs
