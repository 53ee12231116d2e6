#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "grad_check.h"
#include "nn/blocks.h"
#include "nn/layers.h"
#include "tensor/backend/backend.h"
#include "util/rng.h"

namespace a3cs {
namespace {

using nn::Shape;
using nn::Tensor;
using testing::check_module_gradients;

// ------------------------------------------------- gradient checks --------

struct ConvParam {
  int n, in_c, out_c, k, stride, h, w;
};

class Conv2dGradTest : public ::testing::TestWithParam<ConvParam> {};

TEST_P(Conv2dGradTest, FiniteDifference) {
  const ConvParam p = GetParam();
  util::Rng rng(100);
  nn::Conv2d conv("conv", p.in_c, p.out_c, p.k, p.stride, p.k / 2, rng);
  check_module_gradients(conv, Shape::nchw(p.n, p.in_c, p.h, p.w));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dGradTest,
    ::testing::Values(ConvParam{1, 2, 3, 3, 1, 5, 5},
                      ConvParam{2, 3, 4, 3, 2, 6, 6},
                      ConvParam{1, 2, 2, 5, 2, 8, 8},
                      ConvParam{2, 1, 4, 1, 1, 4, 4},
                      ConvParam{1, 4, 2, 3, 1, 3, 3},
                      ConvParam{3, 2, 2, 3, 2, 5, 5}));

struct DwParam {
  int n, c, k, stride, h, w;
};

class DepthwiseGradTest : public ::testing::TestWithParam<DwParam> {};

TEST_P(DepthwiseGradTest, FiniteDifference) {
  const DwParam p = GetParam();
  util::Rng rng(101);
  nn::DepthwiseConv2d dw("dw", p.c, p.k, p.stride, p.k / 2, rng);
  check_module_gradients(dw, Shape::nchw(p.n, p.c, p.h, p.w));
}

INSTANTIATE_TEST_SUITE_P(Geometries, DepthwiseGradTest,
                         ::testing::Values(DwParam{1, 3, 3, 1, 5, 5},
                                           DwParam{2, 4, 3, 2, 6, 6},
                                           DwParam{1, 2, 5, 1, 7, 7},
                                           DwParam{2, 6, 5, 2, 6, 6}));

struct LinParam {
  int n, in_f, out_f;
};

class LinearGradTest : public ::testing::TestWithParam<LinParam> {};

TEST_P(LinearGradTest, FiniteDifference) {
  const LinParam p = GetParam();
  util::Rng rng(102);
  nn::Linear lin("lin", p.in_f, p.out_f, rng);
  check_module_gradients(lin, Shape::mat(p.n, p.in_f));
}

INSTANTIATE_TEST_SUITE_P(Geometries, LinearGradTest,
                         ::testing::Values(LinParam{1, 4, 3},
                                           LinParam{5, 8, 2},
                                           LinParam{2, 16, 16},
                                           LinParam{3, 1, 7}));

TEST(ReLUGrad, FiniteDifference) {
  nn::ReLU relu;
  check_module_gradients(relu, Shape::mat(3, 8));
}

TEST(FlattenGrad, FiniteDifference) {
  nn::Flatten flatten;
  check_module_gradients(flatten, Shape::nchw(2, 3, 4, 4));
}

TEST(SequentialGrad, ConvReluLinearStack) {
  util::Rng rng(103);
  auto seq = std::make_unique<nn::Sequential>("stack");
  seq->add(std::make_unique<nn::Conv2d>("c1", 2, 4, 3, 2, 1, rng));
  seq->add(std::make_unique<nn::ReLU>());
  seq->add(std::make_unique<nn::Flatten>());
  seq->add(std::make_unique<nn::Linear>("l1", 4 * 3 * 3, 5, rng));
  check_module_gradients(*seq, Shape::nchw(2, 2, 6, 6));
}

struct BlockParam {
  int in_c, out_c, k, stride;
};

class ResidualGradTest : public ::testing::TestWithParam<BlockParam> {};

TEST_P(ResidualGradTest, FiniteDifference) {
  const BlockParam p = GetParam();
  util::Rng rng(104);
  nn::ResidualBlock block("rb", p.in_c, p.out_c, p.k, p.stride, rng);
  // Composite blocks stack two ReLUs: finite differences occasionally cross
  // a kink, so the tolerance is looser than for primitive layers (wiring
  // errors would show up as order-1 discrepancies, not a few percent).
  testing::GradCheckOptions opt;
  opt.rel_tol = 0.15f;
  opt.abs_tol = 5e-2f;
  check_module_gradients(block, Shape::nchw(2, p.in_c, 6, 6), 1234, opt);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ResidualGradTest,
                         ::testing::Values(BlockParam{3, 3, 3, 1},
                                           BlockParam{2, 4, 3, 2},
                                           BlockParam{4, 4, 3, 2},
                                           BlockParam{2, 6, 3, 1}));

class InvResGradTest : public ::testing::TestWithParam<BlockParam> {};

TEST_P(InvResGradTest, FiniteDifference) {
  const BlockParam p = GetParam();
  util::Rng rng(105);
  // BlockParam.k reused as kernel, stride as stride; expansion 3.
  nn::InvertedResidual block("ir", p.in_c, p.out_c, p.k, 3, p.stride, rng);
  testing::GradCheckOptions opt;
  opt.rel_tol = 0.15f;
  opt.abs_tol = 5e-2f;
  check_module_gradients(block, Shape::nchw(2, p.in_c, 6, 6), 1234, opt);
}

INSTANTIATE_TEST_SUITE_P(Geometries, InvResGradTest,
                         ::testing::Values(BlockParam{3, 3, 3, 1},
                                           BlockParam{2, 4, 3, 2},
                                           BlockParam{3, 3, 5, 1},
                                           BlockParam{2, 5, 5, 2}));

TEST(SkipOpGrad, IdentityCase) {
  nn::SkipOp skip("skip", 3, 3, 1);
  check_module_gradients(skip, Shape::nchw(2, 3, 4, 4));
}

TEST(SkipOpGrad, StridedChannelChangingCase) {
  nn::SkipOp skip("skip", 2, 4, 2);
  check_module_gradients(skip, Shape::nchw(2, 2, 6, 6));
}

// ------------------------------------------------- forward semantics ------

TEST(Conv2d, OutputShapeAndBias) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 2, 3, 3, 2, 1, rng);
  // Zero weights isolate the bias.
  conv.weight().value.zero();
  conv.bias().value = Tensor(Shape::vec(3), {1.0f, 2.0f, 3.0f});
  Tensor x(Shape::nchw(2, 2, 6, 6), 0.5f);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape::nchw(2, 3, 3, 3));
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(1, 2, 2, 2), 3.0f);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 1, 1, 3, 1, 1, rng);
  conv.weight().value.zero();
  conv.weight().value[4] = 1.0f;  // center tap of the 3x3 kernel
  conv.bias().value.zero();
  Tensor x(Shape::nchw(1, 1, 4, 4));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 2, 3, 3, 1, 1, rng);
  Tensor x(Shape::nchw(1, 5, 6, 6));
  EXPECT_THROW(conv.forward(x), std::runtime_error);
}

TEST(Linear, MatchesManualComputation) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->value = Tensor(Shape::mat(2, 2), {1, 2, 3, 4});  // W
  params[1]->value = Tensor(Shape::vec(2), {10, 20});         // b
  Tensor x(Shape::mat(1, 2), {5, 6});
  Tensor y = lin.forward(x);
  // y = x @ W^T + b = [5*1+6*2+10, 5*3+6*4+20]
  EXPECT_FLOAT_EQ(y.at2(0, 0), 27.0f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 59.0f);
}

TEST(ReLU, ClampsNegatives) {
  nn::ReLU relu;
  Tensor x(Shape::vec(4), {-1, 0, 2, -3});
  Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  EXPECT_FLOAT_EQ(y[3], 0);
}

TEST(ReLU, BitExactToBranchyLoopOnEveryBackend) {
  // The loops ReLU ran before it dispatched through the backend table: they
  // fix the semantics every backend must reproduce bit for bit. Forward:
  // x < 0 gives +0, while -0 and NaN pass through. Backward: x <= 0 (-0
  // included) gives +0, and a NaN input passes the gradient.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {-0.0f, 0.0f,  nan,     -nan, inf,
                            -inf,  1e-40f, -1e-40f, 2.5f, -2.5f};
  util::Rng rng(4242);
  // 8-lane bodies plus every tail length.
  for (const int n : {1, 7, 8, 13, 16, 37}) {
    std::vector<float> xs(static_cast<std::size_t>(n)),
        gs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      xs[i] = i % 2 == 0 ? specials[(i / 2) % 10]
                         : static_cast<float>(rng.uniform(-1.0, 1.0));
      gs[i] = i % 3 == 0 ? specials[(i / 3 + 3) % 10]
                         : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const Tensor x(Shape::vec(n), xs);
    const Tensor g(Shape::vec(n), gs);
    Tensor want_y = x;
    for (std::int64_t i = 0; i < want_y.numel(); ++i) {
      if (want_y[i] < 0.0f) want_y[i] = 0.0f;
    }
    Tensor want_gi = g;
    for (std::int64_t i = 0; i < want_gi.numel(); ++i) {
      if (x[i] <= 0.0f) want_gi[i] = 0.0f;
    }
    for (const std::string& name : tensor::backend::available_names()) {
      ASSERT_TRUE(tensor::backend::select(name));
      nn::ReLU relu;
      const Tensor y = relu.forward(x);
      const Tensor gi = relu.backward(g);
      const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(float);
      EXPECT_EQ(std::memcmp(y.data(), want_y.data(), bytes), 0)
          << "forward, n=" << n << ", backend " << name;
      EXPECT_EQ(std::memcmp(gi.data(), want_gi.data(), bytes), 0)
          << "backward, n=" << n << ", backend " << name;
    }
  }
  tensor::backend::select_from_env();
}

TEST(Flatten, ShapeRoundTrip) {
  nn::Flatten f;
  Tensor x(Shape::nchw(2, 3, 4, 5));
  Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), Shape::mat(2, 60));
  Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(SkipOp, IdentityPassThrough) {
  nn::SkipOp skip("s", 3, 3, 1);
  Tensor x(Shape::nchw(1, 3, 4, 4), 0.7f);
  Tensor y = skip.forward(x);
  EXPECT_TRUE(y.same_shape(x));
  EXPECT_FLOAT_EQ(y[5], 0.7f);
}

TEST(SkipOp, StridedOutputShape) {
  nn::SkipOp skip("s", 2, 4, 2);
  Tensor x(Shape::nchw(1, 2, 6, 6));
  Tensor y = skip.forward(x);
  EXPECT_EQ(y.shape(), Shape::nchw(1, 4, 3, 3));
}

TEST(BackwardBeforeForward, Throws) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 1, 1, 3, 1, 1, rng);
  Tensor g(Shape::nchw(1, 1, 4, 4));
  EXPECT_THROW(conv.backward(g), std::runtime_error);
}

// ------------------------------------------------- parameters / utils -----

TEST(Parameters, CountsAndNames) {
  util::Rng rng(1);
  nn::Conv2d conv("myconv", 2, 3, 3, 1, 1, rng);
  auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name, "myconv.weight");
  EXPECT_EQ(params[1]->name, "myconv.bias");
  EXPECT_EQ(params[0]->numel(), 3 * 2 * 9);
  EXPECT_EQ(params[1]->numel(), 3);
  EXPECT_EQ(conv.num_parameters(), 3 * 2 * 9 + 3);
}

TEST(Parameters, ZeroGradClearsAll) {
  util::Rng rng(1);
  nn::Linear lin("l", 3, 2, rng);
  Tensor x(Shape::mat(1, 3), {1, 2, 3});
  lin.forward(x);
  lin.backward(Tensor(Shape::mat(1, 2), {1, 1}));
  EXPECT_GT(lin.parameters()[0]->grad.abs_max(), 0.0f);
  lin.zero_grad();
  EXPECT_FLOAT_EQ(lin.parameters()[0]->grad.abs_max(), 0.0f);
}

TEST(Parameters, GradientsAccumulateAcrossBackwards) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 1, rng);
  Tensor x(Shape::mat(1, 2), {1, 1});
  Tensor g(Shape::mat(1, 1), {1});
  lin.forward(x);
  lin.backward(g);
  const float once = lin.parameters()[0]->grad[0];
  lin.forward(x);
  lin.backward(g);
  EXPECT_FLOAT_EQ(lin.parameters()[0]->grad[0], 2 * once);
}

TEST(CopyParameters, TransfersValues) {
  util::Rng rng1(1), rng2(2);
  nn::Linear a("a", 3, 2, rng1), b("b", 3, 2, rng2);
  EXPECT_NE(a.parameters()[0]->value[0], b.parameters()[0]->value[0]);
  nn::copy_parameters(a, b);
  for (std::int64_t i = 0; i < a.parameters()[0]->value.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.parameters()[0]->value[i], b.parameters()[0]->value[i]);
  }
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(10.0f);
  params[1]->grad.fill(10.0f);
  const float norm_before =
      nn::clip_grad_norm(params, 1.0f, nn::grad_norm_stats(params));
  EXPECT_GT(norm_before, 1.0f);
  double total = 0.0;
  for (auto* p : params) {
    const float n = p->grad.norm();
    total += static_cast<double>(n) * n;
  }
  EXPECT_NEAR(std::sqrt(total), 1.0, 1e-5);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(0.01f);
  nn::clip_grad_norm(params, 100.0f, nn::grad_norm_stats(params));
  EXPECT_FLOAT_EQ(params[0]->grad[0], 0.01f);
}

}  // namespace
}  // namespace a3cs
