// Cross-backend validation: every kernel of the avx2 backend must agree
// with the scalar reference across a shape/stride/trans-flag/thread-count
// grid under the ULP tolerance policy of tensor/backend/check.h — plus unit
// coverage for the checker utility itself (tolerance violations, NaN/Inf
// reporting, deterministic failure messages), and layer checkers that
// compare nn::Conv2d and nn::DepthwiseConv2d on every available backend
// against naive float64 references (and Depthwise, which does not dispatch
// through the backend table, bit for bit against its naive float loop).
//
// On hosts without AVX2+FMA the grid cases GTEST_SKIP; the checker-utility
// and layer-checker cases always run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "tensor/backend/backend.h"
#include "tensor/backend/check.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

namespace backend = tensor::backend;
using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> random_vec(std::int64_t n, util::Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ------------------------------------------------- checker utility itself --

TEST(UlpDistance, CountsRepresentableSteps) {
  EXPECT_EQ(backend::ulp_distance(1.0f, 1.0f), 0);
  EXPECT_EQ(backend::ulp_distance(0.0f, -0.0f), 0);
  const float next = std::nextafter(1.0f, 2.0f);
  EXPECT_EQ(backend::ulp_distance(1.0f, next), 1);
  EXPECT_EQ(backend::ulp_distance(next, 1.0f), 1);
  // Crossing zero counts the values on both sides.
  const float tiny = std::nextafter(0.0f, 1.0f);
  EXPECT_EQ(backend::ulp_distance(tiny, -tiny), 2);
}

TEST(UlpDistance, NanAndMismatchedInfAreMaximal) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(backend::ulp_distance(nan, 1.0f), kMax);
  EXPECT_EQ(backend::ulp_distance(1.0f, nan), kMax);
  EXPECT_EQ(backend::ulp_distance(nan, nan), kMax);
  EXPECT_EQ(backend::ulp_distance(inf, 1.0f), kMax);
  EXPECT_EQ(backend::ulp_distance(inf, -inf), kMax);
  EXPECT_EQ(backend::ulp_distance(inf, inf), 0);  // equal infinities match
}

TEST(Checker, DetectsToleranceViolationAtFirstIndex) {
  backend::CheckOptions opt;
  opt.max_ulps = 4;
  opt.abs_tol = 0.0f;
  std::vector<float> expected{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> actual = expected;
  actual[1] = 2.5f;   // far out of tolerance
  actual[3] = 4.25f;  // also out
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                4, opt, "gemm 2x2x2");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.mismatches, 2);
  // The message is deterministic: label, first offending index, both values.
  EXPECT_NE(res.message.find("gemm 2x2x2"), std::string::npos);
  EXPECT_NE(res.message.find("first at [1]"), std::string::npos);
  EXPECT_NE(res.message.find("expected=2"), std::string::npos);
  EXPECT_NE(res.message.find("actual=2.5"), std::string::npos);
  EXPECT_NE(res.message.find("2/4 elements"), std::string::npos);
  // Byte-identical on a second run.
  const auto res2 = backend::compare_elementwise(expected.data(),
                                                 actual.data(), 4, opt,
                                                 "gemm 2x2x2");
  EXPECT_EQ(res.message, res2.message);
}

TEST(Checker, WithinUlpToleranceIsOk) {
  backend::CheckOptions opt;
  opt.max_ulps = 4;
  opt.abs_tol = 0.0f;
  std::vector<float> expected{1.0f, -3.5f, 100.0f};
  std::vector<float> actual{std::nextafter(1.0f, 2.0f),
                            std::nextafter(-3.5f, 0.0f), 100.0f};
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                3, opt, "x");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.mismatches, 0);
  EXPECT_TRUE(res.message.empty());
}

TEST(Checker, AbsToleranceRescuesCancellationNearZero) {
  // 1e-30 vs -1e-30 is a huge ULP distance but a negligible absolute error.
  backend::CheckOptions opt;
  opt.max_ulps = 4;
  opt.abs_tol = 1e-6f;
  const float a = 1e-30f, b = -1e-30f;
  EXPECT_GT(backend::ulp_distance(a, b), 1000000);
  const auto res = backend::compare_elementwise(&a, &b, 1, opt, "x");
  EXPECT_TRUE(res.ok);
}

TEST(Checker, NanMismatchIsReported) {
  backend::CheckOptions opt;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> expected{1.0f, nan};
  std::vector<float> actual{nan, nan};
  // Both-NaN (index 1) matches; NaN-vs-number (index 0) must fail even
  // though |e - a| is NaN (never <= abs_tol).
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                2, opt, "conv 1x2");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.mismatches, 1);
  EXPECT_NE(res.message.find("first at [0]"), std::string::npos);
  EXPECT_NE(res.message.find("nan/inf-mismatch"), std::string::npos);
}

TEST(Checker, OppositeInfinitiesMismatch) {
  backend::CheckOptions opt;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> expected{inf, -inf};
  std::vector<float> actual{inf, inf};
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                2, opt, "x");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.mismatches, 1);
  EXPECT_NE(res.message.find("first at [1]"), std::string::npos);
}

TEST(Checker, TensorShapeMismatchIsItsOwnError) {
  Tensor a(Shape::mat(2, 3));
  Tensor b(Shape::mat(3, 2));
  const auto res =
      backend::compare_tensors(a, b, backend::CheckOptions{}, "gemm");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("shape mismatch"), std::string::npos);
}

TEST(Checker, ToleranceScalesWithReductionLength) {
  const auto small = backend::tolerance_for_reduction(4);
  const auto big = backend::tolerance_for_reduction(4096);
  EXPECT_LT(small.max_ulps, big.max_ulps);
  EXPECT_LT(small.abs_tol, big.abs_tol);
  EXPECT_GT(small.max_ulps, 0);
}

// ------------------------------------------------------ cross-backend grid --

class BackendGrid : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!backend::cpu_supports_avx2()) {
      GTEST_SKIP() << "host lacks AVX2+FMA; avx2 backend unavailable";
    }
  }
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

TEST_F(BackendGrid, AvailableNamesListsBoth) {
  const auto names = backend::available_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "scalar");
  EXPECT_EQ(names[1], "avx2");
  EXPECT_STREQ(backend::avx2_backend()->name, "avx2");
}

TEST_F(BackendGrid, SelectRejectsUnknownNames) {
  EXPECT_FALSE(backend::select("sse9"));
  EXPECT_TRUE(backend::select("auto"));
  EXPECT_STREQ(backend::active().name, "avx2");
  EXPECT_TRUE(backend::select("scalar"));
  EXPECT_STREQ(backend::active().name, "scalar");
}

TEST_F(BackendGrid, GemmMatchesScalarAcrossShapeTransAlphaBetaThreads) {
  struct ShapeCase {
    int m, k, n;
  };
  // Full tiles, edge tiles in every dimension, k=1 reductions, tall/wide.
  const ShapeCase shapes[] = {{1, 1, 1},   {6, 8, 16},  {7, 17, 33},
                              {5, 3, 2},   {16, 64, 16}, {13, 100, 29},
                              {64, 256, 64}};
  const float alpha_beta[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -0.25f}};
  util::Rng rng(20260807);
  for (const auto& sc : shapes) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const auto a = random_vec(static_cast<std::int64_t>(sc.m) * sc.k, rng);
        const auto b = random_vec(static_cast<std::int64_t>(sc.k) * sc.n, rng);
        const auto c0 =
            random_vec(static_cast<std::int64_t>(sc.m) * sc.n, rng);
        for (const auto& ab : alpha_beta) {
          for (const int threads : {1, 4}) {
            util::ThreadPool::set_global_threads(threads);
            std::vector<float> c_ref = c0;
            {
              backend::ScopedBackend use(backend::scalar_backend());
              tensor::gemm_raw(a.data(), trans_a, b.data(), trans_b,
                               c_ref.data(), sc.m, sc.k, sc.n, ab[0], ab[1]);
            }
            std::vector<float> c_avx = c0;
            {
              backend::ScopedBackend use(*backend::avx2_backend());
              tensor::gemm_raw(a.data(), trans_a, b.data(), trans_b,
                               c_avx.data(), sc.m, sc.k, sc.n, ab[0], ab[1]);
            }
            const auto opt = backend::tolerance_for_reduction(sc.k);
            const std::string label =
                "gemm " + std::to_string(sc.m) + "x" + std::to_string(sc.k) +
                "x" + std::to_string(sc.n) + " tA=" + std::to_string(trans_a) +
                " tB=" + std::to_string(trans_b) +
                " alpha=" + std::to_string(ab[0]) +
                " beta=" + std::to_string(ab[1]) +
                " threads=" + std::to_string(threads);
            const auto res = backend::compare_elementwise(
                c_ref.data(), c_avx.data(),
                static_cast<std::int64_t>(sc.m) * sc.n, opt, label);
            EXPECT_TRUE(res.ok) << res.message;
          }
        }
      }
    }
  }
}

TEST_F(BackendGrid, GemmPerBackendResultsThreadCountInvariant) {
  // Per-backend determinism: for EACH backend the result must be
  // bit-identical at 1 and 4 threads (sharding never changes numerics).
  util::Rng rng(99);
  const int m = 37, k = 129, n = 53;
  const auto a = random_vec(static_cast<std::int64_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::int64_t>(k) * n, rng);
  for (const char* name : {"scalar", "avx2"}) {
    ASSERT_TRUE(backend::select(name));
    std::vector<std::vector<float>> results;
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
      tensor::gemm_raw(a.data(), false, b.data(), false, c.data(), m, k, n);
      results.push_back(std::move(c));
    }
    EXPECT_EQ(results[0], results[1]) << name << " not thread-invariant";
  }
  backend::select("scalar");
}

TEST_F(BackendGrid, Im2colAndCol2imBitExactAcrossStridePadGrid) {
  // Pure data movement (im2col) and order-preserving accumulation (col2im)
  // must be BIT-exact across backends: max_ulps = 0.
  struct GeomCase {
    int n, c, h, w, kh, stride, pad;
  };
  const GeomCase geoms[] = {{2, 3, 12, 12, 3, 1, 1}, {1, 1, 5, 5, 3, 2, 0},
                            {2, 2, 8, 8, 1, 1, 0},   {1, 3, 9, 7, 5, 1, 2},
                            {3, 1, 6, 6, 3, 2, 1},   {1, 2, 4, 4, 4, 1, 3}};
  backend::CheckOptions exact;
  exact.max_ulps = 0;
  exact.abs_tol = 0.0f;
  util::Rng rng(7);
  for (const auto& gc : geoms) {
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      Tensor input(Shape::nchw(gc.n, gc.c, gc.h, gc.w));
      for (std::int64_t i = 0; i < input.numel(); ++i) {
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      const auto g = ConvGeometry::make(input.shape(), gc.kh, gc.kh,
                                        gc.stride, gc.pad);
      const Shape cols_shape =
          Shape::mat(g.c * g.kh * g.kw, g.n * g.oh * g.ow);
      const std::string label = "geom " + std::to_string(gc.n) + "x" +
                                std::to_string(gc.c) + "x" +
                                std::to_string(gc.h) + "x" +
                                std::to_string(gc.w) + " k" +
                                std::to_string(gc.kh) + " s" +
                                std::to_string(gc.stride) + " p" +
                                std::to_string(gc.pad) + " t" +
                                std::to_string(threads);

      Tensor cols_ref(cols_shape), cols_avx(cols_shape);
      {
        backend::ScopedBackend use(backend::scalar_backend());
        tensor::im2col(input, g, cols_ref);
      }
      {
        backend::ScopedBackend use(*backend::avx2_backend());
        tensor::im2col(input, g, cols_avx);
      }
      auto res = backend::compare_tensors(cols_ref, cols_avx, exact,
                                          "im2col " + label);
      EXPECT_TRUE(res.ok) << res.message;

      Tensor grad_ref(input.shape()), grad_avx(input.shape());
      {
        backend::ScopedBackend use(backend::scalar_backend());
        tensor::col2im(cols_ref, g, grad_ref);
      }
      {
        backend::ScopedBackend use(*backend::avx2_backend());
        tensor::col2im(cols_ref, g, grad_avx);
      }
      res = backend::compare_tensors(grad_ref, grad_avx, exact,
                                     "col2im " + label);
      EXPECT_TRUE(res.ok) << res.message;
    }
  }
}

TEST_F(BackendGrid, GemmBetaZeroNeverReadsC) {
  // C initialized with NaN must come out finite when beta == 0 on both
  // backends — a kernel that reads C before scaling would propagate NaN.
  util::Rng rng(5);
  const int m = 9, k = 17, n = 21;
  const auto a = random_vec(static_cast<std::int64_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::int64_t>(k) * n, rng);
  for (const char* name : {"scalar", "avx2"}) {
    ASSERT_TRUE(backend::select(name));
    std::vector<float> c(static_cast<std::size_t>(m) * n,
                         std::numeric_limits<float>::quiet_NaN());
    tensor::gemm_raw(a.data(), false, b.data(), false, c.data(), m, k, n,
                     1.0f, 0.0f);
    for (const float v : c) {
      ASSERT_TRUE(std::isfinite(v)) << name << " read uninitialized C";
    }
  }
  backend::select("scalar");
}

// ------------------------------------------- Conv2d vs float64 reference --

// Naive direct convolution in float64 over the layer's own float inputs:
// forward output, input gradient, weight gradient and bias gradient for a
// fixed upstream gradient. The loops follow the definition, with no
// lowering, so they share no code or summation order with nn::Conv2d.
struct ConvReference {
  Tensor out, grad_in, grad_w, grad_b;
};

ConvReference conv_reference(const Tensor& x, const Tensor& w,
                             const Tensor& b, const Tensor& grad_out, int k,
                             int stride, int pad) {
  const int n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
            wd = x.shape()[3];
  const int oc = grad_out.shape()[1], oh = grad_out.shape()[2],
            ow = grad_out.shape()[3];
  const int ckk = c * k * k;
  std::vector<double> out(static_cast<std::size_t>(grad_out.numel()));
  std::vector<double> gin(static_cast<std::size_t>(x.numel()), 0.0);
  std::vector<double> gw(static_cast<std::size_t>(oc) * ckk, 0.0);
  std::vector<double> gb(static_cast<std::size_t>(oc), 0.0);
  for (int s = 0; s < n; ++s) {
    for (int o = 0; o < oc; ++o) {
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          const std::size_t oi =
              ((static_cast<std::size_t>(s) * oc + o) * oh + oy) * ow + ox;
          const double go = grad_out[static_cast<std::int64_t>(oi)];
          double acc = b[o];
          gb[o] += go;
          for (int ch = 0; ch < c; ++ch) {
            for (int ky = 0; ky < k; ++ky) {
              const int iy = oy * stride - pad + ky;
              if (iy < 0 || iy >= h) continue;
              for (int kx = 0; kx < k; ++kx) {
                const int ix = ox * stride - pad + kx;
                if (ix < 0 || ix >= wd) continue;
                const std::size_t xi =
                    ((static_cast<std::size_t>(s) * c + ch) * h + iy) * wd +
                    ix;
                const std::size_t wi =
                    static_cast<std::size_t>(o) * ckk + (ch * k + ky) * k + kx;
                const double xv = x[static_cast<std::int64_t>(xi)];
                const double wv = w[static_cast<std::int64_t>(wi)];
                acc += wv * xv;
                gin[xi] += go * wv;
                gw[wi] += go * xv;
              }
            }
          }
          out[oi] = acc;
        }
      }
    }
  }
  const auto to_tensor = [](const Shape& shape, const std::vector<double>& v) {
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t[i] = static_cast<float>(v[static_cast<std::size_t>(i)]);
    }
    return t;
  };
  return {to_tensor(grad_out.shape(), out), to_tensor(x.shape(), gin),
          to_tensor(w.shape(), gw), to_tensor(b.shape(), gb)};
}

TEST(LayerChecker, Conv2dMatchesFloat64ReferenceOnEveryBackend) {
  // The conv shapes the 6-cell supernet and its teacher create: batch 1
  // (acting), 16 (rollout envs) and 80 (16 envs x rollout 5); 12x12 and
  // 6x6 inputs; the stem, conv k3/k5 candidates, 1x1 expand/project and
  // strided projections; 8-32 channels.
  struct Case {
    int n, c, oc, hw, k, stride;
  };
  const Case cases[] = {{80, 3, 8, 12, 3, 2},  {80, 8, 8, 6, 5, 1},
                        {80, 8, 24, 6, 1, 1},  {80, 24, 8, 6, 1, 1},
                        {16, 16, 32, 12, 3, 1}, {16, 8, 16, 6, 3, 2},
                        {16, 16, 32, 6, 5, 2},  {16, 16, 32, 6, 1, 2},
                        {1, 3, 8, 12, 3, 2},   {1, 32, 32, 12, 5, 1},
                        {1, 8, 16, 6, 3, 2}};
  util::Rng rng(424242);
  for (const auto& cs : cases) {
    const int pad = cs.k / 2;
    nn::Conv2d conv("conv", cs.c, cs.oc, cs.k, cs.stride, pad, rng);
    // Nonzero biases, and every 7th weight exactly zero.
    for (std::int64_t i = 0; i < conv.bias().value.numel(); ++i) {
      conv.bias().value[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    for (std::int64_t i = 0; i < conv.weight().value.numel(); i += 7) {
      conv.weight().value[i] = 0.0f;
    }
    Tensor x(Shape::nchw(cs.n, cs.c, cs.hw, cs.hw));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const auto g = ConvGeometry::make(x.shape(), cs.k, cs.k, cs.stride, pad);
    Tensor grad_out(Shape::nchw(cs.n, cs.oc, g.oh, g.ow));
    for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
      grad_out[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    const ConvReference ref =
        conv_reference(x, conv.weight().value, conv.bias().value, grad_out,
                       cs.k, cs.stride, pad);
    const int ohw = g.oh * g.ow;
    // Backward accumulates into the parameter gradients: each run starts
    // them at the reference values, so they must end at exactly twice that.
    const Tensor twice_grad_w = ref.grad_w * 2.0f;
    const Tensor twice_grad_b = ref.grad_b * 2.0f;
    for (const std::string& name : backend::available_names()) {
      ASSERT_TRUE(backend::select(name));
      for (const int threads : {1, 4}) {
        util::ThreadPool::set_global_threads(threads);
        conv.weight().grad = ref.grad_w;
        conv.bias().grad = ref.grad_b;
        const Tensor y = conv.forward(x);
        const Tensor grad_in = conv.backward(grad_out);
        const std::string label =
            "n" + std::to_string(cs.n) + " c" + std::to_string(cs.c) + " oc" +
            std::to_string(cs.oc) + " " + std::to_string(cs.hw) + "x" +
            std::to_string(cs.hw) + " k" + std::to_string(cs.k) + " s" +
            std::to_string(cs.stride) + " " + name + " t" +
            std::to_string(threads);
        const struct {
          const char* what;
          const Tensor& expected;
          const Tensor& actual;
          int reduction;
        } checks[] = {
            {"conv2d fwd", ref.out, y, cs.c * cs.k * cs.k},
            {"conv2d dx", ref.grad_in, grad_in, cs.oc * cs.k * cs.k},
            {"conv2d dw", twice_grad_w, conv.weight().grad, cs.n * ohw},
            {"conv2d db", twice_grad_b, conv.bias().grad, cs.n * ohw},
        };
        for (const auto& ck : checks) {
          const auto res = backend::compare_tensors(
              ck.expected, ck.actual,
              backend::tolerance_for_reduction(ck.reduction),
              std::string(ck.what) + " " + label);
          EXPECT_TRUE(res.ok) << res.message;
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
  backend::select("scalar");
}

// --------------------------------- DepthwiseConv2d vs naive loops --

// The per-element depthwise loop nn::DepthwiseConv2d ran before it moved to
// plane pointers, with plain index arithmetic in place of Tensor::at4. It
// is templated on the accumulator: in float it fixes the exact summation
// order the layer must reproduce bit for bit, and in double it is the
// float64 reference. grad_w and grad_b accumulate into their start values.
struct DwResult {
  Tensor out, grad_in, grad_w, grad_b;
};

template <typename Acc>
DwResult depthwise_loop(const Tensor& x, const Tensor& w, const Tensor& b,
                        const Tensor& grad_out, const Tensor& grad_w0,
                        const Tensor& grad_b0, int k, int stride, int pad) {
  const int n = x.shape()[0], c = x.shape()[1], h = x.shape()[2],
            wd = x.shape()[3];
  const int oh = grad_out.shape()[2], ow = grad_out.shape()[3];
  std::vector<Acc> out(static_cast<std::size_t>(grad_out.numel()));
  std::vector<Acc> gin(static_cast<std::size_t>(x.numel()), Acc(0));
  std::vector<Acc> gw(grad_w0.vec().begin(), grad_w0.vec().end());
  std::vector<Acc> gb(grad_b0.vec().begin(), grad_b0.vec().end());
  const auto xi = [&](int s, int ch, int iy, int ix) {
    return ((static_cast<std::size_t>(s) * c + ch) * h + iy) * wd + ix;
  };
  const auto oi = [&](int s, int ch, int oy, int ox) {
    return ((static_cast<std::size_t>(s) * c + ch) * oh + oy) * ow + ox;
  };
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const std::size_t w0 = static_cast<std::size_t>(ch) * k * k;
      double bias_acc = 0.0;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          Acc acc = b[ch];
          const Acc go = grad_out.vec()[oi(s, ch, oy, ox)];
          bias_acc += go;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= wd) continue;
              acc += Acc(w[w0 + ky * k + kx]) * Acc(x.vec()[xi(s, ch, iy, ix)]);
            }
          }
          out[oi(s, ch, oy, ox)] = acc;
          if (go == Acc(0)) continue;
          for (int ky = 0; ky < k; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < k; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= wd) continue;
              gw[w0 + ky * k + kx] += go * Acc(x.vec()[xi(s, ch, iy, ix)]);
              gin[xi(s, ch, iy, ix)] += go * Acc(w[w0 + ky * k + kx]);
            }
          }
        }
      }
      gb[ch] += static_cast<Acc>(bias_acc);
    }
  }
  const auto to_tensor = [](const Shape& shape, const std::vector<Acc>& v) {
    Tensor t(shape);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t[i] = static_cast<float>(v[static_cast<std::size_t>(i)]);
    }
    return t;
  };
  return {to_tensor(grad_out.shape(), out), to_tensor(x.shape(), gin),
          to_tensor(w.shape(), gw), to_tensor(b.shape(), gb)};
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(LayerChecker, DepthwiseConv2dBitExactToNaiveLoop) {
  // The depthwise shapes of the supernet's inverted-residual candidates:
  // mid = in_c x {1, 3, 5} for in_c 8/16/32, k3/k5, stride 1 and 2, on
  // 12x12, 6x6 and 3x3 planes plus odd 7x7 and 5x5 ones, at batch 1
  // (acting), 16 (rollout envs) and 80 (16 envs x rollout 5).
  struct Case {
    int n, c, hw, k, stride;
  };
  const Case cases[] = {{80, 8, 12, 3, 1},   {80, 24, 6, 5, 1},
                        {80, 40, 6, 3, 2},   {80, 48, 3, 5, 1},
                        {80, 160, 3, 3, 1},  {16, 40, 12, 5, 2},
                        {16, 16, 6, 3, 2},   {16, 80, 6, 5, 1},
                        {16, 96, 3, 3, 1},   {16, 24, 7, 5, 2},
                        {1, 24, 12, 3, 1},   {1, 48, 6, 5, 2},
                        {1, 160, 3, 5, 1},   {1, 8, 5, 3, 2}};
  util::Rng rng(515151);
  for (const auto& cs : cases) {
    const int pad = cs.k / 2;
    nn::DepthwiseConv2d dw("dw", cs.c, cs.k, cs.stride, pad, rng);
    for (std::int64_t i = 0; i < dw.bias().value.numel(); ++i) {
      dw.bias().value[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    const Tensor x(Shape::nchw(cs.n, cs.c, cs.hw, cs.hw),
                   random_vec(std::int64_t{cs.n} * cs.c * cs.hw * cs.hw, rng));
    const auto g = ConvGeometry::make(x.shape(), cs.k, cs.k, cs.stride, pad);
    Tensor grad_out(Shape::nchw(cs.n, cs.c, g.oh, g.ow),
                    random_vec(std::int64_t{cs.n} * cs.c * g.oh * g.ow, rng));
    // Every 5th upstream gradient is exactly zero: the skip path runs.
    for (std::int64_t i = 0; i < grad_out.numel(); i += 5) grad_out[i] = 0.0f;
    // Nonzero start values, so the accumulation into them is covered too.
    const Tensor grad_w0(dw.weight().value.shape(),
                         random_vec(dw.weight().value.numel(), rng));
    const Tensor grad_b0(dw.bias().value.shape(),
                         random_vec(dw.bias().value.numel(), rng));
    const DwResult exact =
        depthwise_loop<float>(x, dw.weight().value, dw.bias().value, grad_out,
                              grad_w0, grad_b0, cs.k, cs.stride, pad);
    const DwResult ref64 =
        depthwise_loop<double>(x, dw.weight().value, dw.bias().value,
                               grad_out, grad_w0, grad_b0, cs.k, cs.stride, pad);
    const int ohw = g.oh * g.ow;
    for (const std::string& name : backend::available_names()) {
      ASSERT_TRUE(backend::select(name));
      for (const int threads : {1, 4}) {
        util::ThreadPool::set_global_threads(threads);
        dw.weight().grad = grad_w0;
        dw.bias().grad = grad_b0;
        const Tensor y = dw.forward(x);
        const Tensor grad_in = dw.backward(grad_out);
        const std::string label =
            "n" + std::to_string(cs.n) + " c" + std::to_string(cs.c) + " " +
            std::to_string(cs.hw) + "x" + std::to_string(cs.hw) + " k" +
            std::to_string(cs.k) + " s" + std::to_string(cs.stride) + " " +
            name + " t" + std::to_string(threads);
        const struct {
          const char* what;
          const Tensor& exact;
          const Tensor& ref64;
          const Tensor& actual;
          int reduction;
        } checks[] = {
            {"depthwise fwd", exact.out, ref64.out, y, cs.k * cs.k},
            {"depthwise dx", exact.grad_in, ref64.grad_in, grad_in,
             cs.k * cs.k},
            {"depthwise dw", exact.grad_w, ref64.grad_w, dw.weight().grad,
             cs.n * ohw},
            {"depthwise db", exact.grad_b, ref64.grad_b, dw.bias().grad,
             cs.n * ohw},
        };
        for (const auto& ck : checks) {
          EXPECT_TRUE(bytes_equal(ck.exact, ck.actual))
              << ck.what << " " << label << " differs from the naive loop";
          const auto res = backend::compare_tensors(
              ck.ref64, ck.actual,
              backend::tolerance_for_reduction(ck.reduction),
              std::string(ck.what) + " " + label);
          EXPECT_TRUE(res.ok) << res.message;
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
  backend::select("scalar");
}

}  // namespace
}  // namespace a3cs
