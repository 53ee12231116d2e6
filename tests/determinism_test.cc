// Bit-exactness of the parallel execution layer: every kernel and subsystem
// routed through util::ThreadPool must produce byte-identical results at any
// thread count (the determinism contract of src/util/thread_pool.h). Each
// test computes a reference at 1 thread and compares exactly — not within a
// tolerance — against runs at several other thread counts.
#include <gtest/gtest.h>

#include <vector>

#include "arcade/games.h"
#include "arcade/vec_env.h"
#include "nas/mixed_op.h"
#include "nn/layers.h"
#include "nn/zoo.h"
#include "rl/a2c.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using nn::Shape;
using nn::Tensor;

constexpr int kThreadCounts[] = {2, 3, 8};

// Runs `fn` with the global pool resized to `threads`, restoring serial mode
// afterwards so tests stay independent.
template <typename Fn>
auto at_threads(int threads, Fn&& fn) {
  util::ThreadPool::set_global_threads(threads);
  auto out = fn();
  util::ThreadPool::set_global_threads(1);
  return out;
}

void expect_bits_equal(const std::vector<float>& ref,
                       const std::vector<float>& got, int threads,
                       const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what << " at " << threads << " threads";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " diverges at index " << i << " with "
                              << threads << " threads";
  }
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return t;
}

// -------------------------------------------------------------- kernels ---

TEST(Determinism, GemmBitExactAcrossThreadCounts) {
  struct Case {
    int m, k, n;
    bool ta, tb;
    float alpha, beta;
  };
  const Case cases[] = {
      {256, 256, 256, false, false, 1.0f, 0.0f},
      {64, 576, 96, false, true, 1.0f, 0.0f},
      {33, 17, 29, true, false, 0.5f, 1.5f},
      {7, 130, 5, true, true, -1.0f, 0.25f},
  };
  for (const auto& p : cases) {
    Tensor a = random_tensor(p.ta ? Shape::mat(p.k, p.m) : Shape::mat(p.m, p.k), 1);
    Tensor b = random_tensor(p.tb ? Shape::mat(p.n, p.k) : Shape::mat(p.k, p.n), 2);
    const Tensor c0 = random_tensor(Shape::mat(p.m, p.n), 3);
    auto run = [&]() {
      Tensor c = c0;
      tensor::gemm(a, p.ta, b, p.tb, c, p.alpha, p.beta);
      return c.vec();
    };
    const auto ref = at_threads(1, run);
    for (int threads : kThreadCounts) {
      expect_bits_equal(ref, at_threads(threads, run), threads, "gemm");
    }
  }
}

TEST(Determinism, Im2ColAndCol2ImBitExact) {
  const Tensor x = random_tensor(Shape::nchw(3, 5, 13, 11), 4);
  const auto g = tensor::ConvGeometry::make(x.shape(), 3, 3, 2, 1);
  auto run = [&]() {
    Tensor cols(Shape::mat(5 * 3 * 3, g.n * g.oh * g.ow));
    tensor::im2col(x, g, cols);
    Tensor back(x.shape());
    tensor::col2im(cols, g, back);
    auto out = cols.vec();
    out.insert(out.end(), back.vec().begin(), back.vec().end());
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "im2col/col2im");
  }
}

TEST(Determinism, Conv2dForwardBackwardBitExact) {
  struct Case {
    int n, c, oc;
  };
  // The first case runs every conv GEMM as a single row shard; the second
  // (OC = 32, N = 16) splits the forward and weight-grad GEMMs over two
  // out-channel panels and the column-grad GEMM over nine ckk panels.
  const Case cases[] = {{4, 3, 8}, {16, 16, 32}};
  for (const auto& cs : cases) {
    const Tensor x = random_tensor(Shape::nchw(cs.n, cs.c, 12, 12), 5);
    auto run = [&]() {
      util::Rng rng(21);
      nn::Conv2d conv("conv", cs.c, cs.oc, 3, 1, 1, rng);
      Tensor y = conv.forward(x);
      const Tensor grad_out = random_tensor(y.shape(), 6);
      Tensor grad_in = conv.backward(grad_out);
      auto out = y.vec();
      out.insert(out.end(), grad_in.vec().begin(), grad_in.vec().end());
      out.insert(out.end(), conv.weight().grad.vec().begin(),
                 conv.weight().grad.vec().end());
      out.insert(out.end(), conv.bias().grad.vec().begin(),
                 conv.bias().grad.vec().end());
      return out;
    };
    const auto ref = at_threads(1, run);
    for (int threads : kThreadCounts) {
      expect_bits_equal(ref, at_threads(threads, run), threads, "conv2d");
    }
  }
}

// ------------------------------------------------------------ NAS / DAS ---

TEST(Determinism, MixedOpTopKBackwardBitExact) {
  const Tensor x = random_tensor(Shape::nchw(2, 4, 8, 8), 7);
  auto run = [&]() {
    util::Rng rng(31);
    util::Rng sampler(32);
    const double tau = 2.0;
    nas::MixedOp op("cell", 4, 8, 1, rng, &sampler, &tau,
                    /*backward_paths=*/4);
    Tensor y = op.forward(x);
    const Tensor grad_out = random_tensor(y.shape(), 8);
    Tensor grad_in = op.backward(grad_out);
    auto out = op.alpha().param().grad.vec();
    out.insert(out.end(), grad_in.vec().begin(), grad_in.vec().end());
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads,
                      "mixed-op backward");
  }
}

// ------------------------------------------------------------------ env ---

TEST(Determinism, VecEnvStepSequenceBitExact) {
  auto run = [&]() {
    arcade::VecEnv envs("Catch", 6, 77);
    util::Rng action_rng(9);
    std::vector<float> out(envs.reset().vec());
    for (int t = 0; t < 40; ++t) {
      std::vector<int> actions;
      for (int i = 0; i < envs.num_envs(); ++i) {
        actions.push_back(action_rng.uniform_int(envs.num_actions()));
      }
      const auto& step = envs.step(actions);
      out.insert(out.end(), step.obs.vec().begin(), step.obs.vec().end());
      for (double r : step.rewards) out.push_back(static_cast<float>(r));
      for (std::uint8_t d : step.dones) out.push_back(static_cast<float>(d));
    }
    for (double s : envs.drain_episode_scores()) {
      out.push_back(static_cast<float>(s));
    }
    out.push_back(static_cast<float>(envs.episodes_completed()));
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "vec-env");
  }
}

// ------------------------------------------------------------------- rl ---

TEST(Determinism, ShortA2cRunBitExact) {
  auto run = [&]() {
    auto probe = arcade::make_game("Catch", 1);
    util::Rng rng(13);
    auto agent = nn::build_zoo_agent("Vanilla", probe->obs_spec(),
                                     probe->num_actions(), rng);
    arcade::VecEnv envs("Catch", 4, 55);
    rl::A2cConfig cfg;
    cfg.loss = rl::no_distill_coefficients();
    cfg.num_envs = 4;
    rl::A2cTrainer trainer(*agent.net, envs, cfg);
    trainer.train(1200);
    std::vector<float> out;
    for (const auto* p : agent.net->parameters()) {
      out.insert(out.end(), p->value.vec().begin(), p->value.vec().end());
    }
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "a2c run");
  }
}

}  // namespace
}  // namespace a3cs
