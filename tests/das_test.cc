#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "accel/config_io.h"
#include "das/das.h"
#include "hw_eval_testing.h"
#include "nn/zoo.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using accel::AcceleratorSpace;
using accel::Predictor;

std::vector<nn::LayerSpec> resnet14_specs() {
  return nn::zoo_model_specs("ResNet-14", nn::ObsSpec{3, 12, 12}, 4);
}

TEST(Das, SearchReturnsFeasibleConfig) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(4, nn::num_groups(specs));
  Predictor pred;
  das::DasConfig cfg;
  cfg.iterations = 300;
  das::DasEngine engine(space, pred, cfg);
  const auto result = engine.search(specs);
  EXPECT_TRUE(result.eval.feasible);
  EXPECT_GT(result.eval.fps, 0.0);
  EXPECT_LE(result.eval.dsp_used, pred.budget().dsp);
  EXPECT_LE(result.eval.bram_used, pred.budget().bram18k);
  EXPECT_EQ(result.cost_curve.size(), 300u);
}

TEST(Das, CostImprovesOverSearch) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(4, nn::num_groups(specs));
  Predictor pred;
  das::DasConfig cfg;
  cfg.iterations = 600;
  das::DasEngine engine(space, pred, cfg);
  const auto result = engine.search(specs);
  // Average sampled cost over the first vs last 100 iterations must drop.
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 100; ++i) {
    early += result.cost_curve[static_cast<std::size_t>(i)];
    late += result.cost_curve[result.cost_curve.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_LT(late, early);
}

TEST(Das, BeatsRandomSearchAtEqualBudget) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(4, nn::num_groups(specs));
  Predictor pred;
  das::DasConfig cfg;
  cfg.iterations = 1000;
  das::DasEngine engine(space, pred, cfg);
  const auto das_result = engine.search(specs);
  // Random search with the same number of predictor evaluations.
  const auto rnd = das::random_search(space, pred, specs,
                                      cfg.iterations * cfg.samples_per_iter,
                                      999);
  EXPECT_GT(das_result.eval.fps, 0.8 * rnd.eval.fps)
      << "DAS should be at least competitive with random search";
}

TEST(Das, StepIsIncremental) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(2, nn::num_groups(specs));
  Predictor pred;
  das::DasEngine engine(space, pred);
  const double tau0 = engine.temperature();
  engine.step(specs, 5);
  EXPECT_LT(engine.temperature(), tau0);
  const auto cfg = engine.derive();
  EXPECT_EQ(cfg.num_chunks(), 2);
  const auto eval = engine.derive_eval(specs);
  EXPECT_GT(eval.ii_cycles, 0.0);
}

TEST(Das, DeriveIsDeterministic) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(2, nn::num_groups(specs));
  Predictor pred;
  das::DasEngine engine(space, pred);
  engine.step(specs, 20);
  const auto a = engine.derive();
  const auto b = engine.derive();
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(RandomSearch, FindsFeasibleOnReasonableSpace) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(4, nn::num_groups(specs));
  Predictor pred;
  const auto result = das::random_search(space, pred, specs, 200, 7);
  EXPECT_TRUE(result.eval.feasible);
  EXPECT_EQ(result.cost_curve.size(), 200u);
}

TEST(Exhaustive, RefusesHugeSpaces) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(4, nn::num_groups(specs));
  Predictor pred;
  EXPECT_THROW(das::exhaustive_search(space, pred, specs, 1e6),
               std::runtime_error);
}

TEST(Exhaustive, MatchesBruteForceOptimumOnTinySpace) {
  // Single-chunk, single-group space: 8*8*3*3*4*4*6*1 = 55296 configs.
  std::vector<nn::LayerSpec> specs = {
      nn::LayerSpec::conv("c", 8, 16, 3, 1, 12, 12)};
  nn::assign_sequential_groups(specs);
  AcceleratorSpace space(1, 1);
  Predictor pred;
  const auto best = das::exhaustive_search(space, pred, specs, 1e6);
  EXPECT_TRUE(best.eval.feasible);

  // No random sample may beat the exhaustive optimum.
  const auto rnd = das::random_search(space, pred, specs, 500, 11);
  EXPECT_LE(best.best_cost, rnd.best_cost + 1e-12);
}

TEST(Das, ApproachesExhaustiveOptimumOnTinySpace) {
  std::vector<nn::LayerSpec> specs = {
      nn::LayerSpec::conv("c", 8, 16, 3, 1, 12, 12)};
  nn::assign_sequential_groups(specs);
  AcceleratorSpace space(1, 1);
  Predictor pred;
  const auto best = das::exhaustive_search(space, pred, specs, 1e6);

  das::DasConfig cfg;
  cfg.iterations = 800;
  das::DasEngine engine(space, pred, cfg);
  const auto result = engine.search(specs);
  ASSERT_TRUE(result.eval.feasible);
  // Within 2x of the global optimum's cost (the optimum's II is tiny, so
  // a factor bound is the right scale-free criterion).
  EXPECT_LE(result.best_cost, 2.0 * best.best_cost)
      << "DAS cost " << result.best_cost << " vs optimum " << best.best_cost;
}

// The sweeps fan predictor evaluations out over the pool; the answer (config,
// evaluation, cost and the whole cost curve) must not depend on how many
// threads ran them.
void expect_result_identical(const das::DasResult& a, const das::DasResult& b) {
  EXPECT_EQ(accel::encode_config(a.config), accel::encode_config(b.config));
  testing::expect_eval_identical(a.eval, b.eval);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.cost_curve, b.cost_curve);
}

TEST(Das, SweepsAreBitExactAtEveryThreadCount) {
  const auto specs = resnet14_specs();
  AcceleratorSpace space(3, nn::num_groups(specs));
  std::vector<nn::LayerSpec> tiny_specs = {
      nn::LayerSpec::conv("c", 8, 16, 3, 1, 12, 12)};
  nn::assign_sequential_groups(tiny_specs);
  AcceleratorSpace tiny_space(1, 1);
  Predictor pred;
  das::DasConfig cfg;
  cfg.iterations = 60;
  cfg.samples_per_iter = 8;

  std::vector<das::DasResult> ref;
  for (int threads : {1, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    das::DasEngine engine(space, pred, cfg);
    const std::vector<das::DasResult> got = {
        engine.search(specs),
        das::random_search(space, pred, specs, 600, 5),
        das::exhaustive_search(tiny_space, pred, tiny_specs, 1e6)};
    if (ref.empty()) {
      ref = got;
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " sweep=" + std::to_string(i));
      expect_result_identical(got[i], ref[i]);
    }
  }
  util::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace a3cs
