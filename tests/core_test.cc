#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/cosearch.h"
#include "core/pipeline.h"
#include "obs/profile.h"
#include "rl/eval.h"
#include "util/logging.h"

namespace a3cs {
namespace {

core::CoSearchConfig small_config() {
  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = 3;  // smallest legal space (1 per stage)
  cfg.a2c.num_envs = 4;
  cfg.a2c.loss = rl::no_distill_coefficients();
  cfg.das.samples_per_iter = 2;
  cfg.tau_decay_every_frames = 500;
  return cfg;
}

TEST(CoSearch, OneLevelSmokeRunsAndDerives) {
  core::CoSearchEngine engine("Catch", small_config(), nullptr);
  const auto result = engine.run(600);
  EXPECT_EQ(result.arch.choices.size(), 3u);
  EXPECT_GE(result.frames, 600);
  EXPECT_FALSE(result.accelerator.chunks.empty());
  EXPECT_GT(result.hw_eval.ii_cycles, 0.0);
}

TEST(CoSearch, BiLevelSmokeRuns) {
  auto cfg = small_config();
  cfg.optimization = core::Optimization::kBiLevel;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const auto result = engine.run(600);
  EXPECT_EQ(result.arch.choices.size(), 3u);
}

TEST(CoSearch, PureNasModeSkipsAccelerator) {
  auto cfg = small_config();
  cfg.hardware_aware = false;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const auto result = engine.run(400);
  EXPECT_TRUE(result.accelerator.chunks.empty());
}

TEST(CoSearch, TemperatureDecaysOnSchedule) {
  auto cfg = small_config();
  cfg.tau_decay_every_frames = 100;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const double tau0 = engine.supernet().temperature();
  engine.run(500);
  EXPECT_LT(engine.supernet().temperature(), tau0);
}

TEST(CoSearch, CallbackFiresAtRequestedCadence) {
  auto cfg = small_config();
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  int calls = 0;
  engine.run(400, [&](std::int64_t) { ++calls; }, 100);
  EXPECT_GE(calls, 3);
}

TEST(CoSearch, HugeLambdaDrivesArchitectureToSkips) {
  // With an overwhelming hardware-cost penalty, the cheapest (skip) operator
  // must dominate the derived architecture — the cost path works end-to-end.
  auto cfg = small_config();
  cfg.lambda = 1e4;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const auto result = engine.run(1500);
  int skips = 0;
  for (int c : result.arch.choices) {
    if (c == 8) ++skips;  // op index 8 = skip
  }
  EXPECT_GE(skips, 2) << "arch: " << result.arch.to_string();
}

TEST(CoSearch, AlphaLogitsMoveDuringSearch) {
  auto cfg = small_config();
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  std::vector<float> before;
  for (auto* a : engine.supernet().alpha_params()) {
    for (std::int64_t i = 0; i < a->value.numel(); ++i) {
      before.push_back(a->value[i]);
    }
  }
  engine.run(600);
  double delta = 0.0;
  std::size_t k = 0;
  for (auto* a : engine.supernet().alpha_params()) {
    for (std::int64_t i = 0; i < a->value.numel(); ++i) {
      delta += std::abs(a->value[i] - before[k++]);
    }
  }
  EXPECT_GT(delta, 0.0);
}

TEST(Pipeline, TrainDerivedAgentProducesUsableNet) {
  nas::SearchSpaceConfig space;
  space.num_cells = 3;
  nas::DerivedArch arch;
  arch.choices = {0, 8, 0};
  rl::A2cConfig a2c;
  a2c.num_envs = 4;
  a2c.loss = rl::no_distill_coefficients();
  auto trained =
      core::train_derived_agent("Catch", arch, space, 400, a2c, nullptr, 5);
  ASSERT_NE(trained.net, nullptr);
  EXPECT_FALSE(trained.specs.empty());
  rl::EvalConfig ecfg;
  ecfg.episodes = 2;
  const auto eval = rl::evaluate_agent(*trained.net, "Catch", ecfg);
  EXPECT_EQ(eval.episodes, 2);
}

TEST(Pipeline, SearchAcceleratorRespectsBudget) {
  const auto specs = nn::zoo_model_specs("Vanilla", nn::ObsSpec{3, 12, 12}, 3);
  das::DasConfig cfg;
  cfg.iterations = 200;
  accel::AcceleratorConfig out;
  const auto eval = core::search_accelerator(specs, 2, cfg, &out);
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(out.num_chunks(), 2);
  EXPECT_LE(eval.dsp_used, 900);
}

core::PipelineConfig tiny_pipeline_config() {
  core::PipelineConfig cfg;
  cfg.cosearch = small_config();
  cfg.search_frames = 400;
  cfg.train_frames = 400;
  cfg.final_das.iterations = 100;
  cfg.eval.episodes = 2;
  return cfg;
}

TEST(Pipeline, EndToEndTiny) {
  const core::PipelineConfig cfg = tiny_pipeline_config();
  const auto result = core::run_a3cs_pipeline("Catch", cfg, nullptr);
  EXPECT_EQ(result.arch.choices.size(), 3u);
  EXPECT_GT(result.hw.fps, 0.0);
  EXPECT_FALSE(result.specs.empty());
  ASSERT_NE(result.trained_net, nullptr);
}

// Calls column of the profile-table row whose scope is `scope`, or -1 when no
// row has it. Rows look like "| scope | calls | total ms | ... |".
std::int64_t profile_calls(const std::string& log, const std::string& scope) {
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    std::string cell;
    while (std::getline(row, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    if (cells.size() > 2 && cells[1] == scope) return std::stoll(cells[2]);
  }
  return -1;
}

// The outermost profiled run prints the one end-of-run profile, after every
// pipeline stage has closed, whether or not a trace is being written.
TEST(Pipeline, ProfileReportedOnceAfterEveryStage) {
  const util::LogLevel saved_level = util::log_threshold();
  util::set_log_threshold(util::LogLevel::kInfo);
  const std::string trace_path =
      ::testing::TempDir() + "core_test_profile_trace.jsonl";
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "with trace path" : "without trace path");
    core::PipelineConfig cfg = tiny_pipeline_config();
    cfg.cosearch.obs.profile_enabled = true;
    cfg.cosearch.obs.trace_enabled = traced;
    cfg.cosearch.obs.trace_path = traced ? trace_path : "";
    obs::Profiler::global().reset();
    ::testing::internal::CaptureStderr();
    core::run_a3cs_pipeline("Catch", cfg, nullptr);
    const std::string log = ::testing::internal::GetCapturedStderr();
    obs::Profiler::set_enabled(false);
    obs::Profiler::global().reset();

    std::size_t summaries = 0;
    for (std::size_t at = log.find("wall-time profile:");
         at != std::string::npos;
         at = log.find("wall-time profile:", at + 1)) {
      ++summaries;
    }
    EXPECT_EQ(summaries, 1u) << log;
    for (const char* stage : {"pipeline-cosearch", "pipeline-train-derived",
                              "pipeline-final-das", "pipeline-eval"}) {
      EXPECT_GT(profile_calls(log, stage), 0) << stage << "\n" << log;
    }
  }
  std::remove(trace_path.c_str());
  util::set_log_threshold(saved_level);
}

}  // namespace
}  // namespace a3cs
