#include "bench_common.h"

#include <cstdlib>

namespace a3cs::bench {

rl::A2cConfig bench_a2c(const rl::LossCoefficients& coef,
                        std::uint64_t seed_value) {
  rl::A2cConfig cfg;
  cfg.num_envs = 16;
  cfg.rollout_len = 5;   // paper
  cfg.gamma = 0.99;      // paper
  cfg.lr_start = 2e-3;   // scaled-down runs need a hotter start than 1e-3
  cfg.lr_end = 2e-4;
  cfg.loss = coef;
  cfg.seed = seed_value;
  return cfg;
}

rl::EvalConfig bench_eval(std::uint64_t seed_value) {
  rl::EvalConfig cfg;
  cfg.episodes = static_cast<int>(util::env_int("A3CS_EVAL_EPISODES", 10));
  cfg.max_noop_starts = 30;  // paper protocol
  cfg.seed = seed_value;
  return cfg;
}

rl::EvalConfig curve_eval(std::uint64_t seed_value) {
  rl::EvalConfig cfg;
  cfg.episodes = 3;
  cfg.max_noop_starts = 30;
  cfg.seed = seed_value;
  return cfg;
}

std::unique_ptr<nn::ActorCriticNet> bench_teacher(const std::string& game) {
  rl::TeacherConfig cfg;
  cfg.model_name = "ResNet-20";  // paper's teacher backbone
  cfg.train_frames = util::scaled_steps(12000);
  cfg.cache_dir = ".a3cs_cache/teachers";
  return rl::get_or_train_teacher(game, cfg);
}

core::CoSearchConfig bench_cosearch(const std::string& game,
                                    std::uint64_t seed_value) {
  (void)game;
  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells =
      static_cast<int>(util::env_int("A3CS_CELLS", 6));
  cfg.a2c = bench_a2c(rl::paper_distill_coefficients(), seed_value);
  cfg.a2c.num_envs = 16;
  cfg.alpha_lr = 1e-3;  // paper: Adam at 1e-3
  cfg.das.samples_per_iter = 2;
  cfg.tau_decay_every_frames = 1000;
  cfg.seed = seed_value;
  return cfg;
}

void banner(const std::string& experiment, const std::string& description) {
  // Strict env validation: a typo'd A3CS_SCALE=0 or A3CS_EVAL_EPISODES=ten
  // must abort loudly before hours of benching, not silently fall back to
  // the defaults.
  const std::vector<std::string> env_errors = util::validate_bench_env();
  if (!env_errors.empty()) {
    for (const std::string& err : env_errors) {
      std::cerr << "bench env error: " << err << "\n";
    }
    std::exit(2);
  }
  std::cout << "\n==================================================\n"
            << experiment << ": " << description << "\n"
            << "A3CS_SCALE=" << util::bench_scale()
            << " (all step budgets multiplied by this)\n"
            << "==================================================\n";
}

}  // namespace a3cs::bench
