// Workload `cosearch`: the Alg. 1 co-search loop of core::CoSearchEngine on
// Breakout at the bench configuration and one thread, one step per
// iteration. A 4-thread run of the same seed checks the any-thread-count
// bit-exactness contract and, in the traced run, gives the thread-pool
// metrics. The traced run also drives the same iteration from the public
// calls it is made of (rollout, DAS step, A2C update, alpha update) with a
// span around each.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "accel/config_io.h"
#include "accel/predictor.h"
#include "accel/space.h"
#include "arcade/games.h"
#include "arcade/vec_env.h"
#include "common.h"
#include "core/cosearch.h"
#include "das/das.h"
#include "nas/supernet.h"
#include "nn/actor_critic.h"
#include "nn/layer_spec.h"
#include "nn/optim.h"
#include "nn/zoo.h"
#include "obs/metrics.h"
#include "rl/a2c.h"
#include "rl/rollout.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace a = a3cs;

namespace {

// The run stops on time long before this; it only fixes the LR schedule.
constexpr std::int64_t kSearchFrames = 80LL * 1000 * 1000;
constexpr int kBatch = 80;  // 16 envs x rollout 5
// The thread count of the bit-exactness check and the pool metrics. It is
// not timed as a workload of its own: on a shared 4-vCPU VM its step median
// spread 16-39% of the median across ten seeds.
constexpr int kPoolThreads = 4;

// The bench configuration: 6 cells of base width 8, 16 envs, rollout 5,
// one-level, hardware-aware, the paper's distillation coefficients.
a::core::CoSearchConfig bench_config(std::uint64_t seed, int threads) {
  a::core::CoSearchConfig cfg;
  cfg.supernet.space = bench_space();
  cfg.supernet.sample_seed = mix(seed, 1);
  cfg.a2c.num_envs = 16;
  cfg.a2c.rollout_len = 5;
  cfg.a2c.gamma = 0.99;
  cfg.a2c.lr_start = 2e-3;
  cfg.a2c.lr_end = 2e-4;
  cfg.a2c.loss = a::rl::paper_distill_coefficients();
  cfg.a2c.seed = seed;
  cfg.alpha_lr = 1e-3;
  cfg.das.samples_per_iter = 2;
  cfg.das.seed = mix(seed, 2);
  cfg.tau_decay_every_frames = 1000;
  cfg.optimization = a::core::Optimization::kOneLevel;
  cfg.hardware_aware = true;
  cfg.seed = seed;
  cfg.exec.threads = threads;
  return cfg;
}

// A seeded, untrained ResNet-20: its forward costs what a trained one's does,
// and nothing is read from or written to a teacher cache.
std::unique_ptr<a::nn::ActorCriticNet> make_teacher(std::uint64_t seed,
                                                    bool traced) {
  auto probe = a::arcade::make_game(kGame, 1);
  a::util::Rng rng(mix(seed, 3));
  a::nn::BackboneBuild bb =
      a::nn::build_resnet(probe->obs_spec(), /*blocks_per_stage=*/3,
                          /*base_width=*/8, rng);
  std::unique_ptr<a::nn::Module> backbone = std::move(bb.module);
  if (traced) {
    backbone = std::make_unique<SpanModule>(
        std::move(backbone), "nn.teacher_forward", "nn.teacher_forward",
        kBatch, "nn.teacher_backward");
  }
  return std::make_unique<a::nn::ActorCriticNet>(
      std::move(backbone), bb.feature_dim, probe->num_actions(), rng);
}

// Derived architecture, accelerator and a CRC of every weight and alpha:
// byte-identical at any thread count under the program's contract.
std::string search_state(a::core::CoSearchEngine& engine) {
  std::uint32_t crc = 0;
  std::vector<a::nn::Parameter*> params = engine.net().parameters();
  for (a::nn::Parameter* p : engine.supernet().alpha_params()) {
    params.push_back(p);
  }
  for (const a::nn::Parameter* p : params) {
    crc = a::util::crc32_update(
        crc, p->value.data(),
        static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
  return engine.supernet().derive().to_string() + " " +
         a::accel::encode_config(engine.das_engine().derive()) + " crc=" +
         std::to_string(crc);
}

struct StopRun {};  // thrown from the run callback to end a run

// One teacher + engine, built from the seed, and one run of it.
class EngineRun {
 public:
  EngineRun(std::uint64_t seed, int threads)
      : t0_(now_s()),
        teacher_(make_teacher(seed, false)),
        engine_(kGame, bench_config(seed, threads), teacher_.get()) {}

  // Runs `warmup` iterations, then timed iterations until `loop` is done,
  // never stopping before iteration `state_iter`, where it records
  // search_state(). Per-step output checks go to `report` when it is set.
  void run(int warmup, const TimedLoop& loop, int state_iter, Report* report,
           bool count_macs) {
    auto& reg = a::obs::MetricsRegistry::global();
    a::obs::Gauge& grad_norm = reg.gauge("train.grad_norm");
    a::obs::Gauge& param_norm = reg.gauge("train.param_norm");
    std::int64_t iters = 0;
    double last = 0.0, timed_start = 0.0;
    const auto callback = [&](std::int64_t) {
      ++iters;
      const double t = now_s();
      if (iters > warmup) step_ms.push_back((t - last) * 1e3);
      if (report != nullptr) {
        // A non-finite loss makes the gradient norm non-finite.
        report->check("step_outputs",
                      std::isfinite(grad_norm.value()) &&
                          std::isfinite(param_norm.value()),
                      "iteration " + std::to_string(iters) +
                          ": non-finite gradient or parameter norm");
      }
      if (count_macs && iters > warmup) {
        a::nas::Supernet& sn = engine_.supernet();
        macs_sum += static_cast<double>(
            a::nn::network_macs(sn.specs_for(sn.last_choices())));
      }
      if (iters == state_iter) state = search_state(engine_);
      if (iters == warmup) {
        setup_s = t - t0_;
        start = take_snapshot();
        timed_start = now_s();
      }
      const auto timed = static_cast<std::int64_t>(step_ms.size());
      const double elapsed = timed > 0 ? t - timed_start : 0.0;
      if (iters >= warmup && iters >= state_iter && loop.done(elapsed, timed)) {
        end = take_snapshot();
        timed_wall_s = t - timed_start;
        throw StopRun{};
      }
      last = now_s();  // this callback's own work is in no step
    };
    try {
      engine_.run(kSearchFrames, callback, /*callback_every=*/kBatch);
    } catch (const StopRun&) {
    }
  }

  a::core::CoSearchEngine& engine() { return engine_; }

  std::vector<double> step_ms;
  double setup_s = 0.0;
  double timed_wall_s = 0.0;
  double macs_sum = 0.0;
  std::string state;
  CounterSnapshot start, end;

 private:
  double t0_;
  std::unique_ptr<a::nn::ActorCriticNet> teacher_;
  a::core::CoSearchEngine engine_;
};

// End-of-run checks on the searched design, printed with it.
void check_result(EngineRun& r, Report& report) {
  a::core::CoSearchEngine& engine = r.engine();
  const a::nas::DerivedArch arch = engine.supernet().derive();
  const std::string arch_s = arch.to_string();
  bool parses = false;
  try {
    parses = a::nas::DerivedArch::from_string(arch_s).choices == arch.choices &&
             arch.choices.size() == 6;
  } catch (const std::exception&) {
  }
  report.check("arch_parses", parses, arch_s);

  const a::accel::AcceleratorConfig accel = engine.das_engine().derive();
  const a::accel::HwEval hw =
      a::accel::Predictor(engine.config().budget)
          .evaluate(engine.supernet().specs_for(arch.choices), accel);
  report.check("accelerator_feasible", hw.feasible,
               "derived accelerator over budget: " + accel.to_string());

  auto& reg = a::obs::MetricsRegistry::global();
  const std::int64_t skips = reg.counter("guard.skips").value() +
                             reg.counter("guard.a2c_skips").value();
  report.check("no_skipped_updates", skips == 0,
               std::to_string(skips) + " updates skipped");

  report.meta("arch", arch_s);
  report.meta("accelerator", accel.to_string());
  report.meta("hw_fps", hw.fps);
  report.meta("hw_dsp", hw.dsp_used);
  report.meta("reward_ewma", engine.reward_ewma());
  // Health verdicts such as a finite gradient explosion are reported, not
  // failed: the update still ran, clipped.
  report.meta("guard_error_verdicts",
              static_cast<double>(reg.counter("guard.verdicts.error").value()));
  report.meta("iterations", static_cast<double>(engine.iterations()));
}

// The traced loop: one Alg. 1 iteration from the public calls it is made of,
// with the construction and seeds of CoSearchEngine.
void run_traced_loop(const Options& opt, int warmup, const TimedLoop& loop,
                     Report& report) {
  const a::core::CoSearchConfig cfg = bench_config(opt.seed, 1);
  a::util::ThreadPool::set_global_threads(1);
  auto probe = a::arcade::make_game(kGame, 1);
  a::arcade::VecEnv envs(kGame, cfg.a2c.num_envs, cfg.seed + 1);
  a::util::Rng rng(cfg.seed);
  auto owned = std::make_unique<a::nas::Supernet>(probe->obs_spec(),
                                                  cfg.supernet, rng);
  a::nas::Supernet& supernet = *owned;
  const int feature_dim = supernet.feature_dim();
  a::util::Rng head_rng(cfg.seed + 3);
  a::nn::ActorCriticNet net(
      std::make_unique<SpanModule>(std::move(owned), "nas.supernet_forward",
                                   "nas.supernet_forward_rollout", kBatch,
                                   "nas.supernet_backward"),
      feature_dim, probe->num_actions(), head_rng);
  auto teacher = make_teacher(opt.seed, true);
  a::rl::RolloutCollector collector(envs, a::util::Rng(cfg.seed + 2));
  a::accel::AcceleratorSpace space(cfg.num_chunks,
                                   cfg.supernet.space.num_cells + 2);
  a::accel::Predictor predictor(cfg.budget);
  a::das::DasEngine das(space, predictor, cfg.das);
  a::nn::RmsProp theta_opt(cfg.a2c.lr_start);
  a::nn::Adam alpha_opt(cfg.alpha_lr);
  const a::nn::LinearLrSchedule schedule(
      cfg.a2c.lr_start, cfg.a2c.lr_end,
      static_cast<std::int64_t>(cfg.a2c.lr_hold_frac *
                                static_cast<double>(kSearchFrames)),
      kSearchFrames);
  std::int64_t next_tau_decay = cfg.tau_decay_every_frames;

  Tracer& t = tracer();
  double timed_start = 0.0;
  for (std::int64_t iter = 0;; ++iter) {
    if (iter == warmup) {
      t.set_enabled(true);
      timed_start = now_s();
    }
    if (iter >= warmup && loop.done(now_s() - timed_start, iter - warmup)) {
      break;
    }
    t.set_step(iter);
    a::rl::UpdateStats st;
    {
      Span step("cosearch.iter");
      theta_opt.set_learning_rate(schedule.at(collector.frames()));
      a::rl::Rollout rollout;
      {
        Span s("rl.rollout");
        rollout = collector.collect(net, cfg.a2c.rollout_len);
      }
      {
        Span s("das.cosearch_step");
        das.step(supernet.specs_for(supernet.last_choices()),
                 cfg.das_steps_per_iter);
      }
      supernet.zero_alpha_grads();
      {
        Span s("rl.a2c_update");
        st = a::rl::a2c_update(net, rollout, cfg.a2c, theta_opt,
                               teacher.get());
      }
      {
        // Eq. 8 cost penalty on the sampled cells, then the alpha step.
        Span s("nas.alpha_update");
        const std::vector<int> choices = supernet.last_choices();
        const auto specs = supernet.specs_for(choices);
        const a::accel::HwEval eval = das.derive_eval(specs);
        for (int cell = 0; cell < supernet.num_cells(); ++cell) {
          const double penalty = cfg.lambda *
                                 eval.group_cycles(specs, cell + 1) /
                                 cfg.cost_norm_cycles;
          supernet.cell(cell).alpha().add_grad(
              choices[static_cast<std::size_t>(cell)],
              static_cast<float>(penalty));
        }
        alpha_opt.step(supernet.alpha_params());
      }
      while (collector.frames() >= next_tau_decay) {
        supernet.decay_temperature();
        next_tau_decay += cfg.tau_decay_every_frames;
      }
    }
    report.check("traced_step_outputs",
                 !st.skipped && std::isfinite(st.loss.total) &&
                     std::isfinite(st.grad_norm),
                 "traced iteration " + std::to_string(iter) +
                     ": update skipped or non-finite loss");
  }
  t.set_enabled(false);
}

// arcade.vecenv_step_ms: VecEnv::step on the co-search's 16 Breakout envs.
void report_vecenv_probe(const Options& opt, Report& report) {
  a::arcade::VecEnv envs(kGame, 16, mix(opt.seed, 8));
  envs.reset();
  a::util::Rng rng(mix(opt.seed, 9));
  std::vector<int> actions(16);
  std::vector<double> ms;
  for (int i = 0; i < (opt.smoke ? 3 : 400); ++i) {
    for (int& act : actions) act = rng.uniform_int(envs.num_actions());
    const double t0 = now_s();
    envs.step(actions);
    ms.push_back((now_s() - t0) * 1e3);
  }
  report.metric("arcade.vecenv_step_ms", quantile(ms, 0.5));
}

}  // namespace

void run_cosearch(const Options& opt, Report& report) {
  const int warmup = opt.smoke ? 1 : 3;
  const int state_iter = opt.smoke ? 2 : 10;
  TimedLoop loop;
  loop.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  loop.min_steps = opt.trace ? 0 : 100;
  if (opt.smoke) loop.max_steps = 2;

  // Set-up is measured setup_repeats() times on fresh engines; the last one
  // goes on into the timed iterations.
  std::vector<double> setup_s;
  for (int i = 0; i + 1 < setup_repeats(opt); ++i) {
    EngineRun r(opt.seed, 1);
    r.run(warmup, TimedLoop{0.0, 0, 0}, 0, nullptr, false);
    setup_s.push_back(r.setup_s);
  }
  std::string state;
  std::vector<double> step_ms;
  {
    EngineRun r(opt.seed, 1);
    r.run(warmup, loop, state_iter, &report, opt.trace);
    setup_s.push_back(r.setup_s);
    check_result(r, report);
    state = r.state;
    step_ms = r.step_ms;
    report.meta("state_at_iter_" + std::to_string(state_iter), state);
    if (opt.trace) {
      report_work_deltas(r.start, r.end,
                         static_cast<std::int64_t>(r.step_ms.size()), report);
      report.metric("nas.sampled_macs_per_iter",
                    r.macs_sum / static_cast<double>(r.step_ms.size()));
    } else {
      report_end_to_end(r.step_ms, r.timed_wall_s, setup_s, report);
    }
  }

  {
    // Bit-exactness contract: the same seed at kPoolThreads threads must
    // reach the byte-identical search state. The traced run goes on for 20
    // iterations past warm-up to read the pool's fan-out.
    EngineRun mt(opt.seed, kPoolThreads);
    TimedLoop mt_loop{0.0, 0, 0};
    if (opt.trace && !opt.smoke) mt_loop = TimedLoop{0.0, 20, 20};
    mt.run(warmup, mt_loop, state_iter, nullptr, false);
    report.check("bit_exact_vs_4_threads", mt.state == state,
                 "1 thread: " + state + " vs 4 threads: " + mt.state);
    if (opt.trace) {
      report_pool_deltas(mt.start, mt.end,
                         static_cast<std::int64_t>(mt.step_ms.size()), report);
    }
  }

  if (opt.trace) {
    run_traced_loop(opt, warmup, loop, report);
    report_trace_summary("cosearch.iter", quantile(step_ms, 0.5), report);
    report_span_median("rl.rollout", "rl.rollout_ms", 1.0, report);
    report_span_median("rl.a2c_update", "rl.a2c_update_ms", 1.0, report);
    report_span_median("nn.teacher_forward", "nn.teacher_forward_ms", 1.0,
                       report);
    report_span_median("nas.supernet_forward", "nas.supernet_forward_ms", 1.0,
                       report);
    report_span_median("nas.supernet_forward_rollout",
                       "nas.supernet_forward_rollout_ms", 1.0, report);
    report_span_median("nas.supernet_backward", "nas.supernet_backward_ms",
                       1.0, report);
    report_span_median("nas.alpha_update", "nas.alpha_update_ms", 1.0, report);
    report_span_median("das.cosearch_step", "das.cosearch_step_us", 1e3,
                       report);
    report_vecenv_probe(opt, report);
    report_op_replays(opt, report);
  }
}

}  // namespace perfbench
