#include "core/cosearch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "arcade/games.h"
#include "ckpt/section_file.h"
#include "ckpt/signal.h"
#include "guard/fault.h"
#include "nn/module.h"
#include "obs/exec_stats.h"
#include "obs/metrics.h"
#include "obs/perf/chrome_trace.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/state_io.h"

namespace a3cs::core {

using tensor::Tensor;

namespace {

std::unique_ptr<nas::Supernet> build_supernet(const std::string& game_title,
                                              const CoSearchConfig& cfg,
                                              nas::Supernet** raw) {
  auto probe = arcade::make_game(game_title, 1);
  util::Rng rng(cfg.seed);
  auto supernet =
      std::make_unique<nas::Supernet>(probe->obs_spec(), cfg.supernet, rng);
  *raw = supernet.get();
  return supernet;
}

}  // namespace

CoSearchEngine::CoSearchEngine(const std::string& game_title,
                               CoSearchConfig cfg, nn::ActorCriticNet* teacher)
    : cfg_(cfg),
      game_title_(game_title),
      envs_(game_title, cfg.a2c.num_envs, cfg.seed + 1),
      supernet_(nullptr),
      teacher_(teacher),
      collector_(envs_, util::Rng(cfg.seed + 2)),
      space_(cfg.num_chunks,
             /*num_groups=*/cfg.supernet.space.num_cells + 2),
      predictor_(cfg.budget),
      next_tau_decay_(cfg.tau_decay_every_frames),
      theta_opt_(cfg.a2c.lr_start),
      alpha_opt_(cfg.alpha_lr) {
  auto supernet = build_supernet(game_title, cfg_, &supernet_);
  const int feature_dim = supernet_->feature_dim();
  auto probe = arcade::make_game(game_title, 1);
  util::Rng rng(cfg_.seed + 3);
  net_ = std::make_unique<nn::ActorCriticNet>(std::move(supernet), feature_dim,
                                              probe->num_actions(), rng);
  das_ = std::make_unique<das::DasEngine>(space_, predictor_, cfg_.das);
  if (teacher_ == nullptr) {
    // Without a teacher the distillation terms must be off regardless of the
    // configured coefficients.
    cfg_.a2c.loss.distill_actor = 0.0;
    cfg_.a2c.loss.distill_critic = 0.0;
  }
}

double CoSearchEngine::apply_cost_penalty_to_alpha(accel::HwEval* eval_out) {
  A3CS_PROF_SCOPE("cost-penalty");
  // Eq. 8: the activated operator of each cell is charged the layer-wise
  // cycle count it incurs on the current optimal accelerator hw(phi*). The
  // single-path sample of the most recent (training) forward stands in for
  // the final network (Sec. IV-A's chicken-and-egg approximation).
  const std::vector<int> choices = supernet_->last_choices();
  const auto specs = supernet_->specs_for(choices);
  const accel::HwEval eval = das_->derive_eval(specs);
  double total_penalty = 0.0;
  for (int cell = 0; cell < supernet_->num_cells(); ++cell) {
    const double cycles = eval.group_cycles(specs, cell + 1);
    const double penalty = cfg_.lambda * cycles / cfg_.cost_norm_cycles;
    total_penalty += penalty;
    supernet_->cell(cell).alpha().add_grad(
        choices[static_cast<std::size_t>(cell)], static_cast<float>(penalty));
  }
  if (eval_out != nullptr) *eval_out = eval;
  return total_penalty;
}

IterStats CoSearchEngine::one_iteration(bool update_theta, bool update_alpha,
                                        bool heal) {
  A3CS_PROF_SCOPE("cosearch-iter");
  IterStats stats;
  guard::FaultInjector& faults = guard::FaultInjector::global();

  // (1) Rollout with the sampled single-path policy.
  rl::Rollout rollout;
  {
    A3CS_PROF_SCOPE("rollout");
    const auto t0 = std::chrono::steady_clock::now();
    if (faults.should_fire(guard::FaultKind::kStallEnv, iter_)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(faults.stall_ms()));
    }
    rollout = collector_.collect(*net_, cfg_.a2c.rollout_len);
    stats.rollout_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  }
  double reward_sum = 0.0;
  std::int64_t reward_n = 0;
  for (const auto& step_rewards : rollout.rewards) {
    for (const double r : step_rewards) reward_sum += r;
    reward_n += static_cast<std::int64_t>(step_rewards.size());
  }
  stats.mean_reward = reward_n > 0 ? reward_sum / static_cast<double>(reward_n)
                                   : 0.0;

  // (2) Accelerator step phi -> phi' on the network sampled during the
  // rollout (Alg. 1 line "Update phi in Eq. 9").
  if (cfg_.hardware_aware) {
    A3CS_PROF_SCOPE("das-update");
    const auto specs = supernet_->specs_for(supernet_->last_choices());
    stats.das_cost = das_->step(specs, cfg_.das_steps_per_iter);
  }

  // (3) Task loss: forward the stacked rollout batch, compute head grads,
  // backprop through the supernet. This accumulates BOTH theta and alpha
  // gradients in one pass; which of them are applied is decided in step (5)
  // (both for one-level, alternating for bi-level).
  A3CS_PROF_SCOPE("a2c-update");
  const auto boot = net_->forward(rollout.last_obs);
  const Tensor batch_obs = rollout.stacked_obs();
  const auto ac = net_->forward(batch_obs);
  const rl::Targets targets =
      rl::compute_targets(rollout.rewards, rollout.dones, ac.value,
                          boot.value, cfg_.a2c.gamma, cfg_.a2c.advantage);

  std::vector<int> actions;
  for (const auto& step_actions : rollout.actions) {
    actions.insert(actions.end(), step_actions.begin(), step_actions.end());
  }

  Tensor teacher_probs, teacher_values;
  rl::LossCoefficients coef = cfg_.a2c.loss;
  if (teacher_ != nullptr &&
      (coef.distill_actor != 0.0 || coef.distill_critic != 0.0)) {
    const auto tea = teacher_->forward(batch_obs);
    teacher_probs = Tensor(tea.logits.shape());
    tensor::softmax_rows(tea.logits, teacher_probs);
    teacher_values = tea.value;
  } else {
    coef.distill_actor = 0.0;
    coef.distill_critic = 0.0;
  }

  rl::LossInputs in;
  in.logits = &ac.logits;
  in.values = &ac.value;
  in.actions = &actions;
  in.advantages = &targets.advantages;
  in.returns = &targets.returns;
  if (coef.distill_actor != 0.0 || coef.distill_critic != 0.0) {
    in.teacher_probs = &teacher_probs;
    in.teacher_values = &teacher_values;
  }
  rl::HeadGradients grads = rl::task_loss(in, coef, &stats.loss);
  stats.value_abs_max = static_cast<double>(ac.value.abs_max());
  if (faults.should_fire(guard::FaultKind::kInfLoss, iter_)) {
    // Poison both the scalar stats and the head gradients — exactly what a
    // real overflow inside the loss would hand the rest of the iteration.
    stats.loss.total = std::numeric_limits<double>::infinity();
    grads.dlogits.at(0) = std::numeric_limits<float>::infinity();
  }

  net_->zero_grad();
  supernet_->zero_alpha_grads();
  {
    A3CS_PROF_SCOPE("backward");
    net_->backward(grads.dlogits, grads.dvalue);
  }

  // (4) Hardware-cost penalty on alpha (Eq. 8), using the choices of the
  // training forward.
  if (cfg_.hardware_aware && update_alpha) {
    stats.cost_penalty = apply_cost_penalty_to_alpha(&stats.hw);
    stats.hw_valid = true;
  }

  // (5) Parameter updates, guarded: the fused norm pass both feeds the
  // health monitor and (in heal mode) vetoes an update that would commit
  // non-finite values into the weights.
  auto params = net_->parameters();
  if (faults.should_fire(guard::FaultKind::kNanGrad, iter_) &&
      !params.empty() && params.front()->grad.numel() > 0) {
    params.front()->grad.at(0) = std::numeric_limits<float>::quiet_NaN();
  }
  const nn::NormStats grad_stats = nn::grad_norm_stats(params);
  stats.grad_norm = grad_stats.norm;
  stats.grad_finite = grad_stats.finite;

  const bool unsafe = !std::isfinite(stats.loss.total) || !grad_stats.finite;
  if (heal && unsafe) {
    nn::zero_gradients(params);
    auto alphas = supernet_->alpha_params();
    nn::zero_gradients(alphas);  // the poison backpropagated into alpha too
    stats.update_skipped = true;
  } else {
    if (update_theta) {
      nn::clip_grad_norm(params, static_cast<float>(cfg_.a2c.grad_clip));
      theta_opt_.step(params);
    }
    if (update_alpha) {
      auto alphas = supernet_->alpha_params();
      alpha_opt_.step(alphas);
    }
  }

  if (faults.should_fire(guard::FaultKind::kNanParam, iter_) &&
      !params.empty() && params.front()->value.numel() > 0) {
    // Persistent corruption: unlike a poisoned batch, a NaN WEIGHT survives
    // any number of skipped updates — only a rollback heals it. Injected
    // before the parameter-norm pass so the monitor flags it this iteration.
    params.front()->value.at(0) = std::numeric_limits<float>::quiet_NaN();
  }
  const nn::NormStats param_stats = nn::param_norm_stats(params);
  stats.param_norm = param_stats.norm;
  stats.param_finite = param_stats.finite;
  return stats;
}

namespace {

// CRC over a network's serialized parameters: pins the teacher a checkpoint
// was taken against, so resuming with a different (e.g. retrained) teacher
// fails loudly instead of silently diverging.
std::uint32_t params_crc(nn::ActorCriticNet& net) {
  std::ostringstream oss;
  net.save_params(oss);
  const std::string bytes = oss.str();
  return util::crc32(bytes.data(), bytes.size());
}

}  // namespace

void CoSearchEngine::save_checkpoint(ckpt::SectionWriter& writer) {
  namespace sio = util::sio;
  {
    std::ostream& out = writer.begin_section("meta");
    sio::put_string(out, game_title_);
    sio::put_u64(out, cfg_.seed);
    sio::put_i32(out, envs_.num_envs());
    sio::put_i32(out, supernet_->num_cells());
    sio::put_bool(out, cfg_.hardware_aware);
    sio::put_bool(out, cfg_.optimization == Optimization::kBiLevel);
    sio::put_bool(out, teacher_ != nullptr);
    sio::put_u32(out, teacher_ != nullptr ? params_crc(*teacher_) : 0);
    sio::put_i64(out, iter_);
    sio::put_bool(out, alpha_turn_);
    sio::put_i64(out, next_tau_decay_);
    sio::put_i64(out, next_callback_);
    sio::put_i64(out, collector_.frames());
    sio::put_f64(out, cfg_.lambda);
    sio::put_i32(out, cfg_.budget.dsp);
    sio::put_f64(out, reward_ewma_);
    sio::put_bool(out, reward_ewma_init_);
    sio::put_string(out, tensor::backend::active().name);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("theta");
    net_->save_params(out);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("theta_opt");
    theta_opt_.save_state(out, net_->parameters());
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("alpha");
    std::vector<std::pair<std::string, Tensor>> named;
    for (nn::Parameter* p : supernet_->alpha_params()) {
      named.emplace_back(p->name, p->value);
    }
    tensor::write_tensors(out, named);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("alpha_opt");
    alpha_opt_.save_state(out, supernet_->alpha_params());
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("nas");
    supernet_->save_search_state(out);
    writer.end_section();
  }
  if (cfg_.hardware_aware) {
    std::ostream& out = writer.begin_section("das");
    das_->save_state(out);
    writer.end_section();
  }
  {
    std::ostream& out = writer.begin_section("rollout");
    collector_.save_state(out);
    writer.end_section();
  }
}

void CoSearchEngine::restore_checkpoint(const ckpt::SectionReader& reader) {
  namespace sio = util::sio;
  // Meta first: reject checkpoints from a differently configured run before
  // touching any live state.
  auto meta = reader.stream("meta");
  A3CS_CHECK(sio::get_string(meta) == game_title_,
             "checkpoint restore: game title mismatch");
  A3CS_CHECK(sio::get_u64(meta) == cfg_.seed,
             "checkpoint restore: seed mismatch");
  A3CS_CHECK(sio::get_i32(meta) == envs_.num_envs(),
             "checkpoint restore: num_envs mismatch");
  A3CS_CHECK(sio::get_i32(meta) == supernet_->num_cells(),
             "checkpoint restore: num_cells mismatch");
  A3CS_CHECK(sio::get_bool(meta) == cfg_.hardware_aware,
             "checkpoint restore: hardware_aware mismatch");
  A3CS_CHECK(sio::get_bool(meta) ==
                 (cfg_.optimization == Optimization::kBiLevel),
             "checkpoint restore: optimization mode mismatch");
  const bool had_teacher = sio::get_bool(meta);
  const std::uint32_t teacher_crc = sio::get_u32(meta);
  A3CS_CHECK(had_teacher == (teacher_ != nullptr),
             "checkpoint restore: teacher presence mismatch");
  if (teacher_ != nullptr) {
    A3CS_CHECK(teacher_crc == params_crc(*teacher_),
               "checkpoint restore: teacher parameters differ from the ones "
               "the checkpoint was taken against");
  }
  const std::int64_t iter = sio::get_i64(meta);
  const bool alpha_turn = sio::get_bool(meta);
  const std::int64_t next_tau_decay = sio::get_i64(meta);
  const std::int64_t next_callback = sio::get_i64(meta);
  sio::get_i64(meta);  // frames (restored below via the rollout section)
  // Shard-identity fields: a fleet worker resuming under the wrong cost
  // weight or resource budget would silently walk a different trajectory.
  const double lambda = sio::get_f64(meta);
  A3CS_CHECK(lambda == cfg_.lambda, "checkpoint restore: lambda mismatch");
  A3CS_CHECK(sio::get_i32(meta) == cfg_.budget.dsp,
             "checkpoint restore: DSP budget mismatch");
  const double reward_ewma = sio::get_f64(meta);
  const bool reward_ewma_init = sio::get_bool(meta);
  // Backends round differently, so the run only continues bit-exactly on
  // the kernel backend that wrote the checkpoint.
  const std::string saved_backend = sio::get_string(meta);
  const std::string backend = tensor::backend::active().name;
  A3CS_CHECK(saved_backend == backend,
             "checkpoint restore: written under kernel backend '" +
                 saved_backend + "' but this run uses '" + backend + "'");

  {
    auto in = reader.stream("theta");
    net_->load_params(in);
  }
  {
    auto in = reader.stream("theta_opt");
    theta_opt_.load_state(in, net_->parameters());
  }
  {
    auto in = reader.stream("alpha");
    const auto named = tensor::read_tensors(in);
    auto alphas = supernet_->alpha_params();
    A3CS_CHECK(named.size() == alphas.size(),
               "checkpoint restore: alpha count mismatch");
    for (nn::Parameter* p : alphas) {
      bool found = false;
      for (const auto& [name, t] : named) {
        if (name != p->name) continue;
        A3CS_CHECK(t.numel() == p->value.numel(),
                   "checkpoint restore: alpha '" + name + "' shape mismatch");
        p->value = t;
        found = true;
        break;
      }
      A3CS_CHECK(found, "checkpoint restore: alpha '" + p->name + "' missing");
    }
  }
  {
    auto in = reader.stream("alpha_opt");
    alpha_opt_.load_state(in, supernet_->alpha_params());
  }
  {
    auto in = reader.stream("nas");
    supernet_->load_search_state(in);
  }
  if (cfg_.hardware_aware) {
    auto in = reader.stream("das");
    das_->load_state(in);
  }
  {
    auto in = reader.stream("rollout");
    collector_.load_state(in);
  }

  iter_ = iter;
  alpha_turn_ = alpha_turn;
  next_tau_decay_ = next_tau_decay;
  next_callback_ = next_callback;
  reward_ewma_ = reward_ewma;
  reward_ewma_init_ = reward_ewma_init;
}

std::int64_t CoSearchEngine::frames() const { return collector_.frames(); }

namespace {

// One per-iteration JSONL event: the per-term loss decomposition, rollout
// return, alpha/tau state, and the hardware-cost trajectory — everything the
// DNAS literature plots to diagnose co-search (in)stability.
void emit_iter_event(std::int64_t iter, std::int64_t frames, double tau,
                     double das_tau, const IterStats& stats,
                     const std::vector<double>& alpha_entropies) {
  auto ev = obs::trace_event("cosearch_iter");
  ev.kv("iter", iter)
      .kv("frames", frames)
      .kv("mean_reward", stats.mean_reward)
      .kv("loss_total", stats.loss.total)
      .kv("loss_policy", stats.loss.policy)
      .kv("loss_value", stats.loss.value)
      .kv("entropy", stats.loss.entropy)
      .kv("loss_distill_actor", stats.loss.distill_actor)
      .kv("loss_distill_critic", stats.loss.distill_critic)
      .kv("tau", tau)
      .kv("das_tau", das_tau)
      .kv("das_cost", stats.das_cost)
      .kv("cost_penalty", stats.cost_penalty)
      .kv("grad_norm", stats.grad_norm)
      .kv("param_norm", stats.param_norm)
      .kv("value_abs_max", stats.value_abs_max);
  if (stats.update_skipped) ev.kv("update_skipped", true);
  double alpha_h_sum = 0.0;
  for (std::size_t cell = 0; cell < alpha_entropies.size(); ++cell) {
    alpha_h_sum += alpha_entropies[cell];
    ev.kv("alpha_H" + std::to_string(cell), alpha_entropies[cell]);
  }
  if (!alpha_entropies.empty()) {
    ev.kv("alpha_H_mean",
          alpha_h_sum / static_cast<double>(alpha_entropies.size()));
  }
  if (stats.hw_valid) {
    ev.kv("hw_cycles", stats.hw.ii_cycles)
        .kv("hw_fps", stats.hw.fps)
        .kv("hw_dsp", static_cast<std::int64_t>(stats.hw.dsp_used))
        .kv("hw_bram", stats.hw.bram_used)
        .kv("hw_feasible", stats.hw.feasible);
  }
}

}  // namespace

CoSearchResult CoSearchEngine::run(std::int64_t total_frames,
                                   Callback callback,
                                   std::int64_t callback_every) {
  const obs::ObsConfig obs_cfg = cfg_.obs.with_env_overrides();
  if (obs_cfg.profile_enabled) obs::Profiler::set_enabled(true);
  const util::ExecConfig exec_cfg = cfg_.exec.with_env_overrides();
  util::ThreadPool::set_global_threads(exec_cfg.resolved_threads());
  obs::MetricsRegistry::global().gauge("exec.threads")
      .set(util::ThreadPool::global().threads());

  // Training-health watchdog (docs/ROBUSTNESS.md). Monitor and ladder state
  // are deliberately per-run and NOT checkpointed: a healthy run takes no
  // guard actions, so bit-exact kill-and-resume is preserved, and a run
  // restored after a crash starts with a clean escalation ladder.
  const guard::GuardConfig guard_cfg = cfg_.guard.with_env_overrides();
  guard::FaultInjector::global().arm_from_env();
  guard::HealthMonitor monitor(guard_cfg.health);
  guard::GuardPolicy guard_policy(guard_cfg);
  const bool guard_on = guard_cfg.mode != guard::GuardMode::kOff;
  const bool heal = guard_cfg.mode == guard::GuardMode::kHeal;

  obs::TraceSession trace_session(obs_cfg);
  obs::perf::ChromeTraceSession chrome_session(obs_cfg);
  obs::trace_event("cosearch_start")
      .kv("game", game_title_)
      .kv("threads", util::ThreadPool::global().threads())
      .kv("total_frames", total_frames)
      .kv("num_cells", supernet_->num_cells())
      .kv("hardware_aware", cfg_.hardware_aware)
      .kv("bi_level", cfg_.optimization == Optimization::kBiLevel)
      .kv("lambda", cfg_.lambda)
      .kv("seed", static_cast<std::int64_t>(cfg_.seed))
      .kv("guard", guard::guard_mode_name(guard_cfg.mode));
  static obs::Counter& iters_counter =
      obs::MetricsRegistry::global().counter("cosearch.iterations");
  static obs::Counter& frames_counter =
      obs::MetricsRegistry::global().counter("cosearch.frames");
  obs::Histogram& iter_ms_hist = obs::MetricsRegistry::global().histogram(
      "cosearch.iter_ms", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
  static obs::Counter& guard_warns =
      obs::MetricsRegistry::global().counter("guard.verdicts.warn");
  static obs::Counter& guard_errors =
      obs::MetricsRegistry::global().counter("guard.verdicts.error");
  static obs::Counter& guard_skips =
      obs::MetricsRegistry::global().counter("guard.skips");
  static obs::Counter& guard_softens =
      obs::MetricsRegistry::global().counter("guard.softens");
  static obs::Counter& guard_rollbacks =
      obs::MetricsRegistry::global().counter("guard.rollbacks");
  static obs::Counter& guard_aborts =
      obs::MetricsRegistry::global().counter("guard.aborts");
  static obs::Gauge& grad_norm_gauge =
      obs::MetricsRegistry::global().gauge("train.grad_norm");
  static obs::Gauge& param_norm_gauge =
      obs::MetricsRegistry::global().gauge("train.param_norm");

  const nn::LinearLrSchedule schedule(
      cfg_.a2c.lr_start, cfg_.a2c.lr_end,
      static_cast<std::int64_t>(cfg_.a2c.lr_hold_frac *
                                static_cast<double>(total_frames)),
      total_frames);

  // Checkpointing: periodic (iteration and/or wall-clock cadence) plus a
  // final write on SIGINT/SIGTERM. The write happens BEFORE the user
  // callback fires at the same boundary, so a crash inside the callback
  // resumes from a state that has not advanced past it.
  const ckpt::CkptConfig ckpt_cfg = cfg_.ckpt.with_env_overrides();
  std::unique_ptr<ckpt::CheckpointManager> ckpt_mgr;
  std::unique_ptr<ckpt::StopSignalGuard> stop_guard;
  static obs::Counter& ckpt_writes =
      obs::MetricsRegistry::global().counter("ckpt.writes");
  static obs::Counter& ckpt_bytes =
      obs::MetricsRegistry::global().counter("ckpt.bytes");
  static obs::Counter& ckpt_restores =
      obs::MetricsRegistry::global().counter("ckpt.restores");
  obs::Histogram& ckpt_write_ms = obs::MetricsRegistry::global().histogram(
      "ckpt.write_ms", {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});

  // iter_ / alpha_turn_ are cumulative engine state (restore_checkpoint may
  // already have positioned them); only the callback cadence is per-run.
  next_callback_ = callback_every;
  auto last_ckpt = std::chrono::steady_clock::now();

  // Soften state: a multiplicative LR scale (theta and alpha) plus a Gumbel
  // temperature boost, in force until the cooldown window expires.
  double soften_scale = 1.0;
  std::int64_t soften_until = -1;
  // Health of the most recently evaluated iteration; stamps the trailer tag
  // of any checkpoint written at that boundary (guard off/warn and the
  // pre-first-iteration state count as healthy).
  bool last_iter_healthy = true;

  const auto write_ckpt = [&](const char* reason) {
    const auto t0 = std::chrono::steady_clock::now();
    ckpt::SectionWriter writer;
    save_checkpoint(writer);
    writer.set_healthy(last_iter_healthy);
    const std::size_t bytes = ckpt_mgr->commit(iter_, writer);
    if (guard::FaultInjector::global().should_fire(
            guard::FaultKind::kTruncCkpt, iter_)) {
      // Torn-tip fault: halve the file AFTER the atomic commit, simulating
      // the disk filling up / the machine dying mid-write in a world without
      // the tmp+rename protocol. load_newest_valid must fall back past it.
      const std::string path = ckpt_mgr->path_for(iter_);
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      if (!ec && size > 0) {
        std::filesystem::resize_file(path, size / 2, ec);
        A3CS_LOG(WARN) << "fault injection: truncated checkpoint " << path
                       << " to " << size / 2 << " bytes";
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ckpt_writes.inc();
    ckpt_bytes.inc(static_cast<std::int64_t>(bytes));
    ckpt_write_ms.record(ms);
    last_ckpt = std::chrono::steady_clock::now();
    if (obs::trace_active()) {
      obs::trace_event("ckpt_write")
          .kv("iter", iter_)
          .kv("frames", collector_.frames())
          .kv("bytes", static_cast<std::int64_t>(bytes))
          .kv("write_ms", ms)
          .kv("reason", reason)
          .kv("healthy", last_iter_healthy);
    }
  };

  // Abort rung: dump the complete (diverged) engine state for post-mortem
  // debugging, then surface the failure as a typed exception. The dump is
  // tagged unhealthy so no resume path will ever restore from it.
  const auto abort_run = [&](const std::string& why) {
    guard_aborts.inc();
    std::string dump_path;
    if (ckpt_mgr) {
      ckpt::SectionWriter dump;
      save_checkpoint(dump);
      dump.set_healthy(false);
      dump_path = ckpt_cfg.dir + "/abort-dump.a3ck";
      dump.write(dump_path);
    }
    if (obs::trace_active()) {
      obs::trace_event("guard_event")
          .kv("kind", "abort_dump")
          .kv("iter", iter_)
          .kv("detail", why)
          .kv("dump", dump_path);
    }
    A3CS_LOG(ERROR) << "guard: aborting co-search at iteration " << iter_
                    << ": " << why
                    << (dump_path.empty() ? std::string()
                                          : "; diagnostic dump at " +
                                                dump_path);
    throw guard::GuardAbort("co-search aborted at iteration " +
                                std::to_string(iter_) + ": " + why,
                            iter_);
  };

  if (ckpt_cfg.enabled()) {
    ckpt_mgr = std::make_unique<ckpt::CheckpointManager>(ckpt_cfg);
    stop_guard = std::make_unique<ckpt::StopSignalGuard>();
    if (ckpt_cfg.resume) {
      ckpt::SectionReader reader;
      int fallbacks = 0;
      const std::int64_t at = ckpt_mgr->load_newest_valid(&reader, &fallbacks);
      if (at >= 0) {
        restore_checkpoint(reader);
        ckpt_restores.inc();
        A3CS_LOG(INFO) << "resumed co-search from " << ckpt_mgr->path_for(at)
                       << " (iteration " << iter_ << ", "
                       << collector_.frames() << " frames)";
        if (obs::trace_active()) {
          obs::trace_event("ckpt_restore")
              .kv("iter", iter_)
              .kv("frames", collector_.frames())
              .kv("bytes", static_cast<std::int64_t>(reader.total_bytes()))
              .kv("fallbacks", static_cast<std::int64_t>(fallbacks));
        }
      } else {
        A3CS_LOG(WARN) << "checkpoint resume requested but no valid "
                       << "checkpoint in " << ckpt_cfg.dir
                       << "; starting fresh";
      }
    }
  }

  bool stopped = false;
  while (collector_.frames() < total_frames) {
    const std::int64_t frames_before = collector_.frames();
    const auto iter_start = std::chrono::steady_clock::now();
    if (soften_until >= 0 && iter_ >= soften_until) {
      soften_scale = 1.0;
      soften_until = -1;
      alpha_opt_.set_learning_rate(cfg_.alpha_lr);
      A3CS_LOG(INFO) << "guard: soften cooldown expired at iteration "
                     << iter_ << "; learning rates restored";
    }
    theta_opt_.set_learning_rate(schedule.at(collector_.frames()) *
                                 soften_scale);
    IterStats stats;
    if (cfg_.optimization == Optimization::kOneLevel) {
      stats = one_iteration(/*update_theta=*/true, /*update_alpha=*/true,
                            heal);
    } else {
      // Bi-level (one-step approximation, as in DARTS-style NACoS): theta on
      // this rollout, alpha on the next, never both — the alpha gradient is
      // then taken at stale weights, which is exactly the bias the paper's
      // Sec. V-D ablation exposes.
      stats = one_iteration(/*update_theta=*/!alpha_turn_,
                            /*update_alpha=*/alpha_turn_, heal);
      alpha_turn_ = !alpha_turn_;
    }
    ++iter_;
    if (reward_ewma_init_) {
      reward_ewma_ = 0.9 * reward_ewma_ + 0.1 * stats.mean_reward;
    } else {
      reward_ewma_ = stats.mean_reward;
      reward_ewma_init_ = true;
    }
    iters_counter.inc();
    frames_counter.inc(collector_.frames() - frames_before);
    iter_ms_hist.record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - iter_start)
                            .count());
    grad_norm_gauge.set(stats.grad_norm);
    param_norm_gauge.set(stats.param_norm);
    if (obs::trace_active() && iter_ % obs_cfg.trace_every == 0) {
      emit_iter_event(iter_, collector_.frames(), supernet_->temperature(),
                      das_->temperature(), stats,
                      supernet_->alpha_entropies());
    }

    if (guard_on) {
      guard::HealthSignals sig;
      sig.iter = iter_;
      sig.loss_total = stats.loss.total;
      sig.loss_policy = stats.loss.policy;
      sig.loss_value = stats.loss.value;
      sig.entropy = stats.loss.entropy;
      sig.grad_norm = stats.grad_norm;
      sig.grad_finite = stats.grad_finite;
      sig.param_norm = stats.param_norm;
      sig.param_finite = stats.param_finite;
      sig.value_abs_max = stats.value_abs_max;
      sig.mean_reward = stats.mean_reward;
      sig.rollout_ms = stats.rollout_ms;
      const std::vector<double> alpha_h = supernet_->alpha_entropies();
      if (!alpha_h.empty()) {
        double sum = 0.0;
        for (const double h : alpha_h) sum += h;
        sig.alpha_entropy_mean = sum / static_cast<double>(alpha_h.size());
      }
      const guard::HealthReport report = monitor.evaluate(sig);
      last_iter_healthy = !report.has_error();
      if (!report.ok()) {
        for (const guard::HealthVerdict& v : report.verdicts) {
          (v.severity == guard::Severity::kError ? guard_errors : guard_warns)
              .inc();
          if (obs::trace_active()) {
            obs::trace_event("guard_event")
                .kv("kind", "verdict")
                .kv("iter", iter_)
                .kv("check", guard::check_name(v.check))
                .kv("severity", guard::severity_name(v.severity))
                .kv("value", v.value)
                .kv("threshold", v.threshold)
                .kv("detail", v.detail);
          }
        }
        A3CS_LOG(WARN) << "guard: iteration " << iter_
                       << " unhealthy: " << report.summary();
      }
      const guard::GuardAction action = guard_policy.decide(report);
      if (action != guard::GuardAction::kNone && obs::trace_active()) {
        obs::trace_event("guard_event")
            .kv("kind", guard::guard_action_name(action))
            .kv("iter", iter_)
            .kv("streak",
                static_cast<std::int64_t>(guard_policy.error_streak()))
            .kv("rollbacks",
                static_cast<std::int64_t>(guard_policy.rollbacks()))
            .kv("detail", report.summary());
      }
      if (action == guard::GuardAction::kSkip) {
        // The actual veto already happened inside one_iteration (heal mode
        // zeroes a non-finite batch before the optimizer steps); the skip
        // rung only accounts for it here.
        guard_skips.inc();
      } else if (action == guard::GuardAction::kSoften) {
        guard_softens.inc();
        soften_scale *= guard_cfg.soften_lr_scale;
        soften_until = iter_ + guard_cfg.soften_cooldown_iters;
        alpha_opt_.set_learning_rate(cfg_.alpha_lr * soften_scale);
        const double tau =
            std::min(cfg_.supernet.tau_init,
                     supernet_->temperature() * guard_cfg.soften_tau_boost);
        supernet_->set_temperature(tau);
        A3CS_LOG(WARN) << "guard: soften at iteration " << iter_
                       << " (lr scale " << soften_scale << ", tau " << tau
                       << ", cooldown until iteration " << soften_until
                       << ")";
      } else if (action == guard::GuardAction::kRollback) {
        bool rolled = false;
        if (ckpt_mgr) {
          ckpt::SectionReader reader;
          int fallbacks = 0;
          const std::int64_t at = ckpt_mgr->load_newest_valid(
              &reader, &fallbacks, /*require_healthy=*/true);
          if (at >= 0) {
            const std::int64_t from_iter = iter_;
            restore_checkpoint(reader);
            // Stale tips newer than the restore point are by construction
            // unhealthy (or about to be shadowed); drop them so they can
            // never win a later newest-first scan.
            ckpt_mgr->remove_newer_than(at);
            guard_policy.on_rollback();
            monitor.reset();
            // Distinct reseed per rollback: replaying the restored state
            // with its restored RNG streams would deterministically walk
            // into the same divergence again.
            const std::uint64_t salt =
                0x9E3779B97F4A7C15ULL *
                static_cast<std::uint64_t>(guard_policy.rollbacks());
            collector_.reseed((cfg_.seed + 2) ^ salt);
            supernet_->reseed_sampler(cfg_.supernet.sample_seed ^ salt);
            if (cfg_.hardware_aware) das_->reseed(cfg_.das.seed ^ salt);
            soften_scale = 1.0;
            soften_until = -1;
            alpha_opt_.set_learning_rate(cfg_.alpha_lr);
            last_iter_healthy = true;
            guard_rollbacks.inc();
            ckpt_restores.inc();
            rolled = true;
            A3CS_LOG(WARN) << "guard: rolled back from iteration "
                           << from_iter << " to healthy checkpoint "
                           << ckpt_mgr->path_for(at) << " (rollback "
                           << guard_policy.rollbacks() << " of "
                           << guard_cfg.max_rollbacks << ", reseeded)";
            if (obs::trace_active()) {
              obs::trace_event("guard_event")
                  .kv("kind", "rollback_done")
                  .kv("from_iter", from_iter)
                  .kv("iter", iter_)
                  .kv("fallbacks", static_cast<std::int64_t>(fallbacks))
                  .kv("rollbacks",
                      static_cast<std::int64_t>(guard_policy.rollbacks()));
            }
          }
        }
        if (!rolled) {
          abort_run("no healthy checkpoint to roll back to: " +
                    report.summary());
        }
        continue;
      } else if (action == guard::GuardAction::kAbort) {
        abort_run(report.summary());
      }
    }

    while (collector_.frames() >= next_tau_decay_) {
      supernet_->decay_temperature();
      next_tau_decay_ += cfg_.tau_decay_every_frames;
    }

    if (ckpt_mgr) {
      stopped = ckpt::stop_requested();
      const bool iter_due =
          ckpt_cfg.every_iters > 0 && iter_ % ckpt_cfg.every_iters == 0;
      const bool time_due =
          ckpt_cfg.every_seconds > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        last_ckpt)
                  .count() >= ckpt_cfg.every_seconds;
      if (stopped || iter_due || time_due) {
        write_ckpt(stopped ? "signal" : (iter_due ? "iters" : "seconds"));
      }
    }
    if (callback && callback_every > 0 &&
        collector_.frames() >= next_callback_) {
      callback(collector_.frames());
      next_callback_ += callback_every;
    }
    if (stopped) {
      A3CS_LOG(INFO) << "stop signal received; checkpointed at iteration "
                     << iter_ << " and exiting the search loop";
      break;
    }
  }

  CoSearchResult result;
  result.arch = supernet_->derive();
  result.frames = collector_.frames();
  const auto final_specs = supernet_->specs_for(result.arch.choices);
  if (cfg_.hardware_aware) {
    result.accelerator = das_->derive();
    result.hw_eval = predictor_.evaluate(final_specs, result.accelerator);
  }

  obs::record_exec_stats();
  obs::perf::record_work_metrics();
  obs::trace_event("cosearch_end")
      .kv("iters", iter_)
      .kv("frames", result.frames)
      .kv("arch", result.arch.to_string())
      .kv("hw_fps", result.hw_eval.fps)
      .kv("hw_dsp", static_cast<std::int64_t>(result.hw_eval.dsp_used))
      .kv("hw_feasible", result.hw_eval.feasible);
  // Inside an enclosing scope (run_a3cs_pipeline's phases) the outer run
  // owns the report: reporting here would snapshot the tree mid-pipeline.
  if (obs_cfg.profile_enabled && !obs::Profiler::in_scope()) {
    obs::report_profile("co-search", obs_cfg.profile_summary);
  }
  return result;
}

}  // namespace a3cs::core
