// Workload `infer`: the deployed agent acting at batch 1. A fixed derived
// architecture with conv and inverted-residual cells, weights from the seed,
// plays one Breakout env; a step is one action: ActorCriticNet::forward ->
// rl::sample_actions -> Env::step, restarting episodes as they end.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "arcade/games.h"
#include "common.h"
#include "nas/arch.h"
#include "nn/actor_critic.h"
#include "rl/rollout.h"
#include "util/rng.h"

namespace perfbench {

namespace a = a3cs;

namespace {

constexpr const char* kArch = "conv3-ir3x3-ir5x3-ir3x5-ir5x5-conv5";
// The action checksum covers this many actions from the first reset.
constexpr std::int64_t kChecksumActions = 1000;

class Agent {
 public:
  explicit Agent(std::uint64_t seed)
      : env_(a::arcade::make_game(kGame, mix(seed, 5))), rng_(mix(seed, 6)) {
    a::util::Rng init(mix(seed, 4));
    a::nn::BackboneBuild bb = a::nas::build_derived_backbone(
        a::nas::DerivedArch::from_string(kArch), env_->obs_spec(),
        bench_space(), init);
    net_ = std::make_unique<a::nn::ActorCriticNet>(
        std::move(bb.module), bb.feature_dim, env_->num_actions(), init);
    obs_ = env_->reset();
  }

  // One action; returns false if the logits were non-finite or the action
  // out of range.
  bool act() {
    a::nn::AcOutput out;
    {
      Span s("nn.agent_forward");
      out = net_->forward(obs_);
    }
    std::vector<int> actions;
    {
      Span s("rl.sample_actions");
      actions = a::rl::sample_actions(out.logits, rng_);
    }
    {
      Span s("arcade.env_step");
      a::arcade::StepResult r = env_->step(actions.front());
      obs_ = r.done ? env_->reset() : std::move(r.obs);
    }
    bool ok = actions.size() == 1 && actions.front() >= 0 &&
              actions.front() < env_->num_actions();
    for (std::int64_t i = 0; i < out.logits.numel(); ++i) {
      ok = ok && std::isfinite(out.logits[i]);
    }
    if (actions_ < kChecksumActions) {
      // FNV-1a over the action stream.
      checksum_ ^= static_cast<std::uint64_t>(actions.front() + 1);
      checksum_ *= 0x100000001B3ULL;
    }
    ++actions_;
    return ok;
  }

  std::int64_t actions() const { return actions_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::unique_ptr<a::arcade::Env> env_;
  a::util::Rng rng_;
  std::unique_ptr<a::nn::ActorCriticNet> net_;
  a::nn::Tensor obs_;
  std::int64_t actions_ = 0;
  std::uint64_t checksum_ = 0xCBF29CE484222325ULL;
};

// Acts until `loop` is done; returns each action's duration in ms.
std::vector<double> timed_actions(Agent& agent, const TimedLoop& loop,
                                  Report& report, double* wall_s) {
  std::vector<double> ms;
  Tracer& t = tracer();
  const double start = now_s();
  double last = start;
  while (!loop.done(last - start, static_cast<std::int64_t>(ms.size()))) {
    t.set_step(agent.actions());
    bool ok = false;
    {
      Span s("infer.act");
      ok = agent.act();
    }
    const double now = now_s();
    ms.push_back((now - last) * 1e3);
    last = now;
    if (!ok) {
      report.check("step_outputs", false,
                   "action " + std::to_string(agent.actions()) +
                       ": non-finite logits or action out of range");
      last = now_s();
    } else {
      report.check("step_outputs", true);
    }
  }
  *wall_s = last - start;
  return ms;
}

}  // namespace

void run_infer(const Options& opt, Report& report) {
  const int warmup = opt.smoke ? 10 : 200;
  TimedLoop loop;
  loop.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  loop.min_steps = opt.trace ? 0 : 100;
  if (opt.smoke) loop.max_steps = 20;

  std::vector<double> setup_s;
  std::unique_ptr<Agent> agent;
  for (int i = 0; i < setup_repeats(opt); ++i) {
    const double t0 = now_s();
    agent = std::make_unique<Agent>(opt.seed);
    for (int k = 0; k < warmup; ++k) {
      report.check("step_outputs", agent->act(), "warm-up action");
    }
    setup_s.push_back(now_s() - t0);
  }
  const CounterSnapshot before = take_snapshot();
  double wall_s = 0.0;
  const std::vector<double> ms =
      timed_actions(*agent, loop, report, &wall_s);
  const CounterSnapshot after = take_snapshot();

  // The action stream is a function of the seed alone: a fresh agent must
  // replay the same checksum.
  Agent replay(opt.seed);
  const std::int64_t n = std::min(agent->actions(), kChecksumActions);
  while (replay.actions() < n) replay.act();
  report.check("action_checksum_replay", replay.checksum() == agent->checksum(),
               "replayed action stream differs");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(agent->checksum()));
  report.meta("action_checksum", hex);
  report.meta("checksum_actions", static_cast<double>(n));

  if (!opt.trace) {
    report_end_to_end(ms, wall_s, setup_s, report);
    return;
  }
  report_work_deltas(before, after, static_cast<std::int64_t>(ms.size()),
                     report);
  report_pool_deltas(before, after, static_cast<std::int64_t>(ms.size()),
                     report);
  tracer().set_enabled(true);
  double traced_wall = 0.0;
  timed_actions(*agent, loop, report, &traced_wall);
  tracer().set_enabled(false);
  report_trace_summary("infer.act", quantile(ms, 0.5), report);
  report_span_median("nn.agent_forward", "nn.agent_forward_us", 1e3, report);
  report_span_median("rl.sample_actions", "rl.sample_actions_us", 1e3, report);
  report_span_median("arcade.env_step", "arcade.env_step_us", 1e3, report);
  report_op_replays(opt, report);
}

}  // namespace perfbench
