#include "core/pipeline.h"

#include <chrono>

#include "arcade/games.h"
#include "obs/perf/chrome_trace.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace a3cs::core {

TrainedAgent train_derived_agent(const std::string& game_title,
                                 const nas::DerivedArch& arch,
                                 const nas::SearchSpaceConfig& space,
                                 std::int64_t frames,
                                 const rl::A2cConfig& a2c,
                                 nn::ActorCriticNet* teacher,
                                 std::uint64_t seed_value) {
  auto probe = arcade::make_game(game_title, 1);
  util::Rng rng(seed_value);
  auto bb = nas::build_derived_backbone(arch, probe->obs_spec(), space, rng);

  TrainedAgent out;
  out.specs = bb.specs;
  out.net = std::make_unique<nn::ActorCriticNet>(
      std::move(bb.module), bb.feature_dim, probe->num_actions(), rng);

  arcade::VecEnv envs(game_title, a2c.num_envs, seed_value + 10);
  rl::A2cConfig cfg = a2c;
  cfg.seed = seed_value + 20;
  rl::A2cTrainer trainer(*out.net, envs, cfg, teacher);
  trainer.train(frames);
  return out;
}

TrainedAgent train_zoo_agent_on_game(const std::string& game_title,
                                     const std::string& model_name,
                                     std::int64_t frames,
                                     const rl::A2cConfig& a2c,
                                     nn::ActorCriticNet* teacher,
                                     std::uint64_t seed_value) {
  auto probe = arcade::make_game(game_title, 1);
  util::Rng rng(seed_value);
  auto agent = nn::build_zoo_agent(model_name, probe->obs_spec(),
                                   probe->num_actions(), rng);
  TrainedAgent out;
  out.specs = std::move(agent.specs);
  out.net = std::move(agent.net);

  arcade::VecEnv envs(game_title, a2c.num_envs, seed_value + 10);
  rl::A2cConfig cfg = a2c;
  cfg.seed = seed_value + 20;
  rl::A2cTrainer trainer(*out.net, envs, cfg, teacher);
  trainer.train(frames);
  return out;
}

accel::HwEval search_accelerator(const std::vector<nn::LayerSpec>& specs,
                                 int num_chunks, const das::DasConfig& cfg,
                                 accel::AcceleratorConfig* out_config) {
  A3CS_PROF_SCOPE("search-accelerator");
  accel::AcceleratorSpace space(num_chunks, nn::num_groups(specs));
  accel::Predictor predictor;
  das::DasEngine engine(space, predictor, cfg);
  das::DasResult result = engine.search(specs);
  if (out_config != nullptr) *out_config = result.config;
  return result.eval;
}

namespace {

// RAII phase marker: profiles the block and brackets it with a JSONL "phase"
// event carrying the measured duration.
class PipelinePhase {
 public:
  explicit PipelinePhase(const char* name)
      : name_(name), prof_(name), start_(std::chrono::steady_clock::now()) {}
  ~PipelinePhase() {
    obs::trace_event("phase").kv("name", name_).kv(
        "dur_ms", std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }

 private:
  const char* name_;
  obs::ProfScope prof_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

PipelineResult run_a3cs_pipeline(const std::string& game_title,
                                 const PipelineConfig& cfg,
                                 nn::ActorCriticNet* teacher) {
  // Open the trace once for the whole pipeline so the co-search phase and
  // the later train/DAS/eval phases land in one file; the engine's own
  // TraceSession then attaches to this outer one.
  const obs::ObsConfig obs_cfg = cfg.cosearch.obs.with_env_overrides();
  if (obs_cfg.profile_enabled) obs::Profiler::set_enabled(true);
  obs::TraceSession trace_session(obs_cfg);
  obs::perf::ChromeTraceSession chrome_session(obs_cfg);
  obs::trace_event("pipeline_start")
      .kv("game", game_title)
      .kv("search_frames", cfg.search_frames)
      .kv("train_frames", cfg.train_frames);

  // 1) Co-search.
  CoSearchEngine engine(game_title, cfg.cosearch, teacher);
  CoSearchResult searched;
  {
    PipelinePhase phase("pipeline-cosearch");
    searched = engine.run(cfg.search_frames);
  }
  A3CS_LOG(INFO) << game_title
                 << ": derived arch = " << searched.arch.to_string();

  // 2) Train the derived agent from scratch with AC-distillation.
  TrainedAgent trained;
  {
    PipelinePhase phase("pipeline-train-derived");
    trained = train_derived_agent(game_title, searched.arch,
                                  cfg.cosearch.supernet.space,
                                  cfg.train_frames, cfg.cosearch.a2c, teacher,
                                  cfg.cosearch.seed + 1000);
  }

  // 3) Deployment accelerator: full DAS on the final network.
  PipelineResult result;
  {
    PipelinePhase phase("pipeline-final-das");
    result.hw = search_accelerator(trained.specs, cfg.cosearch.num_chunks,
                                   cfg.final_das, &result.accelerator);
  }

  // 4) Score.
  rl::EvalResult eval;
  {
    PipelinePhase phase("pipeline-eval");
    eval = rl::evaluate_agent(*trained.net, game_title, cfg.eval);
  }
  result.arch = searched.arch;
  result.test_score = eval.mean_score;
  result.specs = std::move(trained.specs);
  result.trained_net = std::move(trained.net);
  obs::perf::record_work_metrics();
  obs::trace_event("pipeline_end")
      .kv("game", game_title)
      .kv("arch", result.arch.to_string())
      .kv("test_score", result.test_score)
      .kv("fps", result.hw.fps)
      .kv("dsp", static_cast<std::int64_t>(result.hw.dsp_used))
      .kv("feasible", result.hw.feasible);
  if (obs_cfg.profile_enabled && !obs::Profiler::in_scope()) {
    obs::report_profile("pipeline", obs_cfg.profile_summary);
  }
  return result;
}

}  // namespace a3cs::core
