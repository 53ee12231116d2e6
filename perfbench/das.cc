// Workload `das`: accelerator searches at the pipeline's final-DAS setting
// (400 iterations) over a seeded set of networks, each under several DSP
// budgets. A step is one full search: engine construction plus
// DasEngine::search, as core::search_accelerator does it.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "accel/predictor.h"
#include "accel/space.h"
#include "arcade/games.h"
#include "common.h"
#include "das/das.h"
#include "nas/arch.h"
#include "nn/layer_spec.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace perfbench {

namespace a = a3cs;

namespace {

constexpr int kChunks = 4;
constexpr int kRandomNets = 3;
const int kDspBudgets[] = {450, 900, 1800};

struct Job {
  std::string net;
  std::vector<a::nn::LayerSpec> specs;
  a::accel::FpgaBudget budget;
  std::uint64_t das_seed = 0;
};

// Derived architectures drawn from the 6-cell space plus three zoo models,
// each under every DSP budget, in a seeded order.
std::vector<Job> make_jobs(std::uint64_t seed) {
  auto probe = a::arcade::make_game(kGame, 1);
  const a::nn::ObsSpec obs = probe->obs_spec();
  const a::nas::SearchSpaceConfig space = bench_space();
  std::vector<std::pair<std::string, std::vector<a::nn::LayerSpec>>> nets;
  a::util::Rng rng(mix(seed, 7));
  for (int i = 0; i < kRandomNets; ++i) {
    const a::nas::DerivedArch arch = a::nas::DerivedArch::random(space, rng);
    nets.emplace_back(arch.to_string(),
                      a::nas::derived_specs(arch, obs, space));
  }
  for (const char* zoo : {"Vanilla", "ResNet-14", "ResNet-20"}) {
    nets.emplace_back(zoo,
                      a::nn::zoo_model_specs(zoo, obs, probe->num_actions()));
  }
  std::vector<Job> jobs;
  for (const auto& [name, specs] : nets) {
    for (const int dsp : kDspBudgets) {
      Job job;
      job.net = name;
      job.specs = specs;
      job.budget.dsp = dsp;
      jobs.push_back(std::move(job));
    }
  }
  for (std::size_t i = jobs.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(jobs[i - 1], jobs[static_cast<std::size_t>(
                               rng.uniform_int(static_cast<int>(i)))]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].das_seed = mix(seed, 100 + i);
  }
  return jobs;
}

a::das::DasConfig das_config(const Options& opt, const Job& job) {
  a::das::DasConfig cfg;
  cfg.iterations = opt.smoke ? 10 : 400;
  cfg.seed = job.das_seed;
  return cfg;
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool same_eval(const a::accel::HwEval& x, const a::accel::HwEval& y) {
  bool same = x.feasible == y.feasible && same_bits(x.ii_cycles, y.ii_cycles) &&
              same_bits(x.latency_cycles, y.latency_cycles) &&
              same_bits(x.fps, y.fps) && same_bits(x.energy_nj, y.energy_nj) &&
              x.dsp_used == y.dsp_used && same_bits(x.bram_used, y.bram_used) &&
              same_bits(x.resource_overflow, y.resource_overflow) &&
              x.layers.size() == y.layers.size() &&
              x.chunk_cycles.size() == y.chunk_cycles.size();
  for (std::size_t i = 0; same && i < x.layers.size(); ++i) {
    const a::accel::LayerCost& p = x.layers[i];
    const a::accel::LayerCost& q = y.layers[i];
    same = same_bits(p.compute_cycles, q.compute_cycles) &&
           same_bits(p.memory_cycles, q.memory_cycles) &&
           same_bits(p.cycles, q.cycles) &&
           same_bits(p.sram_bytes, q.sram_bytes) &&
           same_bits(p.dram_bytes, q.dram_bytes) &&
           same_bits(p.energy_nj, q.energy_nj) && p.chunk == q.chunk;
  }
  for (std::size_t i = 0; same && i < x.chunk_cycles.size(); ++i) {
    same = same_bits(x.chunk_cycles[i], y.chunk_cycles[i]);
  }
  return same;
}

// A fresh predictor, with no serving cache in between, must reproduce the
// search's evaluation bit for bit, and the design must fit the budget.
void check_search(const Job& job, const a::accel::AcceleratorConfig& config,
                  const a::accel::HwEval& eval, Report& report) {
  const a::accel::HwEval fresh =
      a::accel::Predictor(job.budget).evaluate(job.specs, config);
  report.check("search_result_reevaluates", same_eval(fresh, eval),
               job.net + " @" + std::to_string(job.budget.dsp) +
                   " DSP: re-evaluation differs from the search's HwEval");
  report.check("search_result_fits_budget",
               fresh.feasible && fresh.dsp_used <= job.budget.dsp,
               job.net + " @" + std::to_string(job.budget.dsp) +
                   " DSP: best design infeasible");
}

a::das::DasResult search(const Options& opt, const Job& job) {
  a::accel::AcceleratorSpace space(kChunks, a::nn::num_groups(job.specs));
  a::accel::Predictor predictor(job.budget);
  a::das::DasEngine engine(space, predictor, das_config(opt, job));
  return engine.search(job.specs);
}

// DasEngine::search from its public calls, with spans: every step, and a
// direct predictor evaluation of the derived design every 25 steps and at
// the end. The better of it and the engine's incumbent is the result.
void traced_search(const Options& opt, const Job& job, Report& report) {
  Span top("das.search");
  a::accel::AcceleratorSpace space(kChunks, a::nn::num_groups(job.specs));
  a::accel::Predictor predictor(job.budget);
  const a::das::DasConfig cfg = das_config(opt, job);
  a::das::DasEngine engine(space, predictor, cfg);
  bool have_best = false;
  a::accel::AcceleratorConfig best;
  a::accel::HwEval best_eval;
  double best_cost = 0.0;
  const auto better = [](const a::accel::HwEval& e, double cost,
                         const a::accel::HwEval& than, double than_cost) {
    return (e.feasible && !than.feasible) ||
           (e.feasible == than.feasible && cost < than_cost);
  };
  for (int it = 0; it < cfg.iterations; ++it) {
    {
      Span s("das.step");
      engine.step(job.specs, 1);
    }
    if ((it + 1) % 25 == 0 || it + 1 == cfg.iterations) {
      Span s("accel.predictor_eval");
      const a::accel::AcceleratorConfig cand = engine.derive();
      const a::accel::HwEval eval = predictor.evaluate(job.specs, cand);
      const double cost = predictor.scalar_cost(eval);
      if (!have_best || better(eval, cost, best_eval, best_cost)) {
        have_best = true;
        best = cand;
        best_eval = eval;
        best_cost = cost;
      }
    }
  }
  if (engine.has_incumbent() &&
      better(engine.incumbent_eval(), engine.incumbent_cost(), best_eval,
             best_cost)) {
    best = engine.incumbent();
    best_eval = engine.incumbent_eval();
  }
  check_search(job, best, best_eval, report);
}

}  // namespace

void run_das(const Options& opt, Report& report) {
  const int warmup = opt.smoke ? 1 : 2;
  TimedLoop loop;
  loop.seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  loop.min_steps = opt.trace ? 0 : 100;
  if (opt.smoke) loop.max_steps = 2;

  std::vector<double> setup_s;
  std::vector<Job> jobs;
  std::size_t next = 0;
  for (int i = 0; i < setup_repeats(opt); ++i) {
    const double t0 = now_s();
    jobs = make_jobs(opt.seed);
    for (next = 0; next < static_cast<std::size_t>(warmup); ++next) {
      search(opt, jobs[next]);
    }
    setup_s.push_back(now_s() - t0);
  }

  const CounterSnapshot before = take_snapshot();
  std::vector<double> ms;
  const double start = now_s();
  double last = start;
  while (!loop.done(last - start, static_cast<std::int64_t>(ms.size()))) {
    const Job& job = jobs[next++ % jobs.size()];
    const a::das::DasResult result = search(opt, job);
    const double now = now_s();
    ms.push_back((now - last) * 1e3);
    check_search(job, result.config, result.eval, report);
    last = now_s();  // the check is in no step
  }
  const double wall_s = last - start;
  const CounterSnapshot after = take_snapshot();
  report.meta("networks", static_cast<double>(jobs.size() / 3));
  report.meta("jobs", static_cast<double>(jobs.size()));

  if (!opt.trace) {
    report_end_to_end(ms, wall_s, setup_s, report);
    return;
  }
  const auto n = static_cast<double>(ms.size());
  const auto per_search = [&](const std::string& counter) {
    return static_cast<double>(after.counters.at(counter) -
                               before.counters.at(counter)) / n;
  };
  report_work_deltas(before, after, static_cast<std::int64_t>(ms.size()),
                     report);
  report_pool_deltas(before, after, static_cast<std::int64_t>(ms.size()),
                     report);
  report.metric("das.samples_per_search", per_search("das.samples"));
  // Less the output check's own evaluation of each result.
  report.metric("accel.predictor_evals_per_search",
                per_search("predictor.evals") - 1.0);
  report.metric("serve.requests_per_search", per_search("serve.requests"));
  report.metric("serve.batches_per_search", per_search("serve.batches"));
  const double hits = per_search("serve.cache.hits");
  const double misses = per_search("serve.cache.misses");
  report.metric("serve.cache.hits_per_search", hits);
  report.metric("serve.cache.misses_per_search", misses);
  report.metric("serve.cache.hit_rate",
                hits + misses > 0 ? hits / (hits + misses) : 0.0);

  Tracer& t = tracer();
  t.set_enabled(true);
  const double traced_start = now_s();
  for (std::int64_t i = 0; !loop.done(now_s() - traced_start, i); ++i) {
    t.set_step(i);
    traced_search(opt, jobs[next++ % jobs.size()], report);
  }
  t.set_enabled(false);
  report_trace_summary("das.search", quantile(ms, 0.5), report);
  report_span_median("das.step", "das.step_us", 1e3, report);
  report_span_median("accel.predictor_eval", "accel.predictor_eval_us", 1e3,
                     report);
}

}  // namespace perfbench
